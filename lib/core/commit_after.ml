(* Every leg commits after the global decision (Figure 5): ready while
   running, repeated from the redo-log when erroneously aborted. *)
let run =
  Protocol_common.(
    run
      {
        protocol = "after";
        prepared = After;
        unprepared = Some After;
        presumed_abort = false;
        inquire_on_failure = true;
      })
