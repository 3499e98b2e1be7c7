(* Every leg commits before the global decision (Figure 6): unilaterally,
   undone by its inverse from the undo-log on a global abort. *)
let run =
  Protocol_common.(
    run
      {
        protocol = "before";
        prepared = Before;
        unprepared = Some Before;
        presumed_abort = false;
        inquire_on_failure = true;
      })
