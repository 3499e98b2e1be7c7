(* Every leg prepares: the global decision falls in the middle of every
   local commitment (Figure 3). A site without a ready state aborts the run,
   and an execution failure aborts the survivors without an inquiry. *)
let run =
  Protocol_common.(
    run
      {
        protocol = "2pc";
        prepared = Middle;
        unprepared = None;
        presumed_abort = false;
        inquire_on_failure = false;
      })
