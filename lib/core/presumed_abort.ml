(* 2PC's Middle legs, with read-only branches committed at prepare, no
   forced abort record and unacknowledged abort messages. *)
let run =
  Protocol_common.(
    run
      {
        protocol = "2pc-pa";
        prepared = Middle;
        unprepared = None;
        presumed_abort = true;
        inquire_on_failure = true;
      })
