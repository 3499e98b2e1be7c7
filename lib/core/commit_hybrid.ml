(* A Middle (2PC) leg where the site exposes a ready state, a Before leg
   elsewhere. *)
let run =
  Protocol_common.(
    run
      {
        protocol = "hybrid";
        prepared = Middle;
        unprepared = Some Before;
        presumed_abort = false;
        inquire_on_failure = true;
      })
