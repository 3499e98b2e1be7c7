(* Tests for Icdb_net: links (latency + message accounting) and sites
   (communication-manager endpoints with crash orchestration). *)

module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Link = Icdb_net.Link
module Site = Icdb_net.Site
module Db = Icdb_localdb.Engine

let test_link_rpc_latency_and_counts () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:3.0 () in
  let remote_time = ref 0.0 and done_time = ref 0.0 and result = ref 0 in
  Fiber.spawn eng (fun () ->
      result :=
        Link.rpc link ~label:"ping" (fun () ->
            remote_time := Sim.now eng;
            ("pong", 41 + 1));
      done_time := Sim.now eng);
  Sim.run eng;
  Alcotest.(check int) "result" 42 !result;
  Alcotest.(check (float 1e-9)) "request latency" 3.0 !remote_time;
  Alcotest.(check (float 1e-9)) "round trip" 6.0 !done_time;
  Alcotest.(check int) "two messages" 2 (Link.message_count link);
  Alcotest.(check (list (pair string int))) "labels" [ ("ping", 1); ("pong", 1) ]
    (Link.messages_by_label link)

let test_link_reply_label_varies () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 () in
  Fiber.spawn eng (fun () ->
      ignore (Link.rpc link ~label:"prepare" (fun () -> ("ready", ())));
      ignore (Link.rpc link ~label:"prepare" (fun () -> ("abort-vote", ()))));
  Sim.run eng;
  Alcotest.(check (list (pair string int)))
    "vote labels distinguished"
    [ ("abort-vote", 1); ("prepare", 2); ("ready", 1) ]
    (Link.messages_by_label link)

let test_link_send_one_way () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:2.0 () in
  let hit = ref 0.0 in
  Fiber.spawn eng (fun () -> Link.send link ~label:"notify" (fun () -> hit := Sim.now eng));
  Sim.run eng;
  Alcotest.(check (float 1e-9)) "one latency" 2.0 !hit;
  Alcotest.(check int) "one message" 1 (Link.message_count link)

let test_link_reset () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:0.5 () in
  Fiber.spawn eng (fun () -> ignore (Link.rpc link ~label:"x" (fun () -> ("y", ()))));
  Sim.run eng;
  Link.reset_counters link;
  Alcotest.(check int) "reset" 0 (Link.message_count link)

let test_link_negative_latency () =
  let eng = Sim.create () in
  Alcotest.check_raises "negative latency" (Invalid_argument "Link.create: negative latency")
    (fun () -> ignore (Link.create eng ~latency:(-1.0) ()))

(* --- Site --- *)

let test_site_basics () =
  let eng = Sim.create () in
  let site = Site.create eng ~latency:1.0 (Db.default_config ~site_name:"s1") in
  Alcotest.(check string) "name" "s1" (Site.name site);
  Alcotest.(check bool) "up" true (Site.is_up site);
  Alcotest.(check (float 1e-9)) "latency" 1.0 (Link.latency (Site.link site))

let test_site_crash_for_and_await_up () =
  let eng = Sim.create () in
  let site = Site.create eng (Db.default_config ~site_name:"s1") in
  let woke_at = ref 0.0 in
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 1.0;
      (* Site is down at this point; await recovery. *)
      Site.await_up site;
      woke_at := Sim.now eng);
  ignore (Sim.schedule eng ~delay:0.5 (fun () -> Site.crash_for site ~duration:10.0));
  Sim.run eng;
  Alcotest.(check (float 1e-9)) "woken at restart" 10.5 !woke_at;
  Alcotest.(check bool) "up again" true (Site.is_up site)

let test_site_await_up_immediate () =
  let eng = Sim.create () in
  let site = Site.create eng (Db.default_config ~site_name:"s1") in
  let passed = ref false in
  Fiber.spawn eng (fun () ->
      Site.await_up site;
      passed := true);
  Sim.run eng;
  Alcotest.(check bool) "no blocking when up" true !passed

let test_site_crash_preserves_committed () =
  let eng = Sim.create () in
  let site = Site.create eng (Db.default_config ~site_name:"s1") in
  Db.load (Site.db site) [ ("k", 7) ];
  Site.crash site;
  Alcotest.(check bool) "down" false (Site.is_up site);
  ignore (Site.restart site);
  Alcotest.(check (option int)) "durable" (Some 7) (Db.committed_value (Site.db site) "k")

let test_site_multiple_waiters () =
  let eng = Sim.create () in
  let site = Site.create eng (Db.default_config ~site_name:"s1") in
  Site.crash site;
  let woken = ref 0 in
  for _ = 1 to 3 do
    Fiber.spawn eng (fun () ->
        Site.await_up site;
        incr woken)
  done;
  ignore (Sim.schedule eng ~delay:5.0 (fun () -> ignore (Site.restart site)));
  Sim.run eng;
  Alcotest.(check int) "all waiters woken" 3 !woken

(* Regression: two overlapping [crash_for] outages on one site. The first
   outage's scheduled restart used to fire mid-way through the second outage
   and revive the site ~90 time units early. *)
let test_site_overlapping_crash_for () =
  let eng = Sim.create () in
  let site = Site.create eng (Db.default_config ~site_name:"s1") in
  ignore (Sim.schedule eng ~delay:5.0 (fun () -> Site.crash_for site ~duration:10.0));
  ignore (Sim.schedule eng ~delay:10.0 (fun () -> Site.crash_for site ~duration:100.0));
  let up_at_16 = ref true in
  ignore (Sim.schedule eng ~delay:16.0 (fun () -> up_at_16 := Site.is_up site));
  let woke_at = ref 0.0 in
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 6.0;
      Site.await_up site;
      woke_at := Sim.now eng);
  Sim.run eng;
  Alcotest.(check bool) "stale restart did not fire" false !up_at_16;
  Alcotest.(check (float 1e-9)) "second outage runs its course" 110.0 !woke_at;
  Alcotest.(check bool) "up at end" true (Site.is_up site)

(* Regression: a manual restart inside a [crash_for] window cancels the
   pending restart, and a later plain crash must not be undone by it. *)
let test_site_restart_cancels_pending () =
  let eng = Sim.create () in
  let site = Site.create eng (Db.default_config ~site_name:"s1") in
  ignore (Sim.schedule eng ~delay:0.0 (fun () -> Site.crash_for site ~duration:10.0));
  ignore (Sim.schedule eng ~delay:2.0 (fun () -> ignore (Site.restart site)));
  ignore (Sim.schedule eng ~delay:5.0 (fun () -> Site.crash site));
  let up_mid = ref false in
  ignore (Sim.schedule eng ~delay:3.0 (fun () -> up_mid := Site.is_up site));
  Sim.run eng;
  Alcotest.(check bool) "manual restart took effect" true !up_mid;
  Alcotest.(check bool) "crash after cancelled restart sticks" false (Site.is_up site)

(* --- lossy links --- *)

let test_link_lossy_rpc_exactly_once_effect () =
  let eng = Sim.create () in
  (* 40% loss: plenty of retransmissions. *)
  let link = Link.create eng ~latency:1.0 ~loss:0.4 ~loss_seed:3L () in
  let executions = ref 0 in
  let results = ref [] in
  Fiber.spawn eng (fun () ->
      for i = 1 to 20 do
        let r =
          Link.rpc link ~label:"req" (fun () ->
              incr executions;
              ("rep", i * 10))
        in
        results := r :: !results
      done);
  Sim.run eng;
  Alcotest.(check int) "every call returned" 20 (List.length !results);
  Alcotest.(check (list int)) "correct values in order"
    (List.init 20 (fun i -> (20 - i) * 10))
    !results;
  (* Dedup: the handler ran exactly once per logical request. *)
  Alcotest.(check int) "handler ran once per request" 20 !executions;
  Alcotest.(check bool) "wire carried retransmissions" true
    (Link.message_count link > 40);
  Alcotest.(check bool) "drops counted" true (Link.dropped_count link > 0)

let test_link_lossy_send_effect_once () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 ~loss:0.5 ~loss_seed:9L () in
  let effects = ref 0 in
  Fiber.spawn eng (fun () ->
      for _ = 1 to 10 do
        Link.send link ~label:"notify" (fun () -> incr effects)
      done);
  Sim.run eng;
  Alcotest.(check int) "each datagram delivered once" 10 !effects

(* Retry cap: a wire bad enough to eat every copy makes [rpc] give up with
   [Unreachable] instead of retransmitting forever. Nothing was delivered,
   so no receiver dedup state is orphaned. *)
let test_link_retry_cap_unreachable () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 ~loss:0.99 ~loss_seed:5L ~max_retries:2 () in
  let raised = ref false in
  Fiber.spawn eng (fun () ->
      try ignore (Link.rpc ~gid:9 link ~label:"q" (fun () -> ("r", ())))
      with Link.Unreachable "q" -> raised := true);
  Sim.run eng;
  Alcotest.(check bool) "unreachable after cap" true !raised;
  Alcotest.(check int) "request never delivered, no orphan" 0 (Link.orphan_count link)

(* Orphaned receiver dedup state: the request got through (the receiver
   memoized a reply) but the wire then turned bad and the budget ran out.
   The orphan stays until its global transaction evicts it. *)
let test_link_orphan_eviction () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 ~max_retries:0 () in
  ignore (Sim.schedule eng ~delay:0.5 (fun () -> Link.set_loss link 0.99));
  let raised = ref false and executed = ref 0 in
  Fiber.spawn eng (fun () ->
      try
        ignore
          (Link.rpc ~gid:7 link ~label:"q" (fun () ->
               incr executed;
               ("r", 1)))
      with Link.Unreachable _ -> raised := true);
  Sim.run eng;
  Alcotest.(check bool) "reply lost, budget spent" true !raised;
  Alcotest.(check int) "handler did run" 1 !executed;
  Alcotest.(check int) "dedup entry orphaned" 1 (Link.orphan_count link);
  Link.evict_gid link ~gid:7;
  Alcotest.(check int) "journal close evicts" 0 (Link.orphan_count link)

(* Two gids leave orphans; closing one evicts only its own, and closing a
   gid without orphans evicts nothing. *)
let test_link_orphan_eviction_per_gid () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 ~max_retries:0 () in
  ignore (Sim.schedule eng ~delay:0.5 (fun () -> Link.set_loss link 0.99));
  List.iter
    (fun gid ->
      Fiber.spawn eng (fun () ->
          try ignore (Link.rpc ~gid link ~label:"q" (fun () -> ("r", ())))
          with Link.Unreachable _ -> ()))
    [ 7; 8 ];
  Sim.run eng;
  Alcotest.(check int) "one orphan per gid" 2 (Link.orphan_count link);
  Link.evict_gid link ~gid:9;
  Alcotest.(check int) "gid without orphans evicts nothing" 2 (Link.orphan_count link);
  Link.evict_gid link ~gid:7;
  Alcotest.(check int) "only gid 7's orphan evicted" 1 (Link.orphan_count link);
  Link.evict_gid link ~gid:7;
  Alcotest.(check int) "evicting twice is a no-op" 1 (Link.orphan_count link);
  Link.evict_gid link ~gid:8;
  Alcotest.(check int) "gid 8's orphan evicted" 0 (Link.orphan_count link)

(* Duplicated deliveries ride the wire and the counters but never re-run the
   handler (receiver-side dedup). *)
let test_link_duplication_deduped () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 () in
  Link.set_duplication link 0.99;
  let executed = ref 0 in
  Fiber.spawn eng (fun () ->
      ignore
        (Link.rpc link ~label:"p" (fun () ->
             incr executed;
             ("r", ()))));
  Sim.run eng;
  Alcotest.(check int) "handler once" 1 !executed;
  Alcotest.(check int) "request+reply plus two duplicate copies" 4
    (Link.message_count link)

let test_link_loss_validation () =
  let eng = Sim.create () in
  Alcotest.check_raises "loss = 1 rejected"
    (Invalid_argument "Link.create: loss must be in [0,1)") (fun () ->
      ignore (Link.create eng ~latency:1.0 ~loss:1.0 ()))

(* --- piggyback accounting --- *)

let test_link_count_piggyback () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 () in
  let sent = ref [] in
  Link.set_observer link (function
    | Link.Msg_sent { label; _ } -> sent := label :: !sent
    | _ -> ());
  Link.count_piggyback link ~label:"commit";
  Link.count_piggyback link ~label:"commit";
  Alcotest.(check int) "no physical messages" 0 (Link.message_count link);
  Alcotest.(check (list (pair string int))) "label counted" [ ("commit", 2) ]
    (Link.messages_by_label link);
  Alcotest.(check (list string)) "observer fired per logical message"
    [ "commit"; "commit" ] !sent

let test_link_reset_then_recount () =
  (* Counts are zeroed in place on reset, so labels keep their slots and
     count into them again; labels with a zero count do not reappear. *)
  let eng = Sim.create () in
  let link = Link.create eng ~latency:0.5 () in
  Fiber.spawn eng (fun () -> ignore (Link.rpc link ~label:"ping" (fun () -> ("pong", ()))));
  Sim.run eng;
  Link.reset_counters link;
  Alcotest.(check (list (pair string int))) "no zero-count labels" []
    (Link.messages_by_label link);
  Fiber.spawn eng (fun () -> ignore (Link.rpc link ~label:"ping" (fun () -> ("pong", ()))));
  Sim.run eng;
  Alcotest.(check (list (pair string int))) "recounted from zero"
    [ ("ping", 1); ("pong", 1) ]
    (Link.messages_by_label link)

(* Label slots against a string-keyed reference count. A message is either
   a piggybacked logical message or a one-way send; its label is the
   literal or an equal string built at run time (so not physically equal
   to the literal). After every step: [messages_by_label] equals the
   reference, equal labels have carried the same [Msg_sent] slot and
   distinct labels distinct slots, and a reset zeroes every count while
   later messages keep their label's slot. *)
type label_op = Piggyback of int * bool | Send of int * bool | Reset_counts

let literal_labels = [| "prepare"; "ready"; "commit"; "ack"; "abort"; "shard-decide" |]

let prop_label_slots =
  QCheck2.Test.make ~name:"label slots = reference counts" ~count:200
    QCheck2.Gen.(
      let label = int_range 0 (Array.length literal_labels - 1) in
      list_size (int_range 0 120)
        (frequency
           [
             (6, map2 (fun l fresh -> Piggyback (l, fresh)) label bool);
             (3, map2 (fun l fresh -> Send (l, fresh)) label bool);
             (1, pure Reset_counts);
           ]))
    (fun ops ->
      let eng = Sim.create () in
      let link = Link.create eng ~latency:1.0 () in
      let reference = Icdb_util.Strtbl.create 8 in
      let slot_of = Icdb_util.Strtbl.create 8 in
      let slots_consistent = ref true in
      Link.set_observer link (function
        | Link.Msg_sent { label; slot } -> (
          match Icdb_util.Strtbl.find_opt slot_of label with
          | Some s -> if s <> slot then slots_consistent := false
          | None ->
            if Icdb_util.Strtbl.fold (fun _ s taken -> taken || s = slot) slot_of false
            then slots_consistent := false;
            Icdb_util.Strtbl.replace slot_of label slot)
        | Link.Msg_received _ | Link.Msg_dropped _ -> ());
      let label_of l fresh =
        let lit = literal_labels.(l) in
        if fresh then
          String.concat "" [ String.sub lit 0 1; String.sub lit 1 (String.length lit - 1) ]
        else lit
      in
      let counted label =
        let n = Option.value ~default:0 (Icdb_util.Strtbl.find_opt reference label) in
        Icdb_util.Strtbl.replace reference label (n + 1)
      in
      List.for_all
        (fun op ->
          (match op with
          | Piggyback (l, fresh) ->
            let label = label_of l fresh in
            Link.count_piggyback link ~label;
            counted label
          | Send (l, fresh) ->
            let label = label_of l fresh in
            Fiber.spawn eng (fun () -> Link.send link ~label ignore);
            Sim.run eng;
            counted label
          | Reset_counts ->
            Link.reset_counters link;
            Icdb_util.Strtbl.reset reference);
          let want =
            Icdb_util.Strtbl.fold (fun l n acc -> (l, n) :: acc) reference []
            |> List.sort compare
          in
          !slots_consistent && Link.messages_by_label link = want)
        ops)

(* --- Batcher --- *)

module Batcher = Icdb_net.Batcher

let test_batcher_coalesces_rpcs () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 () in
  let b = Batcher.create eng link ~window:2.0 in
  let occupancies = ref [] in
  Batcher.set_observer b (fun n -> occupancies := n :: !occupancies);
  let order = ref [] and done_at = ref [] in
  for i = 1 to 3 do
    Fiber.spawn eng (fun () ->
        Batcher.rpc b ~label:"commit" (fun () ->
            order := i :: !order;
            "finished");
        done_at := (i, Sim.now eng) :: !done_at)
  done;
  Sim.run eng;
  (* One envelope out, one coalesced ack back. *)
  Alcotest.(check int) "two wire messages" 2 (Link.message_count link);
  Alcotest.(check (list (pair string int)))
    "physical envelope + logical members"
    [ ("batch", 1); ("batch-reply", 1); ("commit", 3); ("finished", 3) ]
    (Link.messages_by_label link);
  Alcotest.(check (list int)) "handlers ran in enqueue order" [ 1; 2; 3 ] (List.rev !order);
  List.iter
    (fun (i, t) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "member %d completes at window + round trip" i)
        4.0 t)
    !done_at;
  Alcotest.(check (list int)) "occupancy observed" [ 3 ] !occupancies;
  Alcotest.(check int) "one envelope" 1 (Batcher.envelope_count b);
  Alcotest.(check int) "three members" 3 (Batcher.member_count b);
  Alcotest.(check (float 1e-9)) "mean occupancy" 3.0 (Batcher.mean_occupancy b)

let test_batcher_windows_split () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 () in
  let b = Batcher.create eng link ~window:2.0 in
  Fiber.spawn eng (fun () -> Batcher.rpc b ~label:"a" (fun () -> "finished"));
  (* Enqueued after the first window closed: its own envelope. *)
  ignore
    (Sim.schedule eng ~delay:5.0 (fun () ->
         Fiber.spawn eng (fun () -> Batcher.rpc b ~label:"b" (fun () -> "finished"))));
  Sim.run eng;
  Alcotest.(check int) "two envelopes" 2 (Batcher.envelope_count b);
  Alcotest.(check int) "four wire messages" 4 (Link.message_count link)

let test_batcher_all_oneway_no_ack () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 () in
  let b = Batcher.create eng link ~window:1.0 in
  let effects = ref 0 in
  for _ = 1 to 3 do
    Fiber.spawn eng (fun () -> Batcher.send b ~label:"abort" (fun () -> incr effects))
  done;
  Sim.run eng;
  Alcotest.(check int) "all effects ran" 3 !effects;
  (* Presumed abort's ack elimination survives: a one-way batch has no reply. *)
  Alcotest.(check int) "one wire message" 1 (Link.message_count link);
  Alcotest.(check (list (pair string int)))
    "no batch-reply"
    [ ("abort", 3); ("batch", 1) ]
    (Link.messages_by_label link)

let test_batcher_mixed_kinds_uses_rpc_envelope () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 () in
  let b = Batcher.create eng link ~window:1.0 in
  let effects = ref 0 in
  Fiber.spawn eng (fun () -> Batcher.rpc b ~label:"commit" (fun () -> "finished"));
  Fiber.spawn eng (fun () -> Batcher.send b ~label:"abort" (fun () -> incr effects));
  Sim.run eng;
  Alcotest.(check int) "one-way member ran" 1 !effects;
  Alcotest.(check (list (pair string int)))
    "rpc envelope, reply only for the rpc member"
    [ ("abort", 1); ("batch", 1); ("batch-reply", 1); ("commit", 1); ("finished", 1) ]
    (Link.messages_by_label link)

exception Handler_boom

let test_batcher_member_failure_isolated () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 () in
  let b = Batcher.create eng link ~window:1.0 in
  let ok = ref false and failed = ref false in
  Fiber.spawn eng (fun () ->
      match Batcher.rpc b ~label:"commit" (fun () -> raise Handler_boom) with
      | () -> ()
      | exception Handler_boom -> failed := true);
  Fiber.spawn eng (fun () ->
      Batcher.rpc b ~label:"commit" (fun () -> "finished");
      ok := true);
  Sim.run eng;
  Alcotest.(check bool) "failing member raises at its call site" true !failed;
  Alcotest.(check bool) "other member unaffected" true !ok;
  (* The raising handler produced no reply, so only one "finished". *)
  Alcotest.(check (list (pair string int)))
    "no reply accounted for the failed member"
    [ ("batch", 1); ("batch-reply", 1); ("commit", 2); ("finished", 1) ]
    (Link.messages_by_label link)

let test_batcher_lossy_members_exactly_once () =
  let eng = Sim.create () in
  let link = Link.create eng ~latency:1.0 ~loss:0.4 ~loss_seed:5L () in
  let b = Batcher.create eng link ~window:1.0 in
  let runs = ref 0 and completed = ref 0 in
  for _ = 1 to 4 do
    Fiber.spawn eng (fun () ->
        Batcher.rpc b ~label:"commit" (fun () ->
            incr runs;
            "finished");
        incr completed)
  done;
  Sim.run eng;
  (* Receiver-side dedup on the envelope keeps members exactly-once even
     though envelope copies were retransmitted. *)
  Alcotest.(check int) "every member completed" 4 !completed;
  Alcotest.(check int) "handlers ran once" 4 !runs

let () =
  Alcotest.run "net"
    [
      ( "link",
        [
          Alcotest.test_case "rpc latency and counts" `Quick test_link_rpc_latency_and_counts;
          Alcotest.test_case "reply labels" `Quick test_link_reply_label_varies;
          Alcotest.test_case "one-way send" `Quick test_link_send_one_way;
          Alcotest.test_case "reset" `Quick test_link_reset;
          Alcotest.test_case "negative latency" `Quick test_link_negative_latency;
          QCheck_alcotest.to_alcotest prop_label_slots;
        ] );
      ( "loss",
        [
          Alcotest.test_case "rpc dedup under loss" `Quick
            test_link_lossy_rpc_exactly_once_effect;
          Alcotest.test_case "send delivered once" `Quick test_link_lossy_send_effect_once;
          Alcotest.test_case "retry cap unreachable" `Quick
            test_link_retry_cap_unreachable;
          Alcotest.test_case "orphan eviction" `Quick test_link_orphan_eviction;
          Alcotest.test_case "orphan eviction per gid" `Quick
            test_link_orphan_eviction_per_gid;
          Alcotest.test_case "duplication deduped" `Quick test_link_duplication_deduped;
          Alcotest.test_case "validation" `Quick test_link_loss_validation;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "piggyback counting" `Quick test_link_count_piggyback;
          Alcotest.test_case "reset then recount" `Quick test_link_reset_then_recount;
          Alcotest.test_case "coalesces rpcs" `Quick test_batcher_coalesces_rpcs;
          Alcotest.test_case "windows split" `Quick test_batcher_windows_split;
          Alcotest.test_case "all one-way, no ack" `Quick test_batcher_all_oneway_no_ack;
          Alcotest.test_case "mixed kinds" `Quick test_batcher_mixed_kinds_uses_rpc_envelope;
          Alcotest.test_case "member failure isolated" `Quick
            test_batcher_member_failure_isolated;
          Alcotest.test_case "exactly-once under loss" `Quick
            test_batcher_lossy_members_exactly_once;
        ] );
      ( "site",
        [
          Alcotest.test_case "basics" `Quick test_site_basics;
          Alcotest.test_case "crash_for / await_up" `Quick test_site_crash_for_and_await_up;
          Alcotest.test_case "overlapping crash_for" `Quick
            test_site_overlapping_crash_for;
          Alcotest.test_case "restart cancels pending" `Quick
            test_site_restart_cancels_pending;
          Alcotest.test_case "await_up immediate" `Quick test_site_await_up_immediate;
          Alcotest.test_case "crash durability" `Quick test_site_crash_preserves_committed;
          Alcotest.test_case "multiple waiters" `Quick test_site_multiple_waiters;
        ] );
    ]
