(* Tests for the sharded federation: the single-shard fast path, the
   two-level (cross-shard) round, shard-coordinator crash recovery in the
   window between the top-level decision and its local application, and
   the sharded == unsharded equivalence properties. *)

module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Db = Icdb_localdb.Engine
module Site = Icdb_net.Site
module Federation = Icdb_core.Federation
module Central_recovery = Icdb_core.Central_recovery
module Global = Icdb_core.Global
module Program = Icdb_localdb.Program
module Tpc = Icdb_core.Two_phase_commit
module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol
module Sharding = Icdb_workload.Sharding
module Campaign = Icdb_fault.Campaign
module Plan = Icdb_fault.Plan

let outcome_testable = Alcotest.testable Global.pp_outcome ( = )

let site_cfg name =
  {
    (Db.default_config ~site_name:name) with
    capabilities =
      {
        supports_prepare = true;
        supports_increment_locks = true;
        granularity = Db.Record_level;
        cc = Locking { wait_timeout = Some 100.0 };
      };
  }

(* 4 sites in 2 shards: shard 0 = {s0, s1} (coordinator s0), shard 1 =
   {s2, s3} (coordinator s2). *)
let make_sharded ?(shards = 2) ?(n = 4) eng =
  let configs = List.init n (fun i -> site_cfg (Printf.sprintf "s%d" i)) in
  Federation.create ~shards eng configs

let load_accounts fed rows = Federation.preload fed rows

let value fed site key = Db.committed_value (Site.db (Federation.site fed site)) key

let in_sim eng f =
  let result = ref None in
  let failure = ref None in
  Fiber.spawn eng ~on_error:(fun e -> failure := Some e) (fun () -> result := Some (f ()));
  Sim.run eng;
  match !failure with
  | Some e -> raise e
  | None -> Option.get !result

let spec fed sites =
  {
    Global.gid = Federation.fresh_gid fed;
    branches =
      List.map
        (fun (site, delta) ->
          Global.branch ~vote_commit:true ~site [ Program.Increment ("x", delta) ])
        sites;
  }

(* --- fast path ----------------------------------------------------------- *)

let test_fast_path_no_top_level () =
  (* Both branches in shard 0: the whole round must stay at the shard
     coordinator — nothing in the central decision log, no central force,
     exactly one shard decision. *)
  let eng = Sim.create () in
  let fed = make_sharded eng in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Tpc.run fed (spec fed [ ("s0", 5); ("s1", -5) ])) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check (option int)) "s0 credited" (Some 105) (value fed "s0" "x");
  Alcotest.(check (option int)) "s1 debited" (Some 95) (value fed "s1" "x");
  Alcotest.(check int) "central decision log untouched" 0
    (Icdb_util.Gid_store.Bool.length fed.Federation.central.decision_log);
  Alcotest.(check int) "no central log force" 0 (Federation.log_forces fed fed.central);
  Alcotest.(check int) "one shard decision" 1
    (Array.fold_left (fun n (c : Federation.coordinator) -> n + c.decisions) 0
       fed.shards);
  Alcotest.(check int) "journal drained" 0 (Federation.total_journal_entries fed)

let test_cross_shard_top_level () =
  (* Branches in both shards: the decision is made (and forced) at the top
     level, then pushed to both shard coordinators. *)
  let eng = Sim.create () in
  let fed = make_sharded eng in
  load_accounts fed [ ("x", 100) ];
  let outcome = in_sim eng (fun () -> Tpc.run fed (spec fed [ ("s0", 5); ("s2", -5) ])) in
  Alcotest.check outcome_testable "committed" Global.Committed outcome;
  Alcotest.(check int) "central decision logged" 1
    (Icdb_util.Gid_store.Bool.length fed.Federation.central.decision_log);
  Alcotest.(check bool) "central force taken" true
    (Federation.log_forces fed fed.central >= 1);
  Alcotest.(check int) "journal drained" 0 (Federation.total_journal_entries fed)

(* --- shard-coordinator crash in the decision window ---------------------- *)

(* A cross-shard transaction prepared at s0 (shard 0) and s2 (shard 1),
   with the top-level decision stably logged but not yet applied anywhere:
   the exact state a shard coordinator that crashed between the top-level
   decide and its ack recovers from. *)
let prepared_cross_shard fed =
  let gid = Federation.fresh_gid fed in
  Federation.journal_open_routed fed ~sites:[ "s0"; "s2" ] ~gid ~protocol:"2pc";
  let prep site_name delta =
    let db = Site.db (Federation.site fed site_name) in
    let txn = Db.begin_txn db in
    Result.get_ok (Db.increment db txn ~key:"x" ~delta);
    Result.get_ok (Db.prepare db txn);
    Federation.journal_branch fed ~gid ~site:site_name ~txn_id:(Db.txn_id txn);
    txn
  in
  let t0 = prep "s0" 5 in
  let t2 = prep "s2" (-5) in
  Icdb_util.Gid_store.Bool.replace fed.Federation.central.decision_log gid true;
  (gid, t0, t2)

let test_shard_crash_decision_window () =
  let eng = Sim.create () in
  let fed = make_sharded eng in
  load_accounts fed [ ("x", 100) ];
  in_sim eng (fun () ->
      let _gid, t0, t2 = prepared_cross_shard fed in
      Federation.crash fed.Federation.shards.(0);
      let s = Central_recovery.recover_shard fed ~shard:0 in
      Alcotest.(check int) "one mirror recovered" 1 s.entries_recovered;
      Alcotest.(check int) "decision pushed to s0" 1 s.decisions_pushed;
      (* shard 0's recovery resolves only its own slice: s0's branch is
         committed, s2's is still prepared *)
      Alcotest.(check bool) "s0 committed" true (Db.state t0 = `Committed);
      Alcotest.(check bool) "s2 still prepared" true (Db.state t2 = `Prepared);
      Alcotest.(check (option int)) "s0 credited" (Some 105) (value fed "s0" "x");
      let s1 = Central_recovery.recover_shard fed ~shard:1 in
      Alcotest.(check int) "shard 1 pushes its slice" 1 s1.decisions_pushed;
      Alcotest.(check bool) "s2 committed" true (Db.state t2 = `Committed);
      Alcotest.(check (option int)) "s2 debited" (Some 95) (value fed "s2" "x");
      (* the top-level entry is the top-level coordinator's to close *)
      ignore (Central_recovery.recover fed);
      Alcotest.(check int) "journal drained" 0 (Federation.total_journal_entries fed))

let test_fast_path_presumed_abort () =
  (* A single-shard entry still Executing with no decision anywhere: shard
     recovery presumes abort, exactly as whole-federation recovery would. *)
  let eng = Sim.create () in
  let fed = make_sharded eng in
  load_accounts fed [ ("x", 100) ];
  in_sim eng (fun () ->
      let gid = Federation.fresh_gid fed in
      Federation.journal_open_routed fed ~sites:[ "s0"; "s1" ] ~gid ~protocol:"2pc";
      let prep site_name delta =
        let db = Site.db (Federation.site fed site_name) in
        let txn = Db.begin_txn db in
        Result.get_ok (Db.increment db txn ~key:"x" ~delta);
        Result.get_ok (Db.prepare db txn);
        Federation.journal_branch fed ~gid ~site:site_name ~txn_id:(Db.txn_id txn)
      in
      prep "s0" 5;
      prep "s1" (-5);
      Federation.crash fed.Federation.shards.(0);
      let s = Central_recovery.recover_shard fed ~shard:0 in
      Alcotest.(check int) "entry recovered" 1 s.entries_recovered;
      Alcotest.(check (option int)) "s0 rolled back" (Some 100) (value fed "s0" "x");
      Alcotest.(check (option int)) "s1 rolled back" (Some 100) (value fed "s1" "x");
      Alcotest.(check int) "journal drained" 0 (Federation.total_journal_entries fed))

let test_recover_shard_idempotent () =
  (* Double restarts: a second (and third) recovery pass over the same
     shard finds nothing left and changes nothing. *)
  let eng = Sim.create () in
  let fed = make_sharded eng in
  load_accounts fed [ ("x", 100) ];
  in_sim eng (fun () ->
      ignore (prepared_cross_shard fed);
      Federation.crash fed.Federation.shards.(0);
      ignore (Central_recovery.recover_shard fed ~shard:0);
      let again = Central_recovery.recover_shard fed ~shard:0 in
      Alcotest.(check int) "second pass finds nothing" 0 again.entries_recovered;
      Alcotest.(check (option int)) "s0 stable" (Some 105) (value fed "s0" "x");
      ignore (Central_recovery.recover_shard fed ~shard:1);
      let again1 = Central_recovery.recover_shard fed ~shard:1 in
      Alcotest.(check int) "shard 1 second pass finds nothing" 0 again1.entries_recovered;
      (* full recovery after per-shard recovery is also a fixpoint *)
      ignore (Central_recovery.recover fed);
      let full = Central_recovery.recover fed in
      Alcotest.(check int) "full recovery fixpoint" 0 full.entries_recovered;
      Alcotest.(check (option int)) "s0 still stable" (Some 105) (value fed "s0" "x");
      Alcotest.(check (option int)) "s2 still stable" (Some 95) (value fed "s2" "x"))

let test_recover_shard_out_of_range () =
  let eng = Sim.create () in
  let fed = make_sharded eng in
  Alcotest.check_raises "out of range" (Invalid_argument "Central_recovery.recover_shard")
    (fun () -> ignore (Central_recovery.recover_shard fed ~shard:7))

(* --- one resolve against the previous three derivations ------------------- *)

(* Before the coordinator record, recovery derived an in-doubt decision in
   three places: whole-federation [recover], per-shard [recover_shard] and
   the Paxos leader's [takeover]. Those rules, with the effects each had on
   journals, decision logs and prepared branches, are kept here as the
   oracle for the single derivation and [resolve]. Journal and log index 0
   is the central system, index [s + 1] shard [s]. *)
module Oracle = struct
  type t = {
    route : (int, int array) Hashtbl.t;
    journals : (int, Federation.journal_phase * (string * int) list) Hashtbl.t array;
    logs : (int, bool) Hashtbl.t array;
    quorum : (int, bool) Hashtbl.t;
    resolved : (string * int, bool) Hashtbl.t;  (* (site, txn id) -> decision *)
    members : string list array;  (* per shard *)
  }

  let decision m gid =
    Array.fold_left
      (fun d log -> if Option.is_some d then d else Hashtbl.find_opt log gid)
      None m.logs

  let logged m gid =
    match decision m gid with Some d -> Some d | None -> Hashtbl.find_opt m.quorum gid

  let push m branches d ~site_ok =
    List.iter
      (fun ((site, _) as b) ->
        if site_ok site && not (Hashtbl.mem m.resolved b) then
          Hashtbl.replace m.resolved b d)
      branches

  let close m gid =
    (match Hashtbl.find_opt m.route gid with
    | None -> Hashtbl.remove m.journals.(0) gid
    | Some [| s |] -> Hashtbl.remove m.journals.(s + 1) gid
    | Some multi ->
      Hashtbl.remove m.journals.(0) gid;
      Array.iter (fun s -> Hashtbl.remove m.journals.(s + 1) gid) multi);
    Hashtbl.remove m.route gid

  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

  let recover m =
    (* shard journals first, so the top entry wins for a cross-shard gid *)
    let merged = Hashtbl.create 8 in
    Array.iteri
      (fun i j -> if i > 0 then Hashtbl.iter (Hashtbl.replace merged) j)
      m.journals;
    Hashtbl.iter (Hashtbl.replace merged) m.journals.(0);
    let entries = sorted merged in
    List.iter
      (fun (gid, (phase, branches)) ->
        let d =
          match phase with
          | Federation.Decided d -> d
          | Federation.Executing -> Option.value ~default:false (logged m gid)
        in
        push m branches d ~site_ok:(fun _ -> true);
        close m gid)
      entries;
    List.length entries

  let recover_shard m s =
    let count = ref 0 in
    List.iter
      (fun (gid, (phase, branches)) ->
        let local =
          match Hashtbl.find_opt m.route gid with Some [| _ |] -> true | _ -> false
        in
        let decision =
          match phase with
          | Federation.Decided d -> Some d
          | Federation.Executing ->
            if local then Some (Option.value ~default:false (logged m gid))
            else logged m gid
        in
        match decision with
        | None -> ()
        | Some d ->
          incr count;
          push m branches d ~site_ok:(fun site -> local || List.mem site m.members.(s));
          Hashtbl.replace m.logs.(s + 1) gid d;
          if local then close m gid else Hashtbl.remove m.journals.(s + 1) gid)
      (sorted m.journals.(s + 1));
    !count

  let takeover m gid =
    let journal =
      match Hashtbl.find_opt m.route gid with
      | Some [| s |] -> m.journals.(s + 1)
      | Some _ | None -> m.journals.(0)
    in
    match Hashtbl.find_opt journal gid with
    | None -> false
    | Some (phase, branches) ->
      let d =
        match phase with
        | Federation.Decided d -> d
        | Federation.Executing -> Option.value ~default:false (logged m gid)
      in
      push m branches d ~site_ok:(fun _ -> true);
      Hashtbl.replace m.logs.(0) gid d;
      close m gid;
      true
end

type kind = Fast of int | Cross | Unrouted
type where_logged = Nowhere | Top of bool | At_shard of int * bool

type gid_case = {
  kind : kind;
  top : Federation.journal_phase;  (* the owner's entry *)
  mirror_phases : Federation.journal_phase * Federation.journal_phase;
  logged : where_logged;
  quorum : bool option;
}

type op = Recover | Recover_shard of int | Takeover of int

let prop_resolve_matches_oracle =
  let open QCheck2 in
  let phase =
    Gen.oneofl [ Federation.Executing; Federation.Decided true; Federation.Decided false ]
  in
  let case =
    Gen.(
      let* kind = oneofl [ Fast 0; Fast 1; Cross; Unrouted ] in
      let* top = phase in
      let* m0 = phase in
      let* m1 = phase in
      let* logged =
        oneof
          [
            return Nowhere;
            map (fun b -> Top b) bool;
            map2 (fun s b -> At_shard (s, b)) (0 -- 1) bool;
          ]
      in
      let* quorum = opt bool in
      return { kind; top; mirror_phases = (m0, m1); logged; quorum })
  in
  let gen =
    Gen.(
      let* cases = list_size (1 -- 6) case in
      let n = List.length cases in
      let* ops =
        list_size (1 -- 6)
          (frequency
             [
               (1, return Recover);
               (2, map (fun s -> Recover_shard s) (0 -- 1));
               (2, map (fun g -> Takeover g) (1 -- n));
             ])
      in
      return (cases, ops))
  in
  let print (cases, ops) =
    let ph = function
      | Federation.Executing -> "exec"
      | Federation.Decided b -> Printf.sprintf "decided %b" b
    in
    let kind = function
      | Fast s -> Printf.sprintf "fast %d" s
      | Cross -> "cross"
      | Unrouted -> "unrouted"
    in
    let logged = function
      | Nowhere -> "nowhere"
      | Top b -> Printf.sprintf "top %b" b
      | At_shard (s, b) -> Printf.sprintf "shard %d %b" s b
    in
    let op = function
      | Recover -> "recover"
      | Recover_shard s -> Printf.sprintf "recover_shard %d" s
      | Takeover g -> Printf.sprintf "takeover %d" g
    in
    String.concat "; "
      (List.mapi
         (fun i c ->
           Printf.sprintf "g%d: %s, %s, mirrors %s/%s, logged %s, quorum %s" (i + 1)
             (kind c.kind) (ph c.top)
             (ph (fst c.mirror_phases))
             (ph (snd c.mirror_phases))
             (logged c.logged)
             (match c.quorum with None -> "none" | Some b -> string_of_bool b))
         cases)
    ^ " | " ^ String.concat ", " (List.map op ops)
  in
  QCheck2.Test.make ~name:"one resolve matches the three previous derivations" ~count:300
    ~print gen (fun (cases, ops) ->
      let eng = Sim.create () in
      let fed = make_sharded eng in
      let n = List.length cases in
      load_accounts fed (List.init n (fun i -> ("k" ^ string_of_int (i + 1), 100)));
      let m =
        {
          Oracle.route = Hashtbl.create 8;
          journals = Array.init 3 (fun _ -> Hashtbl.create 8);
          logs = Array.init 3 (fun _ -> Hashtbl.create 8);
          quorum = Hashtbl.create 8;
          resolved = Hashtbl.create 8;
          members = [| [ "s0"; "s1" ]; [ "s2"; "s3" ] |];
        }
      in
      let branches = ref [] in
      (* local work takes virtual time: build the state inside a fiber *)
      in_sim eng (fun () ->
        List.iteri
          (fun i c ->
            let gid = Federation.fresh_gid fed in
            assert (gid = i + 1);
            let sites =
              match c.kind with
              | Fast 0 -> [ "s0"; "s1" ]
              | Fast _ -> [ "s2"; "s3" ]
              | Cross -> [ "s0"; "s2" ]
              | Unrouted -> []
            in
            Federation.journal_open_routed fed ~sites ~gid ~protocol:"2pc";
            let prep site =
              let db = Site.db (Federation.site fed site) in
              let txn = Db.begin_txn db in
              Result.get_ok (Db.increment db txn ~key:("k" ^ string_of_int gid) ~delta:1);
              Result.get_ok (Db.prepare db txn);
              Federation.journal_branch fed ~gid ~site ~txn_id:(Db.txn_id txn);
              branches := ((site, Db.txn_id txn), txn) :: !branches;
              (site, Db.txn_id txn)
            in
            let set (journal : (int, Federation.journal_entry) Hashtbl.t) phase =
              Option.iter
                (fun (e : Federation.journal_entry) -> e.j_phase <- phase)
                (Hashtbl.find_opt journal gid)
            in
            (match c.kind with
            | Fast s ->
              let b = prep (if s = 0 then "s0" else "s2") in
              set fed.shards.(s).journal c.top;
              Hashtbl.replace m.route gid [| s |];
              Hashtbl.replace m.journals.(s + 1) gid (c.top, [ b ])
            | Cross ->
              let b0 = prep "s0" in
              let b2 = prep "s2" in
              let p0, p1 = c.mirror_phases in
              set fed.central.journal c.top;
              set fed.shards.(0).journal p0;
              set fed.shards.(1).journal p1;
              Hashtbl.replace m.route gid [| 0; 1 |];
              Hashtbl.replace m.journals.(0) gid (c.top, [ b0; b2 ]);
              Hashtbl.replace m.journals.(1) gid (p0, [ b0 ]);
              Hashtbl.replace m.journals.(2) gid (p1, [ b2 ])
            | Unrouted ->
              let b = prep "s1" in
              set fed.central.journal c.top;
              Hashtbl.replace m.journals.(0) gid (c.top, [ b ]));
            (match c.logged with
            | Nowhere -> ()
            | Top d ->
              Icdb_util.Gid_store.Bool.replace fed.central.decision_log gid d;
              Hashtbl.replace m.logs.(0) gid d
            | At_shard (s, d) ->
              Icdb_util.Gid_store.Bool.replace fed.shards.(s).decision_log gid d;
              Hashtbl.replace m.logs.(s + 1) gid d);
            Option.iter (Hashtbl.replace m.quorum gid) c.quorum)
          cases);
      fed.decision_recover <- Some (fun ~gid -> Hashtbl.find_opt m.quorum gid);
      let journals =
        fed.central :: Array.to_list fed.shards
        |> List.map (fun (c : Federation.coordinator) -> c.journal)
      in
      let open_entries () =
        List.map
          (fun j -> Hashtbl.fold (fun gid _ acc -> gid :: acc) j [] |> List.sort compare)
          journals
      in
      let model_entries () =
        Array.to_list m.journals |> List.map (fun j -> List.map fst (Oracle.sorted j))
      in
      let state_of txn =
        match Db.state txn with
        | `Committed -> Some true
        | `Aborted _ -> Some false
        | `Prepared | `Running -> None
      in
      in_sim eng (fun () ->
          List.iteri
            (fun step op ->
              let got, want =
                match op with
                | Recover ->
                  ((Central_recovery.recover fed).entries_recovered, Oracle.recover m)
                | Recover_shard s ->
                  ( (Central_recovery.recover_shard fed ~shard:s).entries_recovered,
                    Oracle.recover_shard m s )
                | Takeover gid ->
                  ( Bool.to_int (Central_recovery.takeover fed ~gid),
                    Bool.to_int (Oracle.takeover m gid) )
              in
              if got <> want then
                Test.fail_reportf "step %d: %d entries resolved, oracle %d" step got want;
              if open_entries () <> model_entries () then
                Test.fail_reportf "step %d: open journal entries differ" step;
              for gid = 1 to n do
                if Federation.decision fed ~gid <> Oracle.decision m gid then
                  Test.fail_reportf "step %d: decision of g%d differs" step gid
              done;
              List.iter
                (fun (b, txn) ->
                  if state_of txn <> Hashtbl.find_opt m.resolved b then
                    Test.fail_reportf "step %d: branch %s/%d resolved differently" step
                      (fst b) (snd b))
                !branches)
            ops);
      true)

(* --- shards=1 is the unsharded runner ------------------------------------ *)

let test_shards1_report_equals_unsharded () =
  (* With [shards = 1] the sharding knobs must be inert: the report is
     structurally identical to the plain config's, whatever the cross-shard
     fraction says. *)
  let base = { Runner.default with n_txns = 60; concurrency = 8 } in
  let r_plain = Runner.run base in
  let r_sharded = Runner.run { base with shards = 1; cross_shard_fraction = 0.7 } in
  Alcotest.(check bool) "reports equal" true (r_plain = r_sharded);
  Alcotest.(check int) "no shard decisions" 0 r_sharded.Runner.shard_decisions;
  Alcotest.(check int) "no shard forces" 0 r_sharded.Runner.shard_log_forces

let test_sharded_run_fast_path_only_at_zero_cross () =
  (* cross fraction 0: every transaction is single-shard, so the central
     decision log must never be forced and every decision is a shard one. *)
  let r =
    Runner.run
      {
        Runner.default with
        n_txns = 80;
        concurrency = 8;
        n_sites = 4;
        shards = 2;
        cross_shard_fraction = 0.0;
        decision_force_time = Some 2.0;
      }
  in
  Alcotest.(check bool) "money conserved" true r.Runner.money_conserved;
  Alcotest.(check bool) "serializable" true r.Runner.serializable;
  Alcotest.(check int) "no top-level forces" 0 r.Runner.central_log_forces;
  Alcotest.(check int) "every commit decided at its shard" r.Runner.committed
    r.Runner.shard_decisions

(* --- sharded == unsharded equivalence (QCheck2) -------------------------- *)

(* Over random topologies, shard counts, cross fractions and protocols: a
   sharded run satisfies exactly the invariants the unsharded run of the
   same workload shape satisfies — money conservation, serializability,
   full transaction accounting — and with [shards = 1] the two are one and
   the same run. *)
let prop_sharded_equals_unsharded =
  let open QCheck2 in
  let gen =
    Gen.(
      let* n_sites = 2 -- 6 in
      let* shards = 1 -- n_sites in
      let* cross = oneofl [ 0.0; 0.05; 0.3; 1.0 ] in
      let* protocol = oneofl Protocol.all in
      let* seed = 1 -- 1000 in
      return (n_sites, shards, cross, protocol, seed))
  in
  let print (n_sites, shards, cross, protocol, seed) =
    Printf.sprintf "sites=%d shards=%d cross=%.2f protocol=%s seed=%d" n_sites shards
      cross (Protocol.name protocol) seed
  in
  QCheck2.Test.make ~name:"sharded run keeps the unsharded invariants" ~count:30 ~print
    gen (fun (n_sites, shards, cross, protocol, seed) ->
      let cfg ~shards ~cross =
        {
          Runner.default with
          protocol;
          seed = Int64.of_int seed;
          n_sites;
          n_txns = 30;
          concurrency = 6;
          accounts_per_site = 12;
          use_increments = true;
          shards;
          cross_shard_fraction = cross;
        }
      in
      let sharded = Runner.run (cfg ~shards ~cross) in
      let unsharded = Runner.run (cfg ~shards:1 ~cross:0.0) in
      let ok (r : Runner.report) label =
        if not r.Runner.money_conserved then
          QCheck2.Test.fail_reportf "%s: money not conserved (%d -> %d)" label
            r.Runner.money_before r.Runner.money_after;
        if not r.Runner.serializable then
          QCheck2.Test.fail_reportf "%s: not serializable" label;
        if r.Runner.committed + r.Runner.aborted <> r.Runner.started then
          QCheck2.Test.fail_reportf "%s: accounting %d+%d <> %d" label
            r.Runner.committed r.Runner.aborted r.Runner.started
      in
      ok sharded "sharded";
      ok unsharded "unsharded";
      (* shards=1 must literally be the unsharded run *)
      if shards = 1 && sharded <> unsharded then
        QCheck2.Test.fail_reportf "shards=1 diverged from the unsharded run";
      true)

(* --- sharded chaos campaign ---------------------------------------------- *)

let test_sharded_chaos_campaign () =
  (* >= 100 plans x all six protocols on a 2-shard federation, shard
     crashes in the event mix: zero invariant violations. *)
  let stats = Campaign.run_campaign ~plans:100 ~shards:2 Protocol.all in
  Alcotest.(check int) "six protocols" 6 (List.length stats);
  List.iter
    (fun (s : Campaign.protocol_stats) ->
      Alcotest.(check int) "plans" 100 s.cp_plans;
      Alcotest.(check bool)
        ("shard-crash events drawn for " ^ Protocol.name s.cp_protocol)
        true
        (match List.assoc_opt "shard-crash" s.cp_by_class with
        | Some n -> n > 0
        | None -> false))
    stats;
  Alcotest.(check int) "zero violations" 0 (Campaign.total_violations stats)

let test_sharded_plan_generator_extends_classes () =
  (* The sharded generator draws shard crashes; the default one never does,
     and reproduces historical plans byte for byte. *)
  let sharded =
    List.init 200 (fun i ->
        Plan.generate ~shards:4 ~seed:(Int64.of_int i) ~n_sites:4 ~n_txns:30
          ~horizon:300.0 ())
  in
  let has_shard_crash p =
    List.exists (fun e -> Plan.classify e = "shard-crash") p.Plan.events
  in
  Alcotest.(check bool) "some plans carry shard crashes" true
    (List.exists has_shard_crash sharded);
  let unsharded =
    List.init 200 (fun i ->
        Plan.generate ~seed:(Int64.of_int i) ~n_sites:4 ~n_txns:30 ~horizon:300.0 ())
  in
  Alcotest.(check bool) "default generator never draws them" false
    (List.exists has_shard_crash unsharded)

(* --- S2 lab -------------------------------------------------------------- *)

let test_s2_smoke_monotone () =
  let rows = Sharding.run_cells ~smoke:true () in
  let at shards cross =
    List.find
      (fun (r : Sharding.row) -> r.sh_shards = shards && r.sh_cross = cross)
      rows
  in
  (* the acceptance ladder: strictly increasing 1 -> 4 shards at <= 5% *)
  List.iter
    (fun cross ->
      Alcotest.(check bool)
        (Printf.sprintf "throughput increases at cross %.2f" cross)
        true
        ((at 1 cross).sh_throughput < (at 2 cross).sh_throughput
        && (at 2 cross).sh_throughput < (at 4 cross).sh_throughput))
    [ 0.0; 0.05 ];
  (* the fast path made visible: no top-level force at 0% cross *)
  Alcotest.(check int) "no top forces at 2 shards, 0% cross" 0 (at 2 0.0).sh_top_forces;
  Alcotest.(check int) "no top forces at 4 shards, 0% cross" 0 (at 4 0.0).sh_top_forces;
  Alcotest.(check bool) "unsharded pays every force at the top" true
    ((at 1 0.0).sh_top_forces > 0 && (at 1 0.0).sh_shard_forces = 0)

let () =
  Alcotest.run "icdb sharding"
    [
      ( "fast-path",
        [
          Alcotest.test_case "single-shard round is local" `Quick
            test_fast_path_no_top_level;
          Alcotest.test_case "cross-shard round is top-level" `Quick
            test_cross_shard_top_level;
          Alcotest.test_case "runner at 0% cross never forces the top" `Quick
            test_sharded_run_fast_path_only_at_zero_cross;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash between decide and ack" `Quick
            test_shard_crash_decision_window;
          Alcotest.test_case "presumed abort on the fast path" `Quick
            test_fast_path_presumed_abort;
          Alcotest.test_case "double recovery idempotent" `Quick
            test_recover_shard_idempotent;
          Alcotest.test_case "shard index validated" `Quick
            test_recover_shard_out_of_range;
          QCheck_alcotest.to_alcotest prop_resolve_matches_oracle;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "shards=1 report equals unsharded" `Quick
            test_shards1_report_equals_unsharded;
          QCheck_alcotest.to_alcotest prop_sharded_equals_unsharded;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan generator gains shard crashes" `Quick
            test_sharded_plan_generator_extends_classes;
          Alcotest.test_case "100 plans x 6 protocols, 2 shards" `Slow
            test_sharded_chaos_campaign;
        ] );
      ("s2", [ Alcotest.test_case "smoke grid monotone" `Quick test_s2_smoke_monotone ]);
    ]
