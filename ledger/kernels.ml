(* Bechamel micro-kernels, one per layer, each calling the layer's public
   functions the way a run does. A kernel gives the inclusive host cost of
   one operation; the run's own counters give the operations per
   transaction; their product over the transaction-phase time per
   transaction is the layer's share.

   The localdb and net kernels run engine events inside them. They report
   how many, so that [sim.share] can count only the events outside them and
   no event is counted in two layers. *)

open Bechamel
open Toolkit
module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Lock = Icdb_lock.Lock_table
module Mode = Icdb_lock.Mode
module Symbol = Icdb_util.Symbol
module Db = Icdb_localdb.Engine
module Log = Icdb_wal.Log
module Link = Icdb_net.Link
module Conflict = Icdb_mlt.Conflict
module Graph = Icdb_core.Serialization_graph
module Rng = Icdb_util.Rng

(* The hold model over fibers: [pending] fibers each sleep an exponential
   delay in a loop, so the queue holds [pending] events and every step
   resumes one fiber (an effect-handler switch) that schedules its next
   wake-up, which is what most of a run's events do. *)
let sim_kernel ~pending =
  let e = Sim.create () in
  let rng = Rng.create 7L in
  for _ = 1 to max 1 pending do
    Fiber.spawn e (fun () ->
        while true do
          Fiber.sleep e (Rng.exponential rng ~mean:10.0)
        done)
  done;
  for _ = 1 to 4 * pending do
    ignore (Sim.step e)
  done;
  Staged.stage (fun () -> ignore (Sim.step e))

(* Uncontended acquire + release on a local lock table. *)
let lock_kernel () =
  let syms = Symbol.create () in
  let t = Lock.create (Sim.create ()) ~syms ~compatible:Mode.compatible ~combine:Mode.combine in
  let objs = Array.init 64 (fun i -> Symbol.intern syms (Printf.sprintf "acct-%03d" i)) in
  let i = ref 0 in
  Staged.stage (fun () ->
      let obj = objs.(!i land 63) in
      incr i;
      ignore (Lock.try_acquire t ~owner:1 ~obj ~mode:Mode.Increment);
      Lock.release t ~owner:1 ~obj)

let db_config = { (Db.default_config ~site_name:"site-0") with op_delay = 1.0; commit_delay = 2.0 }

let accounts n = List.init n (fun i -> (Printf.sprintf "acct-%03d" i, 1000))

(* One local transaction as a commit-before branch runs it: begin, two
   increments, commit (log force included). Returns the kernel and the
   engine events one transaction runs. *)
let localdb_kernel () =
  let e = Sim.create () in
  let db = Db.create e db_config in
  Db.load db (accounts 64);
  let keys = Array.init 64 (Printf.sprintf "acct-%03d") in
  let i = ref 0 in
  let once () =
    let k1 = keys.(!i land 63) and k2 = keys.((!i + 17) land 63) in
    incr i;
    Fiber.spawn e (fun () ->
        let tx = Db.begin_txn db in
        ignore (Db.increment db tx ~key:k1 ~delta:1);
        ignore (Db.increment db tx ~key:k2 ~delta:(-1));
        ignore (Db.commit db tx));
    Sim.run e
  in
  let ev0 = Sim.executed e in
  once ();
  (Staged.stage once, Sim.executed e - ev0)

(* [Db.load] of [rows] rows into a fresh site: the preload's cost per row. *)
let load_kernel ~rows =
  let data = accounts rows in
  Staged.stage (fun () -> Db.load (Db.create (Sim.create ()) db_config) data)

(* Appending one increment record; the log is replaced every 4096 appends
   so the kernel's memory stays bounded. *)
let wal_kernel () =
  let log = ref (Log.create ()) in
  let n = ref 0 in
  let rid = { Icdb_storage.Heap.page = 0; slot = 0 } in
  Staged.stage (fun () ->
      incr n;
      if !n land 4095 = 0 then log := Log.create ();
      ignore (Log.append !log (Op { txn = !n; op = Incr { rid; key = "acct-001"; delta = 1 }; prev = 0 })))

(* One request/reply exchange over a clean link on a bare engine (two
   wire messages), with the events it runs. *)
let net_kernel () =
  let e = Sim.create () in
  let link = Link.create e ~latency:1.0 () in
  let once () =
    Fiber.spawn e (fun () -> Link.rpc link ~label:"prepare" (fun () -> ("ready", ())));
    Sim.run e
  in
  let ev0 = Sim.executed e in
  once ();
  (Staged.stage once, Sim.executed e - ev0)

(* The L1 lock manager's compatibility test on the federation's memoizing
   relation, over the banking classes MLT transfers use. *)
let mlt_kernel () =
  let c = Conflict.memoized Icdb_core.Federation.default_conflict in
  let classes = [| "deposit"; "withdraw"; "read-balance"; "deposit+withdraw" |] in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      ignore (Conflict.compatible c classes.(!i land 3) classes.((!i lsr 2) land 3)))

(* Recording one committed local of two increments in the serialization
   graph; the graph is replaced every 4096 locals. *)
let graph_kernel () =
  let g = ref (Graph.create ()) in
  let n = ref 0 in
  let sites = [| "site-0"; "site-1"; "site-2"; "site-3" |] in
  let keys = Array.init 64 (Printf.sprintf "acct-%03d") in
  Staged.stage (fun () ->
      incr n;
      if !n land 4095 = 0 then g := Graph.create ();
      Graph.record_local !g ~gid:(!n lsr 1) ~site:sites.(!n land 3) ~compensation:false
        [
          Incremented { key = keys.(!n land 63); delta = 1 };
          Incremented { key = keys.((!n + 7) land 63); delta = -1 };
        ])

let estimate_ns ~quota name staged =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:None ~stabilize:false () in
  let raw =
    Spans.within ("kernel." ^ name) (fun () ->
        Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make ~name staged))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ r acc -> match Analyze.OLS.estimates r with Some (t :: _) -> t | _ -> acc)
    results nan

(* Every kernel's ns per operation, and the engine events the localdb and
   net kernels run per operation. [pending] is the workload's mean
   pending-event count. *)
let run ~pending ~quota =
  let ns = estimate_ns ~quota in
  let localdb, localdb_events = localdb_kernel () in
  let net, net_events = net_kernel () in
  let load_rows = 1000 in
  [
    ("sim.ns_per_event", ns "sim" (sim_kernel ~pending));
    ("lock.ns_per_acquire", ns "lock" (lock_kernel ()));
    ("localdb.ns_per_local_txn", ns "localdb" localdb);
    ("localdb.events_per_local_txn", float_of_int localdb_events);
    ("localdb.load_ns_per_row", ns "load" (load_kernel ~rows:load_rows) /. float_of_int load_rows);
    ("wal.ns_per_append", ns "wal" (wal_kernel ()));
    (* an rpc is two wire messages *)
    ("net.ns_per_msg", ns "net" net /. 2.0);
    ("net.events_per_msg", float_of_int net_events /. 2.0);
    ("mlt.ns_per_compatible", ns "mlt" (mlt_kernel ()));
    ("graph.ns_per_local", ns "graph" (graph_kernel ()));
  ]
