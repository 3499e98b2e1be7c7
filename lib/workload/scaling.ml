(* S1 — million-account scaling lab.

   Where the F/V/A experiments reproduce the paper's figures at the paper's
   scale, S1 asks how far the same federation carries: each cell preloads
   accounts_per_site × sites accounts (up to ~10⁶ across 32 sites), runs a
   fixed transaction mix under every protocol and reports virtual-time
   committed-txns/sec next to the wall-clock engine events/sec the run
   sustained. Virtual-time throughput is deterministic (a pure function of
   the seed, like every other lab); the wall-clock columns are measured on
   the host and vary — they are the point of the lab, not a regression
   surface, which is why S1 lives outside [Experiments.run_all] and the
   byte-identity pins. *)

module Sim = Icdb_sim.Engine
module Table = Icdb_util.Table
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Sink = Icdb_obs.Sink
module Sampling = Icdb_obs.Sampling

type cell = { sc_sites : int; sc_accounts_per_site : int }

(* Streamed, sampled tracing for the lab: each cell writes an incremental
   Chrome trace to [ts_base]-<protocol>-<sites>x<accounts>.json, keeping
   the head-sampled fraction [ts_rate] of transactions (deterministic in
   the run seed — see {!Icdb_obs.Sampling}). The tracer stores nothing in
   memory ([set_store false]); the sink formats straight to the channel,
   which is what lets the million-account cells trace at all. *)
type trace_spec = { ts_rate : float; ts_base : string }

let cells ~smoke =
  if smoke then
    [
      { sc_sites = 2; sc_accounts_per_site = 500 };
      { sc_sites = 4; sc_accounts_per_site = 2_500 };
    ]
  else
    [
      { sc_sites = 4; sc_accounts_per_site = 2_500 };
      { sc_sites = 8; sc_accounts_per_site = 12_500 };
      { sc_sites = 16; sc_accounts_per_site = 31_250 };
      { sc_sites = 32; sc_accounts_per_site = 31_250 };
    ]

let config protocol (c : cell) =
  {
    Runner.default with
    protocol;
    n_sites = c.sc_sites;
    accounts_per_site = c.sc_accounts_per_site;
    n_txns = 150;
    concurrency = 16;
    branches_per_txn = 2;
    ops_per_branch = 2;
    zipf_theta = 0.8;
    use_increments = true;
  }

type row = {
  r_protocol : Protocol.t;
  r_sites : int;
  r_accounts : int; (* total across sites *)
  r_committed : int;
  r_throughput : float; (* committed per 1000 virtual time units *)
  r_load_wall : float; (* host seconds spent building + preloading *)
  r_wall : float; (* host seconds spent in the transaction phase *)
  r_events : int; (* engine events executed *)
  r_events_per_sec : float;
}

let run_cell ?trace protocol (c : cell) =
  let registry = Registry.create () in
  let cfg = config protocol c in
  (* Sink-only streaming tracer: events go straight to the per-cell file,
     nothing accumulates in memory, and the sampler keeps only a seeded
     head-sample of transactions. *)
  let stream =
    Option.map
      (fun ts ->
        let path =
          Printf.sprintf "%s-%s-%dx%d.json" ts.ts_base
            (Protocol.obs_name protocol) c.sc_sites c.sc_accounts_per_site
        in
        let oc = open_out path in
        let sink = Sink.create ~write:(output_string oc) in
        let tracer = Tracer.create ~enabled:true ~clock:(fun () -> 0.0) () in
        Tracer.set_store tracer false;
        Tracer.set_sink tracer (Some (Sink.on_event sink));
        if ts.ts_rate < 1.0 then
          Tracer.set_sampler tracer
            (Some (Sampling.kind_filter ~seed:cfg.Runner.seed ~rate:ts.ts_rate));
        (path, oc, sink, tracer))
      trace
  in
  let tracer = Option.map (fun (_, _, _, tr) -> tr) stream in
  let wall0 = Sys.time () in
  let loaded_at = ref wall0 in
  (* [on_setup] fires once the federation is built and preloaded, splitting
     the bulk load from the transaction phase the events/s column rates. *)
  let on_setup _engine _fed = loaded_at := Sys.time () in
  let report = Runner.run ~registry ?tracer ~on_setup cfg in
  let wall1 = Sys.time () in
  let trace_out =
    Option.map
      (fun (path, oc, sink, _) ->
        Sink.close sink;
        close_out oc;
        (path, Sink.event_count sink, Sink.byte_count sink))
      stream
  in
  let events = Registry.count (Registry.counter registry "icdb_sim_events_total") in
  let run_wall = wall1 -. !loaded_at in
  ( {
      r_protocol = protocol;
      r_sites = c.sc_sites;
      r_accounts = c.sc_sites * c.sc_accounts_per_site;
      r_committed = report.Runner.committed;
      r_throughput = report.Runner.throughput;
      r_load_wall = !loaded_at -. wall0;
      r_wall = run_wall;
      r_events = events;
      r_events_per_sec = (if run_wall > 0.0 then float_of_int events /. run_wall else 0.0);
    },
    trace_out )

let run_s1 ?(smoke = false) ?trace () =
  let cells = cells ~smoke in
  let tracing = trace <> None in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "S1 — scaling lab: %d txns/run, accounts x sites per protocol%s"
           (config Protocol.Two_phase (List.hd cells)).Runner.n_txns
           (if smoke then " (smoke)" else ""))
      ([
         "protocol";
         "sites";
         "accounts";
         "committed";
         "txn/1000tu";
         "load s";
         "run s";
         "events";
         "events/s";
       ]
      @ (if tracing then [ "trace ev"; "trace KB" ] else []))
  in
  let trace_files = ref [] in
  List.iteri
    (fun i protocol ->
      if i > 0 then Table.add_separator table;
      List.iter
        (fun cell ->
          let r, trace_out = run_cell ?trace protocol cell in
          let trace_cols =
            match trace_out with
            | None -> []
            | Some (path, ev, bytes) ->
              trace_files := path :: !trace_files;
              [ Table.fmt_int ev; Table.fmt_float ~decimals:1 (float_of_int bytes /. 1024.0) ]
          in
          Table.add_row table
            ([
               Protocol.name r.r_protocol;
               Table.fmt_int r.r_sites;
               Table.fmt_int r.r_accounts;
               Table.fmt_int r.r_committed;
               Table.fmt_float ~decimals:2 r.r_throughput;
               Table.fmt_float ~decimals:2 r.r_load_wall;
               Table.fmt_float ~decimals:2 r.r_wall;
               Table.fmt_int r.r_events;
               Table.fmt_float ~decimals:0 r.r_events_per_sec;
             ]
            @ trace_cols))
        cells)
    Protocol.all;
  let trace_note =
    match trace with
    | None -> ""
    | Some ts ->
      Printf.sprintf
        "Streaming Chrome traces (sample rate %.3f, seeded per-transaction head\n\
         sampling) written to %d file(s): %s-<protocol>-<sites>x<accounts>.json.\n\n"
        ts.ts_rate
        (List.length !trace_files)
        ts.ts_base
  in
  "Committed-transaction and engine-event rates as the federation grows from\n\
   thousands to a million preloaded accounts. The txn/1000tu column is\n\
   virtual-time throughput (deterministic, seed 42); load s (bulk preload),\n\
   run s (transaction phase) and events/s are host measurements and vary run\n\
   to run.\n\n" ^ trace_note
  ^ Table.render table
