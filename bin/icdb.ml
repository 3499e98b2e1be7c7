(* icdb — command-line interface to the integrated-commitment testbed.

   Subcommands:
   - [exp <id>|all]   regenerate one (or every) paper experiment
   - [list]           list experiment ids
   - [run ...]        run a parameterized workload and print the report
   - [trace <proto>]  run one transfer under a protocol and dump the trace *)

open Cmdliner
module Runner = Icdb_workload.Runner
module Protocol = Icdb_workload.Protocol
module Experiments = Icdb_workload.Experiments
module Plan = Icdb_fault.Plan
module Campaign = Icdb_fault.Campaign
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Export = Icdb_obs.Export
module Sink = Icdb_obs.Sink
module Sampling = Icdb_obs.Sampling
module Scaling = Icdb_workload.Scaling
module Sharding = Icdb_workload.Sharding

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let protocol_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Protocol.of_string s) in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Protocol.name p))

(* Experiments living outside Icdb_workload.Experiments (the fault campaign
   needs Icdb_fault, which depends on the workload library). *)
let extra_experiments =
  [
    ("r1", "fault-injection campaign: violations per protocol and fault class");
    ("s1", "scaling lab: committed-txns/sec and events/sec vs accounts x sites");
    ("s2", "sharding lab: committed-txns/sec vs shards x cross-shard fraction");
    ("a1", "availability lab: Paxos Commit cost + blocking under a leader crash");
  ]

let list_cmd =
  let doc = "List the reproduced experiments (figures F2-F8, claims V1-V7)." in
  let run () =
    List.iter
      (fun (id, descr) -> Printf.printf "%-4s %s\n" id descr)
      (Experiments.all @ extra_experiments)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let exp_cmd =
  let doc = "Run one experiment by id (or $(b,all))." in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "With $(b,s1) or $(b,s2), run the reduced CI-sized ladder instead of the \
             full million-account one; with $(b,a1), the reduced availability lab. \
             Ignored by other experiments.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"BASE"
          ~doc:
            "With $(b,s1), stream a sampled Chrome trace per scaling cell to \
             $(docv)-<protocol>-<sites>x<accounts>.json (incremental write, bounded \
             memory — works at the million-account cells). Ignored by other \
             experiments.")
  in
  let trace_sample =
    Arg.(
      value & opt float 0.01
      & info [ "trace-sample" ] ~docv:"R"
          ~doc:
            "With $(b,s1) and $(b,--trace-out), keep a seeded head-sampled fraction \
             $(docv) of transactions in the streamed traces. Default 0.01.")
  in
  let run id smoke trace_out trace_sample =
    if id = "all" then begin
      print_string (Experiments.run_all ());
      print_newline ();
      ignore (Campaign.experiment_r1 ())
    end
    else if id = "r1" then ignore (Campaign.experiment_r1 ())
    else if id = "s1" then begin
      let trace =
        Option.map
          (fun base -> { Scaling.ts_rate = trace_sample; ts_base = base })
          trace_out
      in
      print_string (Scaling.run_s1 ~smoke ?trace ())
    end
    else if id = "s2" then print_string (Sharding.run_s2 ~smoke ())
    else if id = "a1" then print_string (Icdb_workload.Availability.run_a1 ~smoke ())
    else
      match Experiments.run id with
      | report -> print_string report
      | exception Not_found ->
        Printf.eprintf "unknown experiment %S; try `icdb list`\n" id;
        exit 1
  in
  Cmd.v (Cmd.info "exp" ~doc)
    Term.(const run $ id $ smoke $ trace_out $ trace_sample)

let report_to_string ?(central_gc = false) ?(sharded = false) ?(paxos = false)
    (r : Runner.report) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "elapsed (virtual time)     %.1f" r.elapsed;
  line "started / committed / aborted   %d / %d / %d" r.started r.committed r.aborted;
  line "throughput (commits/1000tu)     %.2f" r.throughput;
  line "response time mean / p95        %.2f / %.2f" r.mean_response r.p95_response;
  line "local lock hold mean / p95      %.2f / %.2f" r.mean_hold r.p95_hold;
  line "messages total / per commit     %d / %.1f" r.messages r.messages_per_committed;
  line "repetitions / compensations     %d / %d" r.repetitions r.compensations;
  line "redo-log / undo-log / L1-log    %d / %d / %d writes" r.redo_log_writes
    r.undo_log_writes r.mlt_log_writes;
  line "additional CC / L1 lock acq.    %d / %d" r.global_cc_acquisitions r.l1_acquisitions;
  line "local lock waits/timeouts/dl    %d / %d / %d" r.local_lock_waits
    r.local_lock_timeouts r.local_lock_deadlocks;
  line "log forces / per commit        %d / %.2f" r.log_forces r.log_forces_per_commit;
  (* Batching lines appear only when the features produced something, so a
     run with both windows off prints byte-identically to older builds. *)
  if r.batch_envelopes > 0 then
    line "batch envelopes / occupancy     %d / %.2f" r.batch_envelopes
      r.batch_occupancy_mean;
  if central_gc then line "central decision-log forces     %d" r.central_log_forces;
  (* Shard lines only on sharded runs: an unsharded report stays
     byte-identical to older builds. *)
  if sharded then begin
    line "top-level decision-log forces   %d" r.central_log_forces;
    line "shard decisions / log forces    %d / %d" r.shard_decisions r.shard_log_forces
  end;
  (* Paxos lines only when a group is installed: an acceptors=1 report
     stays byte-identical to older builds. *)
  if paxos then begin
    line "paxos rounds / acceptor forces  %d / %d" r.paxos_rounds
      r.paxos_acceptor_forces;
    line "paxos leader failovers          %d" r.paxos_failovers
  end;
  line "message copies dropped          %d" r.messages_dropped;
  line "money conserved                 %b (%d -> %d)" r.money_conserved r.money_before
    r.money_after;
  line "globally serializable           %b" r.serializable;
  List.iter (fun v -> line "  violation: %s" v) r.violations;
  if r.phase_breakdown <> [] then begin
    line "phase latency (count / mean / p50 / p95 / max):";
    List.iter
      (fun (phase, (h : Registry.hsnap)) ->
        line "  %-13s %5d / %6.2f / %6.2f / %6.2f / %6.2f" phase h.h_count h.h_mean
          h.h_p50 h.h_p95 h.h_max)
      r.phase_breakdown
  end;
  Buffer.contents b

let run_cmd =
  let doc = "Run a parameterized banking workload and print the full report." in
  let protocol =
    Arg.(value & opt protocol_conv Protocol.Before & info [ "p"; "protocol" ] ~docv:"PROTO")
  in
  let txns = Arg.(value & opt int 200 & info [ "n"; "txns" ]) in
  let sites = Arg.(value & opt int 4 & info [ "sites" ]) in
  let concurrency = Arg.(value & opt int 8 & info [ "c"; "concurrency" ]) in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ]) in
  let p_intended = Arg.(value & opt float 0.0 & info [ "intended-aborts" ]) in
  let p_spont = Arg.(value & opt float 0.0 & info [ "kills" ]) in
  let crash_rate = Arg.(value & opt float 0.0 & info [ "crash-rate" ]) in
  let theta = Arg.(value & opt float 0.6 & info [ "zipf" ]) in
  let loss = Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"per-message-copy drop probability") in
  let gc_window =
    Arg.(value & opt (some float) None & info [ "group-commit" ] ~doc:"group-commit window")
  in
  let batch_window =
    Arg.(
      value
      & opt (some float) None
      & info [ "msg-batch-window" ] ~docv:"W"
          ~doc:
            "Coalesce same-site decision messages issued within $(docv) virtual-time \
             units into one wire envelope (piggybacking). 0 or unset: off.")
  in
  let central_gc =
    Arg.(
      value
      & opt (some float) None
      & info [ "central-group-commit" ] ~docv:"W"
          ~doc:
            "Group-commit window for the central decision log: decisions within \
             $(docv) share one log force. 0 or unset: off.")
  in
  let retries = Arg.(value & opt int 0 & info [ "action-retries" ] ~doc:"MLT L0 action retries") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record a full span trace and write it as Chrome trace-event JSON to \
             $(docv) (open at https://ui.perfetto.dev). Tracing is off otherwise.")
  in
  let trace_stream =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-stream" ] ~docv:"FILE"
          ~doc:
            "Stream the trace incrementally to $(docv) as Chrome trace-event JSON \
             while the run executes, holding only open spans in memory. Unlike \
             $(b,--trace-out) (which buffers every event), memory stays bounded at \
             any run size; both can be given at once.")
  in
  let trace_sample =
    Arg.(
      value & opt float 1.0
      & info [ "trace-sample" ] ~docv:"R"
          ~doc:
            "Keep the spans of a seeded pseudo-random fraction $(docv) of \
             transactions (per-transaction head sampling: a kept transaction keeps \
             its phases, branches and decision; per-message and lock-wait spans are \
             dropped whenever $(docv) < 1). Deterministic in $(b,--seed). Default 1 \
             (trace everything).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write a JSON snapshot of the metrics registry to $(docv).")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:"Write the metrics registry in Prometheus text exposition to $(docv).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Group the sites into $(docv) shards, each with its own coordinator, \
             journal and decision log. Transactions confined to one shard commit in a \
             purely local round at their shard coordinator; cross-shard ones run a \
             top-level round over the participating shard coordinators. 1 (default) \
             is the unsharded federation, byte-identical to older builds. More shards \
             than sites exits 2 before the run starts.")
  in
  let cross_shard =
    Arg.(
      value & opt float 0.0
      & info [ "cross-shard" ] ~docv:"F"
          ~doc:
            "With $(b,--shards), probability in [0,1] that a generated transaction \
             deliberately spans at least two shards. Default 0.")
  in
  let acceptors =
    Arg.(
      value & opt int 1
      & info [ "acceptors" ] ~docv:"A"
          ~doc:
            "Replicate every commit/abort decision to $(docv) acceptor sites (Paxos \
             Commit; $(docv) odd, 2F+1, at most the site count) instead of forcing a \
             single coordinator log. 1 (default) installs nothing and is \
             byte-identical to older builds. A $(docv) the sites cannot host exits 2 \
             before the run starts.")
  in
  let decision_force_time =
    Arg.(
      value
      & opt (some float) None
      & info [ "decision-force-time" ] ~docv:"T"
          ~doc:
            "Model each coordinator's decision log as a serial device: every force \
             occupies its log head for $(docv) virtual-time units (the contention \
             sharding relieves — see $(b,icdb exp s2)). Unset: forces are \
             instantaneous. Ignored when $(b,--central-group-commit) is set.")
  in
  let run protocol n_txns n_sites concurrency seed p_intended_abort p_spontaneous crash_rate
      zipf_theta message_loss group_commit_window msg_batch_window central_gc_window
      mlt_action_retries trace_out trace_stream trace_sample metrics_out prom_out
      shards cross_shard_fraction acceptors decision_force_time =
    let cfg =
      {
        Runner.default with
        protocol;
        n_txns;
        n_sites;
        concurrency;
        seed;
        p_intended_abort;
        p_spontaneous;
        crash_rate;
        zipf_theta;
        message_loss;
        group_commit_window;
        msg_batch_window;
        central_gc_window;
        mlt_action_retries;
        shards;
        cross_shard_fraction;
        acceptors;
        decision_force_time;
      }
    in
    (match Runner.check_config cfg with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "icdb run: %s\n" msg;
      exit 2);
    let registry = Registry.create () in
    let tracer =
      (* Clock re-wired onto the run's engine by [Runner.run]. *)
      if trace_out <> None || trace_stream <> None then
        Some (Tracer.create ~enabled:true ~clock:(fun () -> 0.0) ())
      else None
    in
    let stream =
      match (trace_stream, tracer) with
      | Some path, Some tr ->
        let oc = open_out path in
        let sink = Sink.create ~write:(output_string oc) in
        Tracer.set_sink tr (Some (Sink.on_event sink));
        (* Streaming only: don't also accumulate the events in memory. *)
        if trace_out = None then Tracer.set_store tr false;
        Some (path, oc, sink)
      | _ -> None
    in
    (match tracer with
    | Some tr when trace_sample < 1.0 ->
      Tracer.set_sampler tr (Some (Sampling.kind_filter ~seed ~rate:trace_sample))
    | _ -> ());
    let r = Runner.run ~registry ?tracer cfg in
    let central_gc = match central_gc_window with Some w when w > 0.0 -> true | _ -> false in
    Printf.printf "protocol: %s\n%s" (Protocol.name protocol)
      (report_to_string ~central_gc ~sharded:(shards > 1) ~paxos:(acceptors > 1) r);
    (match (trace_out, tracer) with
    | Some path, Some tr ->
      write_file path (Export.chrome_trace tr);
      Printf.printf "wrote Chrome trace (%d events): %s\n" (Tracer.length tr) path
    | _ -> ());
    Option.iter
      (fun (path, oc, sink) ->
        Sink.close sink;
        close_out oc;
        Printf.printf "streamed Chrome trace (%d events, %d bytes): %s\n"
          (Sink.event_count sink) (Sink.byte_count sink) path)
      stream;
    Option.iter
      (fun path ->
        write_file path (Export.metrics_json registry);
        Printf.printf "wrote metrics snapshot: %s\n" path)
      metrics_out;
    Option.iter
      (fun path ->
        write_file path (Export.prometheus registry);
        Printf.printf "wrote Prometheus dump: %s\n" path)
      prom_out
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ protocol $ txns $ sites $ concurrency $ seed $ p_intended $ p_spont
      $ crash_rate $ theta $ loss $ gc_window $ batch_window $ central_gc $ retries
      $ trace_out $ trace_stream $ trace_sample $ metrics_out $ prom_out $ shards
      $ cross_shard $ acceptors $ decision_force_time)

let trace_cmd =
  let doc =
    "Run a single two-site transfer under the given protocol with the tracer on and \
     print the span tree (transaction, phases, branches, lock waits, messages, \
     decision)."
  in
  let protocol = Arg.(value & pos 0 protocol_conv Protocol.Before & info [] ~docv:"PROTO") in
  let abortive =
    Arg.(
      value & flag
      & info [ "abort" ]
          ~doc:
            "Make the transaction abort: the second branch votes no (flat protocols) or \
             the global transaction aborts after its first L0 action (MLT), so the \
             undo/compensation path shows up in the trace.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Also write the trace as Chrome trace-event JSON to $(docv).")
  in
  let run protocol abortive trace_out =
    let module Sim = Icdb_sim.Engine in
    let module Fiber = Icdb_sim.Fiber in
    let module Db = Icdb_localdb.Engine in
    let module Program = Icdb_localdb.Program in
    let module Site = Icdb_net.Site in
    let module Action = Icdb_mlt.Action in
    let module Federation = Icdb_core.Federation in
    let module Global = Icdb_core.Global in
    let eng = Sim.create () in
    let tracer = Tracer.create ~enabled:true ~clock:(fun () -> Sim.now eng) () in
    let site_cfg ~prepare name =
      {
        (Db.default_config ~site_name:name) with
        capabilities =
          {
            supports_prepare = prepare;
            supports_increment_locks = true;
            granularity = Db.Record_level;
            cc = Locking { wait_timeout = Some 100.0 };
          };
      }
    in
    (* The hybrid protocol exists for mixed federations: give it one. *)
    let prepare i = match protocol with Protocol.Hybrid -> i = 0 | _ -> true in
    let fed =
      Federation.create eng ~tracer
        [ site_cfg ~prepare:(prepare 0) "s0"; site_cfg ~prepare:(prepare 1) "s1" ]
    in
    Federation.preload fed [ ("x", 100) ];
    let result = ref None in
    Fiber.spawn eng (fun () ->
        let outcome =
          if protocol = Protocol.Before_mlt then
            Icdb_core.Commit_before_mlt.run fed
              {
                Global.mlt_gid = Federation.fresh_gid fed;
                actions =
                  [
                    Action.deposit ~site:"s0" ~account:"x" 5;
                    Action.withdraw ~site:"s1" ~account:"x" 5;
                  ];
                abort_after = (if abortive then Some 1 else None);
              }
          else
            Protocol.run_flat protocol fed
              {
                Global.gid = Federation.fresh_gid fed;
                branches =
                  [
                    Global.branch ~site:"s0" [ Program.Increment ("x", 5) ];
                    Global.branch ~vote_commit:(not abortive) ~site:"s1"
                      [ Program.Increment ("x", -5) ];
                  ];
              }
        in
        result := Some outcome);
    Sim.run eng;
    Printf.printf "%s: %s two-site transfer\noutcome: %s\n\n" (Protocol.name protocol)
      (if abortive then "abortive" else "committing")
      (Global.outcome_to_string (Option.get !result));
    print_string (Export.span_tree tracer);
    Option.iter
      (fun path ->
        write_file path (Export.chrome_trace tracer);
        Printf.printf "\nwrote Chrome trace (%d events): %s\n" (Tracer.length tracer) path)
      trace_out
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ protocol $ abortive $ trace_out)

let check_cmd =
  let doc =
    "Run the invariant battery: every protocol under kills, intended aborts and site \
     crashes; verifies atomicity (money conservation) and global serializability. Exits \
     non-zero on any violation."
  in
  let txns = Arg.(value & opt int 300 & info [ "n"; "txns" ]) in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ]) in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write one combined JSON metrics snapshot covering all six protocol runs \
             (they share a registry; labelled metrics accumulate) to $(docv).")
  in
  let run n_txns seed metrics_out =
    let registry = Registry.create () in
    let table =
      Icdb_util.Table.create ~title:"invariant battery (chaos workload)"
        [ "protocol"; "committed"; "aborted"; "reps"; "comps"; "money"; "serializable" ]
    in
    let failed = ref false in
    List.iter
      (fun protocol ->
        let r =
          Runner.run ~registry
            {
              Runner.default with
              protocol;
              n_txns;
              seed;
              concurrency = 10;
              p_spontaneous = 0.15;
              p_intended_abort = 0.1;
              crash_rate = 4.0;
              crash_duration = 25.0;
              zipf_theta = 0.9;
            }
        in
        if not (r.money_conserved && r.serializable) then failed := true;
        Icdb_util.Table.add_row table
          [
            Protocol.name protocol;
            string_of_int r.committed;
            string_of_int r.aborted;
            string_of_int r.repetitions;
            string_of_int r.compensations;
            (if r.money_conserved then "conserved" else "VIOLATED");
            (if r.serializable then "yes" else "NO");
          ];
        List.iter (fun v -> Printf.printf "  violation: %s\n" v) r.violations)
      Protocol.all;
    Icdb_util.Table.print table;
    Option.iter
      (fun path ->
        write_file path (Export.metrics_json registry);
        Printf.printf "wrote combined metrics snapshot: %s\n" path)
      metrics_out;
    if !failed then begin
      print_endline "INVARIANT VIOLATIONS FOUND";
      exit 1
    end
    else print_endline "all invariants hold."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ txns $ seed $ metrics_out)

let chaos_cmd =
  let doc =
    "Run the fault-injection campaign: seeded fault plans (site crashes, central \
     crashes at protocol instants, loss bursts, latency spikes, duplicated \
     deliveries) against every protocol, with the full invariant suite evaluated \
     after each run. Deterministic in the seed. Exits non-zero on any violation."
  in
  let protocol =
    Arg.(
      value
      & opt (some protocol_conv) None
      & info [ "p"; "protocol" ] ~docv:"PROTO"
          ~doc:"Campaign a single protocol instead of all six.")
  in
  let plans =
    Arg.(
      value & opt int 50
      & info [ "plans" ] ~docv:"N" ~doc:"Fault plans generated per protocol.")
  in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ]) in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Minimise every violating plan to a locally minimal reproducer.")
  in
  let reproducers_out =
    Arg.(
      value
      & opt string "chaos-reproducers.txt"
      & info [ "reproducers-out" ] ~docv:"FILE"
          ~doc:"Where to write violating plans (only written when there are any).")
  in
  let flight_out =
    Arg.(
      value
      & opt string "chaos-flight"
      & info [ "flight-out" ] ~docv:"PREFIX"
          ~doc:
            "Prefix for flight-recorder dumps: every violating run's last ring of \
             events is written to $(docv)-<protocol>-<n>.txt (only written when \
             there are violations).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Run every campaign plan on a sharded federation with $(docv) shards: the \
             plan space gains shard-coordinator crashes (crash + volatile-state wipe + \
             per-shard restart recovery) and the stats table a shard-crash column. 1 \
             (default) reproduces the unsharded campaign byte for byte.")
  in
  let acceptors =
    Arg.(
      value & opt int 1
      & info [ "acceptors" ] ~docv:"A"
          ~doc:
            "Run every campaign plan with Paxos Commit over $(docv) acceptor sites \
             (odd, 2F+1): the plan space gains acceptor-site crashes, injected \
             central crashes trigger a leader failover instead of waiting for \
             restart recovery, and the stats table gains an acceptor-crash column. \
             1 (default) reproduces the single-coordinator campaign byte for byte. \
             The campaign federation has 3 sites (4 with $(b,--shards)); a $(docv) \
             it cannot host exits 2 before a plan runs.")
  in
  let run protocol plans seed shrink reproducers_out flight_out shards acceptors =
    (match Campaign.check_config ~shards ~acceptors () with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "icdb chaos: %s\n" msg;
      exit 2);
    let protocols =
      match protocol with Some p -> [ p ] | None -> Protocol.all
    in
    let stats =
      Campaign.run_campaign ~shrink_failures:shrink ~seed ~shards ~acceptors ~plans
        protocols
    in
    Icdb_util.Table.print (Campaign.stats_table ~plans ~seed stats);
    let trips = Campaign.trips_summary stats in
    if trips <> "" then begin
      print_newline ();
      print_string trips
    end;
    let violations = Campaign.total_violations stats in
    if violations > 0 then begin
      let b = Buffer.create 1024 in
      List.iter
        (fun (s : Campaign.protocol_stats) ->
          List.iteri
            (fun i (o : Campaign.outcome) ->
              Buffer.add_string b
                (Printf.sprintf "%s under %s\n"
                   (Protocol.obs_name s.cp_protocol)
                   (Plan.to_string o.plan));
              List.iter
                (fun v ->
                  Buffer.add_string b
                    (Printf.sprintf "  %s\n"
                       (Format.asprintf "%a" Campaign.pp_violation v)))
                o.violations;
              Option.iter
                (fun dump ->
                  let path =
                    Printf.sprintf "%s-%s-%d.txt" flight_out
                      (Protocol.obs_name s.cp_protocol) i
                  in
                  write_file path dump;
                  Buffer.add_string b
                    (Printf.sprintf "  flight recorder dump: %s\n" path))
                o.flight)
            s.cp_failures)
        stats;
      print_newline ();
      print_string (Buffer.contents b);
      write_file reproducers_out (Buffer.contents b);
      Printf.printf "\nwrote %d violating plan(s) to %s\n" violations reproducers_out;
      print_endline "CHAOS CAMPAIGN FOUND VIOLATIONS";
      exit 1
    end
    else print_endline "all invariants hold under every plan."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ protocol $ plans $ seed $ shrink $ reproducers_out $ flight_out
      $ shards $ acceptors)

let () =
  let doc = "atomic commitment for integrated database systems (Muth & Rakow, ICDE 1991)" in
  let info = Cmd.info "icdb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ list_cmd; exp_cmd; run_cmd; trace_cmd; check_cmd; chaos_cmd ]))
