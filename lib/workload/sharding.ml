(* S2 — sharded-federation lab.

   The headline experiment of the sharded federation: committed-txns/sec as
   the same 10⁶-account federation (16 sites × 62 500 accounts) is split
   into 1, 2, 4 and 8 shards, for cross-shard fractions of 0%, 5% and 20%.
   The decision log is modelled as a serial device (every force occupies
   its coordinator's log head for a fixed time), so the unsharded cell is
   bottlenecked on the single central log head and each shard adds an
   independent head — exactly the contention the per-shard coordinators
   relieve. A transaction whose branches land in one shard commits in a
   purely local round: the top-forces column staying 0 at 0% cross is the
   fast path made visible.

   Every column is a deterministic function of the seed (virtual-time
   throughput, commit counts, message and force tallies) — no wall-clock
   columns — so the table is byte-stable and the smoke ladder diffable in
   CI. *)

module Table = Icdb_util.Table

type row = {
  sh_shards : int;
  sh_cross : float; (* requested cross-shard fraction *)
  sh_committed : int;
  sh_throughput : float; (* committed per 1000 virtual time units *)
  sh_msgs_per_commit : float;
  sh_top_forces : int; (* central (top-level) decision-log forces *)
  sh_shard_forces : int; (* forces summed over the shard coordinators *)
}

let shard_ladder ~smoke = if smoke then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ]
let cross_ladder ~smoke = if smoke then [ 0.0; 0.05 ] else [ 0.0; 0.05; 0.20 ]

(* The serial log head's occupancy per force. Comparable to a round trip
   (latency 1.0 each way, commit_delay 2.0), and with 32 workers in flight
   the single head saturates — which is the point. *)
let force_time = 4.0

(* The smoke grid keeps the full grid's shape (16 sites, 32 workers, same
   force time) and shrinks only the preload and the transaction count, so
   its virtual-time rates stay comparable to the full rows under the same
   (shards, cross) keys. *)
let config ~smoke ~shards ~cross protocol =
  {
    Runner.default with
    protocol;
    n_sites = 16;
    accounts_per_site = (if smoke then 250 else 62_500);
    n_txns = (if smoke then 150 else 300);
    concurrency = 32;
    branches_per_txn = 2;
    ops_per_branch = 2;
    zipf_theta = 0.8;
    use_increments = true;
    shards;
    cross_shard_fraction = cross;
    decision_force_time = Some force_time;
  }

let run_cell ~smoke ~shards ~cross protocol =
  let r = Runner.run (config ~smoke ~shards ~cross protocol) in
  {
    sh_shards = shards;
    sh_cross = cross;
    sh_committed = r.Runner.committed;
    sh_throughput = r.Runner.throughput;
    sh_msgs_per_commit = r.Runner.messages_per_committed;
    sh_top_forces = r.Runner.central_log_forces;
    sh_shard_forces = r.Runner.shard_log_forces;
  }

let run_cells ?(protocol = Protocol.Two_phase) ~smoke () =
  List.concat_map
    (fun cross ->
      List.map (fun shards -> run_cell ~smoke ~shards ~cross protocol) (shard_ladder ~smoke))
    (cross_ladder ~smoke)

(* The acceptance line: at cross-shard fractions <= 5%, throughput must be
   strictly increasing from 1 to 4 shards. *)
let monotone_verdicts rows =
  List.filter_map
    (fun cross ->
      if cross > 0.05 then None
      else begin
        let ladder =
          List.filter (fun r -> r.sh_cross = cross && r.sh_shards <= 4) rows
          |> List.sort (fun a b -> compare a.sh_shards b.sh_shards)
        in
        let rec increasing = function
          | a :: (b :: _ as rest) ->
            a.sh_throughput < b.sh_throughput && increasing rest
          | _ -> true
        in
        Some
          (Printf.sprintf "cross %2.0f%%: throughput 1->4 shards strictly increasing: %s (%s)"
             (cross *. 100.0)
             (if increasing ladder then "yes" else "NO")
             (String.concat " -> "
                (List.map (fun r -> Printf.sprintf "%.2f" r.sh_throughput) ladder)))
      end)
    (cross_ladder ~smoke:false |> List.filter (fun c -> List.exists (fun r -> r.sh_cross = c) rows))

let run_s2 ?(smoke = false) ?(protocol = Protocol.Two_phase) () =
  let rows = run_cells ~protocol ~smoke () in
  let cfg1 = config ~smoke ~shards:1 ~cross:0.0 protocol in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "S2 — sharding lab: %s, %d sites x %s accounts, %d txns, force %.1ftu%s"
           (Protocol.name protocol) cfg1.Runner.n_sites
           (Table.fmt_int cfg1.Runner.accounts_per_site)
           cfg1.Runner.n_txns force_time
           (if smoke then " (smoke)" else ""))
      [ "cross %"; "shards"; "committed"; "txn/1000tu"; "msg/commit"; "top forces"; "shard forces" ]
  in
  List.iteri
    (fun i cross ->
      if i > 0 then Table.add_separator table;
      List.iter
        (fun (r : row) ->
          if r.sh_cross = cross then
            Table.add_row table
              [
                Table.fmt_float ~decimals:0 (cross *. 100.0);
                Table.fmt_int r.sh_shards;
                Table.fmt_int r.sh_committed;
                Table.fmt_float ~decimals:2 r.sh_throughput;
                Table.fmt_float ~decimals:1 r.sh_msgs_per_commit;
                Table.fmt_int r.sh_top_forces;
                Table.fmt_int r.sh_shard_forces;
              ])
        rows)
    (cross_ladder ~smoke);
  "Committed-transaction throughput as the federation is split into per-shard\n\
   coordinators. The decision log is a serial device (one log head per\n\
   coordinator, " ^ Printf.sprintf "%.1f" force_time
  ^ " tu per force): unsharded, every decision queues on the\n\
     single central head; each shard adds an independent head, and\n\
     single-shard transactions commit in a purely local round — at 0% cross\n\
     the top-level log takes no force at all. All columns are deterministic\n\
     virtual-time measurements (seed 42).\n\n"
  ^ Table.render table ^ "\n"
  ^ String.concat "\n" (monotone_verdicts rows)
  ^ "\n"
