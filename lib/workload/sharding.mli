(** S2 — sharded-federation lab.

    Committed-txns/sec over shards ∈ {1,2,4,8} × cross-shard fraction ∈
    {0%,5%,20%} at 10⁶ preloaded accounts (16 sites × 62 500), with the
    decision log modelled as a serial device ([decision_force_time]) so the
    single central log head is the unsharded bottleneck each shard
    coordinator relieves. Unlike S1 every column is a deterministic
    virtual-time measurement, so the table is byte-stable across hosts;
    [test/identity_labs.t] pins the smoke ladder's table. *)

type row = {
  sh_shards : int;
  sh_cross : float;  (** requested cross-shard fraction *)
  sh_committed : int;
  sh_throughput : float;  (** committed per 1000 virtual time units *)
  sh_msgs_per_commit : float;
  sh_top_forces : int;
      (** central decision-log forces — 0 at 0% cross: single-shard
          transactions never touch the top level *)
  sh_shard_forces : int;  (** forces summed over the shard coordinators *)
}

(** Serial log-head occupancy per decision force (virtual time units). *)
val force_time : float

(** [run_cells ~smoke ()] runs the grid and returns its rows (cross-major,
    shards ascending). [protocol] defaults to 2PC — the sharding machinery
    is protocol-generic, the lab rates the log-head contention. *)
val run_cells : ?protocol:Protocol.t -> smoke:bool -> unit -> row list

(** [run_s2 ()] renders the lab: the table plus one monotonicity verdict
    line per cross fraction ≤ 5% (throughput strictly increasing from 1 to
    4 shards — the sharded federation's acceptance line). [smoke] (default
    false) shrinks the grid to CI scale. *)
val run_s2 : ?smoke:bool -> ?protocol:Protocol.t -> unit -> string
