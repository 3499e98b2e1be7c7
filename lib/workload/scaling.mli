(** S1 — million-account scaling lab.

    Runs the standard transaction mix for every protocol over a ladder of
    federation sizes (up to ~10⁶ preloaded accounts across 32 sites) and
    renders committed-txns per 1000 virtual time units alongside wall-clock
    engine events/sec. The virtual-time columns are deterministic; the wall
    columns are host measurements, which is why S1 is invoked explicitly
    ([icdb exp s1]) and excluded from {!Experiments.run_all} and the
    byte-identity pins. *)

type trace_spec = {
  ts_rate : float;
      (** per-transaction head-sampling rate in [0,1]; deterministic in the
          run seed ({!Icdb_obs.Sampling}) *)
  ts_base : string;  (** output path prefix for the per-cell trace files *)
}
(** Streaming-trace request: each cell writes an incremental Chrome trace
    to [ts_base-<protocol>-<sites>x<accounts>.json] through a sink-only
    tracer ({!Icdb_obs.Sink}) — bounded memory even at the million-account
    cells. *)

val run_s1 : ?smoke:bool -> ?trace:trace_spec -> unit -> string
(** [run_s1 ~smoke ()] renders the scaling table. [smoke] (default false)
    shrinks the size ladder to CI scale. [trace] streams sampled Chrome
    traces per cell and adds trace-volume columns to the table. *)
