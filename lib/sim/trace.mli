(** Timestamped event traces.

    Protocol runs record one entry per interesting transition (message sent,
    state entered, commit point reached). The figure-reproduction benches
    (F2-F7) print these traces, and tests assert ordering properties on them
    — e.g. "the global decision lies strictly between every site's ready
    point and its commit point" for Figure 3.

    A trace records only when it is enabled. A run's protocols call
    {!record_gid} on every step of every transaction, but only the figure
    experiments (F2-F7), the examples and the tests that query a
    federation's trace pass an enabled one; [Federation.create]'s default
    is a disabled trace, on which {!record} and {!record_gid} return at
    once and nothing is retained.

    Recording is cheap: an entry is a time, an actor, a gid and a label
    stored in unboxed columns, and {!record_gid} allocates nothing beyond
    the doubling growth of the columns. A gid-tagged entry reads as the
    label ["g<gid>:<label>"]; that string is built only when a query below
    reads the entry. *)

type entry = { time : float; actor : string; label : string }

type t

(** [create ?enabled engine] is an empty trace on [engine]'s clock.
    [enabled] defaults to [true]. A disabled trace records nothing: its
    {!length} stays 0, {!find}, {!find_all} and {!entries} find nothing and
    {!render} is empty; it allocates no columns. *)
val create : ?enabled:bool -> Engine.t -> t

(** Whether the trace records. A caller that builds a label string for
    {!record_gid} tests this first, so a disabled trace costs no string. *)
val enabled : t -> bool

(** [record t ~actor label] appends an entry stamped with the current virtual
    time. *)
val record : t -> actor:string -> string -> unit

(** [record_gid t ~actor ~gid label] appends an entry that every query
    below reads as the label ["g<gid>:<label>"], without building that
    string. [label] is stored as given, so pass a static string on hot
    paths. Raises [Invalid_argument] when [gid] is [min_int], enabled or
    not. *)
val record_gid : t -> actor:string -> gid:int -> string -> unit

(** Entries in recording order, labels rendered. *)
val entries : t -> entry list

(** [find t ~actor ~label] is the time of the first matching entry. Labels
    match as rendered, so a {!record_gid} entry matches ["g<gid>:<label>"]. *)
val find : t -> actor:string -> label:string -> float option

(** [find_all t ~label] is every [(time, actor)] whose label matches. *)
val find_all : t -> label:string -> (float * string) list

(** [before t ~first ~then_] checks that the first entry labelled [first]
    precedes the first entry labelled [then_]; [false] when either is
    missing. Actor is ignored. *)
val before : t -> first:string -> then_:string -> bool

(** Entries recorded since {!create} or the last {!clear}. *)
val length : t -> int

(** [clear t] drops every entry; the columns keep their grown size. *)
val clear : t -> unit

(** Multi-line rendering ["t=12.00 [actor] label"], for demos and benches. *)
val render : t -> string
