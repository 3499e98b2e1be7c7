(** In-memory B+-tree with string keys.

    The local database engines use it as their key index: point lookups,
    ordered iteration (index rebuild after restart, sorted key listings)
    and range scans. Values live only in the leaves; leaves are linked for
    cheap in-order traversal. The fanout is fixed at a classic node size;
    the structure invariants (sortedness, occupancy, balanced height) are
    checked by [invariant_check] and exercised by property tests. *)

type 'a t

val create : unit -> 'a t

(** [of_bindings bindings] is the tree that inserting [bindings] one by one,
    in array order, into an empty tree would hold: of equal keys the last
    binding wins. The array is only read.

    Cost: a stable natural merge sort, O(n log r) key compares for [n]
    bindings forming [r] maximal ascending runs (a sorted array is one run
    and takes n - 1 compares, no copy), then a bottom-up build that visits
    each binding once. Nodes are filled as far as the fanout allows, split
    evenly so that every non-root node is at least half full; the leaves
    are linked. The tree is therefore no higher, and usually shallower,
    than one built by repeated {!insert}. Extra space: up to two buffers of
    [n] bindings while sorting. *)
val of_bindings : (string * 'a) array -> 'a t

(** [copy t] is a tree with [t]'s bindings and shape that is changed
    apart from [t]: every node is copied and the copied leaves are linked
    among themselves. Keys (immutable strings) and values are shared, so a
    mutable value would be seen by both. O(n). *)
val copy : 'a t -> 'a t

(** [insert t key v] adds or replaces the binding. *)
val insert : 'a t -> string -> 'a -> unit

val find : 'a t -> string -> 'a option
val mem : 'a t -> string -> bool

(** [remove t key] deletes the binding; [false] when absent. *)
val remove : 'a t -> string -> bool

val size : 'a t -> int
val is_empty : 'a t -> bool

(** Smallest / largest key. *)
val min_binding : 'a t -> (string * 'a) option

val max_binding : 'a t -> (string * 'a) option

(** In-order iteration over all bindings. *)
val iter : 'a t -> (string -> 'a -> unit) -> unit

val fold : 'a t -> init:'b -> f:('b -> string -> 'a -> 'b) -> 'b

(** [range t ~lo ~hi f] applies [f] to bindings with [lo <= key <= hi], in
    order. [None] bounds are open ends. *)
val range : 'a t -> lo:string option -> hi:string option -> (string -> 'a -> unit) -> unit

(** All bindings in key order. *)
val to_list : 'a t -> (string * 'a) list

(** Sorted key list. *)
val keys : 'a t -> string list

(** Tree height (leaf = 1); exposed for balance tests. *)
val height : 'a t -> int

(** [invariant_check t] raises [Failure] describing the first violated
    structural invariant (key order, separator correctness, occupancy,
    uniform leaf depth); returns [()] on a well-formed tree. *)
val invariant_check : 'a t -> unit
