(* Deterministic string<->int interner.

   Ids are handed out in first-intern order, so for a fixed workload the
   mapping is a pure function of the access sequence: re-running the same
   seeded simulation — or running it on another domain of a [-j N] sweep —
   produces identical ids. Each federation (and each local database engine)
   owns its own table; tables are never shared across domains, which makes
   them Domain-safe without locks.

   The reverse direction ([name]) is an array index, so resolving a symbol
   back to its string allocates nothing: the returned string is the one
   interned originally.

   Concurrency invariant: a table is safe under a partitioned (coupled-
   engine) simulation because event execution is serialized — at most one
   domain touches the table at any moment, with happens-before edges
   through the scheduler's baton mutex. What is NOT safe is sharing one
   table between two independent simulations running concurrently (e.g.
   two [-j] sweep cells): their interleaved interning would race. The
   debug ownership check below catches exactly that class: enable it with
   [set_debug true] (or ICDB_SYMBOL_DEBUG=1), [seal] the table once setup
   interning is done, and [allow] each domain that legitimately executes
   for the owning simulation; sealed tables then refuse NEW interning from
   any other domain. Lookups of already-interned strings are never
   checked — they are read-only and the hot path. *)

type t = int

type table = {
  mutable names : string array; (* id -> string, dense prefix [0, count) *)
  mutable count : int;
  ids : int Strtbl.t;
  mutable sealed : bool;
  mutable owners : int list; (* domain ids allowed to intern once sealed *)
}

let debug =
  ref
    (match Sys.getenv_opt "ICDB_SYMBOL_DEBUG" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let set_debug on = debug := on

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    names = Array.make capacity "";
    count = 0;
    ids = Strtbl.create capacity;
    sealed = false;
    owners = [];
  }

let self_id () = (Domain.self () :> int)

let allow tbl =
  let id = self_id () in
  if not (List.mem id tbl.owners) then tbl.owners <- id :: tbl.owners

let seal tbl =
  tbl.sealed <- true;
  allow tbl

let check_owner tbl s =
  if !debug && tbl.sealed && not (List.mem (self_id ()) tbl.owners) then
    failwith
      (Printf.sprintf
         "Symbol.intern: new symbol %S interned from non-owner domain %d after seal"
         s (self_id ()))

let count tbl = tbl.count

let intern tbl s =
  match Strtbl.find_opt tbl.ids s with
  | Some id -> id
  | None ->
    check_owner tbl s;
    let id = tbl.count in
    if id = Array.length tbl.names then begin
      let bigger = Array.make (2 * id) "" in
      Array.blit tbl.names 0 bigger 0 id;
      tbl.names <- bigger
    end;
    tbl.names.(id) <- s;
    tbl.count <- id + 1;
    Strtbl.replace tbl.ids s id;
    id

let find tbl s = Strtbl.find_opt tbl.ids s

let name tbl id =
  if id < 0 || id >= tbl.count then invalid_arg "Symbol.name: unknown symbol";
  tbl.names.(id)

(* Point-in-time copy of the mapping: index i holds the string of symbol i. *)
let snapshot tbl = Array.sub tbl.names 0 tbl.count

let mem tbl s = Strtbl.mem tbl.ids s
