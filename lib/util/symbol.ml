(* Deterministic string<->int interner.

   Ids are handed out in first-intern order, so for a fixed workload the
   mapping is a pure function of the access sequence: re-running the same
   seeded simulation, on this domain or another, produces identical ids.
   Each federation (and each local database engine) owns its own table;
   tables are never shared across domains, which makes them Domain-safe
   without locks.

   The reverse direction ([name]) is an array index, so resolving a symbol
   back to its string allocates nothing: the returned string is the one
   interned originally. *)

type t = int

type table = {
  mutable names : string array; (* id -> string, dense prefix [0, count) *)
  mutable count : int;
  ids : int Strtbl.t;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  { names = Array.make capacity ""; count = 0; ids = Strtbl.create capacity }

let count tbl = tbl.count

let intern tbl s =
  match Strtbl.find_opt tbl.ids s with
  | Some id -> id
  | None ->
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
