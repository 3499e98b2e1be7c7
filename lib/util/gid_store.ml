(* Dense per-gid stores: an array indexed by the gid, grown on demand. *)

let check gid = if gid < 0 then invalid_arg "Gid_store: negative gid"

(* Room for the first 64 gids before the first growth: a store is created
   per federation, shard and graph, and most tests stay below 64 gids. *)
let initial_capacity = 64

(* Room for [gid]: double, or jump straight to [gid + 1] when that is
   larger. *)
let grown_size ~size gid = max (2 * size) (gid + 1)

type 'a t = { mutable data : 'a option array }

let create () = { data = Array.make initial_capacity None }

let replace t gid v =
  check gid;
  let size = Array.length t.data in
  if gid >= size then begin
    let bigger = Array.make (grown_size ~size gid) None in
    Array.blit t.data 0 bigger 0 size;
    t.data <- bigger
  end;
  t.data.(gid) <- Some v

let find_opt t gid =
  check gid;
  if gid < Array.length t.data then t.data.(gid) else None

let remove t gid =
  check gid;
  if gid < Array.length t.data then t.data.(gid) <- None

module Bool = struct
  (* One byte per gid: absent, false or true. *)
  let absent = '\000'
  let false_ = '\001'
  let true_ = '\002'
  let some_false = Some false
  let some_true = Some true

  type t = { mutable data : Bytes.t; mutable length : int }

  let create () = { data = Bytes.make initial_capacity absent; length = 0 }

  let replace t gid b =
    check gid;
    let size = Bytes.length t.data in
    if gid >= size then begin
      let bigger = Bytes.make (grown_size ~size gid) absent in
      Bytes.blit t.data 0 bigger 0 size;
      t.data <- bigger
    end;
    if Bytes.get t.data gid = absent then t.length <- t.length + 1;
    Bytes.set t.data gid (if b then true_ else false_)

  let find_opt t gid =
    check gid;
    let c = if gid < Bytes.length t.data then Bytes.unsafe_get t.data gid else absent in
    if c = true_ then some_true else if c = false_ then some_false else None

  let length t = t.length
end

module Int = struct
  type t = { mutable data : int array }

  let create () = { data = Array.make initial_capacity 0 }

  let get t gid =
    check gid;
    if gid < Array.length t.data then Array.unsafe_get t.data gid else 0

  let set t gid v =
    check gid;
    let size = Array.length t.data in
    if gid >= size then begin
      let bigger = Array.make (grown_size ~size gid) 0 in
      Array.blit t.data 0 bigger 0 size;
      t.data <- bigger
    end;
    Array.unsafe_set t.data gid v
end
