type entry = { time : float; actor : string; label : string }

(* Append-order columns, grown by doubling: [record] and [record_gid] store
   an unboxed time and three words and allocate nothing between growths. A
   gid-tagged entry keeps its static label; the ["g<gid>:<label>"] string is
   built only when a query reads the entry. Every query is one linear scan.
   A disabled trace keeps empty columns and never grows them, so its length
   stays 0 and every query finds nothing. *)
type t = {
  engine : Engine.t;
  enabled : bool;
  mutable times : Float.Array.t;
  mutable actors : string array;
  mutable gids : int array; (* [no_gid] for an untagged entry *)
  mutable labels : string array;
  mutable len : int;
}

let no_gid = min_int
let initial = 64

let create ?(enabled = true) engine =
  let n = if enabled then initial else 0 in
  {
    engine;
    enabled;
    times = Float.Array.make n 0.0;
    actors = Array.make n "";
    gids = Array.make n no_gid;
    labels = Array.make n "";
    len = 0;
  }

let enabled t = t.enabled

let grow t =
  let n = 2 * t.len in
  let times = Float.Array.make n 0.0 in
  Float.Array.blit t.times 0 times 0 t.len;
  t.times <- times;
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.actors <- extend t.actors "";
  t.gids <- extend t.gids no_gid;
  t.labels <- extend t.labels ""

let push t ~actor ~gid label =
  if t.len = Array.length t.labels then grow t;
  let i = t.len in
  Float.Array.set t.times i (Engine.now t.engine);
  t.actors.(i) <- actor;
  t.gids.(i) <- gid;
  t.labels.(i) <- label;
  t.len <- i + 1

let record t ~actor label = if t.enabled then push t ~actor ~gid:no_gid label

let record_gid t ~actor ~gid label =
  if gid = no_gid then invalid_arg "Trace.record_gid: gid is min_int";
  if t.enabled then push t ~actor ~gid label

let label_at t i =
  let gid = t.gids.(i) in
  if gid = no_gid then t.labels.(i) else "g" ^ string_of_int gid ^ ":" ^ t.labels.(i)

let entry_at t i =
  { time = Float.Array.get t.times i; actor = t.actors.(i); label = label_at t i }

let entries t = List.init t.len (entry_at t)

let find t ~actor ~label =
  let rec scan i =
    if i >= t.len then None
    else if String.equal t.actors.(i) actor && String.equal (label_at t i) label then
      Some (Float.Array.get t.times i)
    else scan (i + 1)
  in
  scan 0

let find_all t ~label =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    if String.equal (label_at t i) label then
      out := (Float.Array.get t.times i, t.actors.(i)) :: !out
  done;
  !out

let before t ~first ~then_ =
  let rec scan seen_first i =
    if i >= t.len then false
    else
      let label = label_at t i in
      if String.equal label first && not seen_first then scan true (i + 1)
      else if String.equal label then_ then seen_first
      else scan seen_first (i + 1)
  in
  scan false 0

let length t = t.len
let clear t = t.len <- 0

let render t =
  let buf = Buffer.create 256 in
  for i = 0 to t.len - 1 do
    Buffer.add_string buf
      (Printf.sprintf "t=%8.2f  [%-12s] %s\n" (Float.Array.get t.times i) t.actors.(i)
         (label_at t i))
  done;
  Buffer.contents buf
