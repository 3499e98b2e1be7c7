module Db = Icdb_localdb.Engine
module Symbol = Icdb_util.Symbol
module Strtbl = Icdb_util.Strtbl
module Gid_store = Icdb_util.Gid_store

(* Access classification on one key: the strongest kind decides conflicts.
   A kind is an int so that it packs into a history column. *)
let k_read = 0
let k_incr = 1
let k_write = 2

(* A growable [int] column. *)
type col = { mutable a : int array; mutable n : int }

let col capacity = { a = Array.make capacity 0; n = 0 }

let push c x =
  if c.n = Array.length c.a then begin
    let a = Array.make (2 * c.n) 0 in
    Array.blit c.a 0 a 0 c.n;
    c.a <- a
  end;
  c.a.(c.n) <- x;
  c.n <- c.n + 1

(* One site's history, in commit order, as three [int] columns and no
   per-local block:
   - [heads.(i)] is local [i]'s [gid lsl 1 lor compensation];
   - [starts.(i)] is where local [i]'s accesses begin in [accs], and
     [starts.(i + 1)] where they end ([starts] holds one more entry than
     [heads], the first being 0);
   - [accs.(j)] is an access's [sym lsl 2 lor kind]: the key's graph symbol
     and the strongest kind the local used it with. A local's accesses are
     stored in the enumeration order of the scratch table they were joined
     in, which later passes replay: edge insertion order feeds cycle
     reporting, so it must stay stable.
   A local with [k] keys costs [k + 2] words and allocates no block of
   its own. *)
type history = { heads : col; starts : col; accs : col }

type t = {
  syms : Symbol.table; (* graph-wide interner for record keys *)
  histories : history Strtbl.t; (* site -> its history *)
  kinds_scratch : int Strtbl.t; (* [record_local]'s table, reset after each local *)
  outcomes : Gid_store.Bool.t; (* gid -> committed *)
  mutable locals : int;
}

let gid_of head = head asr 1
let is_compensation head = head land 1 = 1

type violation =
  | Cycle of int list
  | Dirty_read of { reader : int; aborted_writer : int; site : string }

let pp_violation fmt = function
  | Cycle gids ->
    Format.fprintf fmt "cycle: %a"
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f " -> ")
         (fun f g -> Format.fprintf f "G%d" g))
      gids
  | Dirty_read { reader; aborted_writer; site } ->
    Format.fprintf fmt "dirty access at %s: G%d used data of aborted G%d before compensation"
      site reader aborted_writer

let create () =
  {
    syms = Symbol.create ~capacity:256 ();
    histories = Strtbl.create 16;
    kinds_scratch = Strtbl.create 8;
    outcomes = Gid_store.Bool.create ();
    locals = 0;
  }

let internal_key key = String.length key >= 2 && key.[0] = '_' && key.[1] = '_'

(* Conflict-equivalent join of two kinds on the same key: a read and an
   increment by the same local conflict with everything a write does, so the
   mixed case collapses to write strength. *)
let join k1 k2 = if k1 = k2 then k1 else k_write

let add_kinds tbl accesses =
  let strengthen key kind =
    if internal_key key then ()
    else
      match Strtbl.find_opt tbl key with
      | None -> Strtbl.replace tbl key kind
      | Some k ->
        let j = join k kind in
        if j <> k then Strtbl.replace tbl key j
  in
  List.iter
    (function
      | Db.Read { key; _ } -> strengthen key k_read
      | Db.Wrote { key; _ } -> strengthen key k_write
      | Db.Incremented { key; _ } -> strengthen key k_incr)
    accesses

let kinds_of accesses =
  let tbl = Strtbl.create 8 in
  add_kinds tbl accesses;
  tbl

(* Reads commute with reads and increments with increments; every other
   pair on one key conflicts. *)
let kinds_conflict k1 k2 = k1 <> k2 || k1 = k_write

let conflict_kinds a b =
  let small, big = if Strtbl.length a <= Strtbl.length b then (a, b) else (b, a) in
  Strtbl.fold
    (fun key ka hit ->
      hit
      ||
      match Strtbl.find_opt big key with
      | None -> false
      | Some kb -> kinds_conflict ka kb)
    small false

let conflict a b = conflict_kinds (kinds_of a) (kinds_of b)

(* Appends the local's interned accesses in exactly the scratch table's
   enumeration order: every later pass walks the column instead of
   re-iterating a string table. The reset scratch table has a fresh one's
   buckets, so the order is the one a fresh table gives. *)
let record_local t ~gid ~site ~compensation accesses =
  let h =
    match Strtbl.find_opt t.histories site with
    | Some h -> h
    | None ->
      let h = { heads = col 16; starts = col 16; accs = col 64 } in
      push h.starts 0;
      Strtbl.replace t.histories site h;
      h
  in
  let tbl = t.kinds_scratch in
  add_kinds tbl accesses;
  Strtbl.iter (fun key kind -> push h.accs ((Symbol.intern t.syms key lsl 2) lor kind)) tbl;
  Strtbl.reset tbl;
  push h.heads ((gid lsl 1) lor Bool.to_int compensation);
  push h.starts h.accs.n;
  t.locals <- t.locals + 1

let record_outcome t ~gid ~committed = Gid_store.Bool.replace t.outcomes gid committed

let committed_of t gid =
  match Gid_store.Bool.find_opt t.outcomes gid with Some c -> c | None -> false

(* Empties the per-symbol [cells] of every key a site's locals touched, so
   the next site starts from "no entry". *)
let forget_keys cells h =
  let accs = h.accs.a in
  for j = 0 to h.accs.n - 1 do
    cells.(accs.(j) lsr 2) <- []
  done

(* Successor lists among committed globals, built from per-site commit order,
   and the number of edges in them.

   Per (site, key), the committed accesses in commit order split into maximal
   runs of one commuting kind: reads, or increments; every write is a run of
   its own. Two consecutive runs conflict pairwise, so a new access takes an
   edge only from each member of the previous run: any dropped edge u -> v of
   the full conflict graph is still a path through the runs between them.
   Reachability, and with it cycle existence, is unchanged, and since the
   kept edges are a subset of the full ones, a reported cycle is a real cycle
   of the full graph. An access costs one edge per previous-run member, so a
   read/write history builds at most two edges per access. *)
let edges t =
  let succ : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let count = ref 0 in
  let rec emit g2 = function
    | [] -> ()
    | g1 :: rest ->
      if g1 <> g2 then begin
        (match Hashtbl.find succ g1 with
        | out -> out := g2 :: !out
        | exception Not_found -> Hashtbl.add succ g1 (ref [ g2 ]));
        incr count
      end;
      emit g2 rest
  in
  (* The current run of each key, by graph symbol: its kind, its members
     (empty: no run yet at this site) and the previous run's members. *)
  let n = Symbol.count t.syms in
  let run_kind = Array.make n k_read in
  let members = Array.make n [] in
  let prev = Array.make n [] in
  Strtbl.iter
    (fun _site h ->
      let heads = h.heads.a and starts = h.starts.a and accs = h.accs.a in
      for i = 0 to h.heads.n - 1 do
        let head = heads.(i) in
        let gid = gid_of head in
        if (not (is_compensation head)) && committed_of t gid then
          for j = starts.(i) to starts.(i + 1) - 1 do
            let key = accs.(j) lsr 2 and kind = accs.(j) land 3 in
            match members.(key) with
            | [] ->
              run_kind.(key) <- kind;
              members.(key) <- [ gid ];
              prev.(key) <- []
            | run ->
              if run_kind.(key) = kind && kind <> k_write then members.(key) <- gid :: run
              else begin
                prev.(key) <- run;
                members.(key) <- [ gid ];
                run_kind.(key) <- kind
              end;
              emit gid prev.(key)
          done
      done;
      forget_keys members h)
    t.histories;
  (succ, !count)

let find_cycle t =
  let succ, _ = edges t in
  let state = Hashtbl.create 64 in
  (* 0 = in progress, 1 = done *)
  let exception Found of int list in
  let rec dfs path node =
    match Hashtbl.find_opt state node with
    | Some 1 -> ()
    | Some _ ->
      (* back edge: extract the cycle from the path *)
      let rec cut = function
        | [] -> []
        | x :: rest -> if x = node then [ x ] else x :: cut rest
      in
      raise (Found (List.rev (cut path)))
    | None ->
      Hashtbl.replace state node 0;
      (match Hashtbl.find_opt succ node with
      | Some out -> List.iter (dfs (node :: path)) !out
      | None -> ());
      Hashtbl.replace state node 1
  in
  try
    Hashtbl.iter (fun node _ -> dfs [ node ] node) succ;
    None
  with Found cycle -> Some cycle

(* Dirty windows: (writer position, writer gid, kind, window end). *)
(* The windows still open at position [p]: the list itself while none has
   closed, so pruning allocates only once a window expires. *)
let rec open_at p = function
  | [] -> []
  | ((_, _, _, wend) as w) :: rest as ws ->
    let open_rest = open_at p rest in
    if wend <= p then open_rest else if open_rest == rest then ws else w :: open_rest

(* Records (writer position, reader position) for each open window on the
   key whose writer conflicts with the reading local [gid]. *)
let rec note_pairs pairs ~reader gid kind = function
  | [] -> ()
  | (i, wgid, wkind, _) :: rest ->
    if wgid <> gid && kinds_conflict wkind kind then Hashtbl.replace pairs (i, reader) ();
    note_pairs pairs ~reader gid kind rest

(* A committed local conflicting with an aborted global's original local,
   positioned after it and before its compensation, read or overwrote data
   that was later compensated away.

   One forward pass per site over a per-key index: aborted locals open a
   "dirty window" on every key they changed (pure reads are harmless — the
   read-only optimization); committed locals scan the still-open windows on
   the keys they touched. Windows close at the aborted global's compensation;
   a key's list is pruned when it is next touched after one has closed, so
   the cost is O(total accesses + reported pairs) instead of the former
   O(locals^2) all-pairs window scan. *)
let dirty_reads t =
  let found = ref [] in
  (* key symbol -> open dirty windows; [] is "no entry". *)
  let open_windows = Array.make (Symbol.count t.syms) [] in
  Strtbl.iter
    (fun site h ->
      let n = h.heads.n in
      let heads = h.heads.a and starts = h.starts.a and accs = h.accs.a in
      (* Only an aborted global's local opens a dirty window, so a site
         without one has nothing to report. *)
      let rec has_aborted i =
        i < n
        && ((not (is_compensation heads.(i) || committed_of t (gid_of heads.(i))))
           || has_aborted (i + 1))
      in
      if has_aborted 0 then begin
        (* window_end.(i): index of gid's first compensation after i, or n. *)
        let window_end = Array.make n n in
        let next_comp = Hashtbl.create 16 in
        for i = n - 1 downto 0 do
          let gid = gid_of heads.(i) in
          (match Hashtbl.find next_comp gid with
          | c -> window_end.(i) <- c
          | exception Not_found -> ());
          if is_compensation heads.(i) then Hashtbl.replace next_comp gid i
        done;
        let pairs = Hashtbl.create 16 in
        for p = 0 to n - 1 do
          let head = heads.(p) in
          if not (is_compensation head) then begin
            let gid = gid_of head in
            let committed = committed_of t gid in
            for j = starts.(p) to starts.(p + 1) - 1 do
              let key = accs.(j) lsr 2 and kind = accs.(j) land 3 in
              let windows = open_at p open_windows.(key) in
              open_windows.(key) <- windows;
              if committed then note_pairs pairs ~reader:p gid kind windows
              else if kind <> k_read then
                open_windows.(key) <- (p, gid, kind, window_end.(p)) :: windows
            done
          end
        done;
        forget_keys open_windows h;
        let site_pairs = List.sort compare (Hashtbl.fold (fun ij () acc -> ij :: acc) pairs []) in
        List.iter
          (fun (i, j) ->
            found :=
              Dirty_read
                { reader = gid_of heads.(j); aborted_writer = gid_of heads.(i); site }
              :: !found)
          site_pairs
      end)
    t.histories;
  List.rev !found

let violations t =
  let cycle = match find_cycle t with Some c -> [ Cycle c ] | None -> [] in
  cycle @ dirty_reads t

let serializable t = violations t = []
let recorded_locals t = t.locals
let edge_count t = snd (edges t)
