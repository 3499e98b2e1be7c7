module Symbol = Icdb_util.Symbol

type clazz = string

(* Optional per-instance memo: commutativity and combination answers keyed
   by the packed pair of interned class ids. Only {!memoized} instances
   carry one, and each federation makes its own; the shared module-level
   relations stay immutable, so every federation can read them. *)
type memo = {
  syms : Symbol.table;
  commute_memo : (int, bool) Hashtbl.t;
  combine_memo : (int, clazz) Hashtbl.t;
}

type t = { commuting : (clazz * clazz, unit) Hashtbl.t; memo : memo option }

let of_commuting_pairs pairs =
  let commuting = Hashtbl.create 32 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace commuting (a, b) ();
      Hashtbl.replace commuting (b, a) ())
    pairs;
  { commuting; memo = None }

let memoized t =
  {
    t with
    memo =
      Some
        {
          syms = Symbol.create ~capacity:32 ();
          commute_memo = Hashtbl.create 64;
          combine_memo = Hashtbl.create 64;
        };
  }

let commute_base t a b = Hashtbl.mem t.commuting (a, b)

(* Re-entrant L1 requests merge classes into a '+'-joined synthetic class
   that conflicts like the union of its parts. *)
let parts c = String.split_on_char '+' c

let commute_raw t c1 c2 =
  List.for_all (fun a -> List.for_all (fun b -> commute_base t a b) (parts c2)) (parts c1)

(* The class universe is tiny (named classes plus their '+'-joins), so two
   interned ids pack into one immediate int. *)
let pack a b = (a lsl 16) lor b

let commute t c1 c2 =
  match t.memo with
  | None -> commute_raw t c1 c2
  | Some m -> (
    let key = pack (Symbol.intern m.syms c1) (Symbol.intern m.syms c2) in
    match Hashtbl.find_opt m.commute_memo key with
    | Some answer -> answer
    | None ->
      let answer = commute_raw t c1 c2 in
      Hashtbl.replace m.commute_memo key answer;
      answer)

let compatible = commute

let combine_raw c1 c2 =
  if c1 = c2 then c1
  else String.concat "+" (List.sort_uniq compare (parts c1 @ parts c2))

let combine t c1 c2 =
  match t.memo with
  | None -> combine_raw c1 c2
  | Some m -> (
    let key = pack (Symbol.intern m.syms c1) (Symbol.intern m.syms c2) in
    match Hashtbl.find_opt m.combine_memo key with
    | Some c -> c
    | None ->
      let c = combine_raw c1 c2 in
      Hashtbl.replace m.combine_memo key c;
      c)

let read_write_increment =
  of_commuting_pairs
    [
      ("read", "read");
      ("increment", "increment");
      ("increment", "decrement");
      ("decrement", "decrement");
    ]

let banking =
  of_commuting_pairs
    [
      ("deposit", "deposit");
      ("deposit", "withdraw");
      ("withdraw", "withdraw");
      ("deposit", "transfer-in");
      ("deposit", "transfer-out");
      ("withdraw", "transfer-in");
      ("withdraw", "transfer-out");
      ("transfer-in", "transfer-in");
      ("transfer-in", "transfer-out");
      ("transfer-out", "transfer-out");
      ("read-balance", "read-balance");
    ]
