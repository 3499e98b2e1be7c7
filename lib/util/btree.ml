(* Nodes hold exact-size sorted arrays; structural edits copy them. With a
   small fixed order the per-operation copying is O(order) and keeps every
   invariant locally obvious. Separator convention: a separator equals the
   smallest key of its right subtree, so lookups go right on equality. *)

let order = 16 (* maximum keys per node *)
let min_keys = order / 2

type 'a node = Leaf of 'a leaf | Internal of 'a internal

and 'a leaf = {
  mutable lkeys : string array;
  mutable lvals : 'a array;
  mutable next : 'a leaf option;
}

and 'a internal = { mutable seps : string array; mutable children : 'a node array }

type 'a t = { mutable root : 'a node; mutable count : int }

let new_leaf () = { lkeys = [||]; lvals = [||]; next = None }
let create () = { root = Leaf (new_leaf ()); count = 0 }

(* --- array helpers --- *)

let insert_at arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

let remove_at arr i =
  let n = Array.length arr in
  let out = Array.sub arr 0 (n - 1) in
  Array.blit arr (i + 1) out i (n - 1 - i);
  out

let sub arr lo len = Array.sub arr lo len

(* Both searches are binary and compare with [String.compare], which orders
   strings exactly as polymorphic compare does, without its dispatch. *)

(* Number of separators <= key = index of the child to descend into. *)
let child_index seps key =
  let lo = ref 0 and hi = ref (Array.length seps) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare seps.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Position of key in a sorted key array: [i >= 0] when [keys.(i) = key],
   otherwise [-(i + 1)] for the insertion point [i]. An int, not a variant,
   keeps lookups allocation-free. *)
let search keys key =
  let lo = ref 0 and hi = ref (Array.length keys) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = String.compare keys.(mid) key in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid
  done;
  if !found >= 0 then !found else -(!lo + 1)

(* --- find --- *)

let rec find_node node key =
  match node with
  | Leaf l ->
    let i = search l.lkeys key in
    if i >= 0 then Some l.lvals.(i) else None
  | Internal n -> find_node n.children.(child_index n.seps key) key

let find t key = find_node t.root key
let mem t key = Option.is_some (find t key)

(* --- insert --- *)

type 'a split = No_split | Split of string * 'a node

let split_leaf l =
  let n = Array.length l.lkeys in
  let half = n / 2 in
  let right =
    { lkeys = sub l.lkeys half (n - half); lvals = sub l.lvals half (n - half); next = l.next }
  in
  l.lkeys <- sub l.lkeys 0 half;
  l.lvals <- sub l.lvals 0 half;
  l.next <- Some right;
  Split (right.lkeys.(0), Leaf right)

let split_internal node =
  let n = Array.length node.seps in
  let mid = n / 2 in
  let up = node.seps.(mid) in
  let right =
    {
      seps = sub node.seps (mid + 1) (n - mid - 1);
      children = sub node.children (mid + 1) (n - mid);
    }
  in
  node.seps <- sub node.seps 0 mid;
  node.children <- sub node.children 0 (mid + 1);
  Split (up, Internal right)

(* Returns (added a fresh key?, split). *)
let rec insert_node node key v =
  match node with
  | Leaf l ->
    let i = search l.lkeys key in
    if i >= 0 then begin
      l.lvals.(i) <- v;
      (false, No_split)
    end
    else begin
      let i = -i - 1 in
      l.lkeys <- insert_at l.lkeys i key;
      l.lvals <- insert_at l.lvals i v;
      if Array.length l.lkeys > order then (true, split_leaf l) else (true, No_split)
    end
  | Internal n -> (
    let i = child_index n.seps key in
    let added, split = insert_node n.children.(i) key v in
    match split with
    | No_split -> (added, No_split)
    | Split (sep, right) ->
      n.seps <- insert_at n.seps i sep;
      n.children <- insert_at n.children (i + 1) right;
      if Array.length n.seps > order then (added, split_internal n) else (added, No_split))

let insert t key v =
  let added, split = insert_node t.root key v in
  (match split with
  | No_split -> ()
  | Split (sep, right) ->
    t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] });
  if added then t.count <- t.count + 1

(* --- remove --- *)

let underfull = function
  | Leaf l -> Array.length l.lkeys < min_keys
  | Internal n -> Array.length n.seps < min_keys

(* Rebalance parent's child [i], which is underfull: borrow from a sibling
   when it has spare keys, merge otherwise. *)
let rebalance parent i =
  let left_idx = i - 1 and right_idx = i + 1 in
  let child = parent.children.(i) in
  let has_left = left_idx >= 0 in
  let has_right = right_idx < Array.length parent.children in
  let spare = function
    | Leaf l -> Array.length l.lkeys > min_keys
    | Internal n -> Array.length n.seps > min_keys
  in
  match child with
  | Leaf l ->
    let borrow_left () =
      match parent.children.(left_idx) with
      | Leaf left ->
        let n = Array.length left.lkeys in
        l.lkeys <- insert_at l.lkeys 0 left.lkeys.(n - 1);
        l.lvals <- insert_at l.lvals 0 left.lvals.(n - 1);
        left.lkeys <- sub left.lkeys 0 (n - 1);
        left.lvals <- sub left.lvals 0 (n - 1);
        parent.seps.(left_idx) <- l.lkeys.(0)
      | Internal _ -> assert false
    and borrow_right () =
      match parent.children.(right_idx) with
      | Leaf right ->
        l.lkeys <- insert_at l.lkeys (Array.length l.lkeys) right.lkeys.(0);
        l.lvals <- insert_at l.lvals (Array.length l.lvals) right.lvals.(0);
        right.lkeys <- remove_at right.lkeys 0;
        right.lvals <- remove_at right.lvals 0;
        parent.seps.(i) <- right.lkeys.(0)
      | Internal _ -> assert false
    and merge_into_left () =
      match parent.children.(left_idx) with
      | Leaf left ->
        left.lkeys <- Array.append left.lkeys l.lkeys;
        left.lvals <- Array.append left.lvals l.lvals;
        left.next <- l.next;
        parent.seps <- remove_at parent.seps left_idx;
        parent.children <- remove_at parent.children i
      | Internal _ -> assert false
    and merge_right_into_child () =
      match parent.children.(right_idx) with
      | Leaf right ->
        l.lkeys <- Array.append l.lkeys right.lkeys;
        l.lvals <- Array.append l.lvals right.lvals;
        l.next <- right.next;
        parent.seps <- remove_at parent.seps i;
        parent.children <- remove_at parent.children right_idx
      | Internal _ -> assert false
    in
    if has_left && spare parent.children.(left_idx) then borrow_left ()
    else if has_right && spare parent.children.(right_idx) then borrow_right ()
    else if has_left then merge_into_left ()
    else merge_right_into_child ()
  | Internal c ->
    let borrow_left () =
      match parent.children.(left_idx) with
      | Internal left ->
        let n = Array.length left.seps in
        c.seps <- insert_at c.seps 0 parent.seps.(left_idx);
        c.children <- insert_at c.children 0 left.children.(n);
        parent.seps.(left_idx) <- left.seps.(n - 1);
        left.seps <- sub left.seps 0 (n - 1);
        left.children <- sub left.children 0 n
      | Leaf _ -> assert false
    and borrow_right () =
      match parent.children.(right_idx) with
      | Internal right ->
        c.seps <- insert_at c.seps (Array.length c.seps) parent.seps.(i);
        c.children <- insert_at c.children (Array.length c.children) right.children.(0);
        parent.seps.(i) <- right.seps.(0);
        right.seps <- remove_at right.seps 0;
        right.children <- remove_at right.children 0
      | Leaf _ -> assert false
    and merge_into_left () =
      match parent.children.(left_idx) with
      | Internal left ->
        left.seps <- Array.concat [ left.seps; [| parent.seps.(left_idx) |]; c.seps ];
        left.children <- Array.append left.children c.children;
        parent.seps <- remove_at parent.seps left_idx;
        parent.children <- remove_at parent.children i
      | Leaf _ -> assert false
    and merge_right_into_child () =
      match parent.children.(right_idx) with
      | Internal right ->
        c.seps <- Array.concat [ c.seps; [| parent.seps.(i) |]; right.seps ];
        c.children <- Array.append c.children right.children;
        parent.seps <- remove_at parent.seps i;
        parent.children <- remove_at parent.children right_idx
      | Leaf _ -> assert false
    in
    if has_left && spare parent.children.(left_idx) then borrow_left ()
    else if has_right && spare parent.children.(right_idx) then borrow_right ()
    else if has_left then merge_into_left ()
    else merge_right_into_child ()

let rec remove_node node key =
  match node with
  | Leaf l ->
    let i = search l.lkeys key in
    if i < 0 then false
    else begin
      l.lkeys <- remove_at l.lkeys i;
      l.lvals <- remove_at l.lvals i;
      true
    end
  | Internal n ->
    let i = child_index n.seps key in
    let removed = remove_node n.children.(i) key in
    if removed && underfull n.children.(i) then rebalance n i;
    removed

let remove t key =
  let removed = remove_node t.root key in
  if removed then begin
    t.count <- t.count - 1;
    match t.root with
    | Internal n when Array.length n.children = 1 -> t.root <- n.children.(0)
    | Internal _ | Leaf _ -> ()
  end;
  removed

(* --- traversal --- *)

let rec leftmost = function
  | Leaf l -> l
  | Internal n -> leftmost n.children.(0)

let iter t f =
  let rec walk = function
    | None -> ()
    | Some l ->
      Array.iteri (fun i key -> f key l.lvals.(i)) l.lkeys;
      walk l.next
  in
  walk (Some (leftmost t.root))

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun key v -> acc := f !acc key v);
  !acc

let range t ~lo ~hi f =
  let start =
    match lo with
    | None -> leftmost t.root
    | Some key ->
      let rec descend = function
        | Leaf l -> l
        | Internal n -> descend n.children.(child_index n.seps key)
      in
      descend t.root
  in
  let above_lo key = match lo with None -> true | Some b -> key >= b in
  let below_hi key = match hi with None -> true | Some b -> key <= b in
  let exception Done in
  let rec walk = function
    | None -> ()
    | Some l ->
      Array.iteri
        (fun i key ->
          if not (below_hi key) then raise Done
          else if above_lo key then f key l.lvals.(i))
        l.lkeys;
      walk l.next
  in
  try walk (Some start) with Done -> ()

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc key v -> (key, v) :: acc))
let keys t = List.rev (fold t ~init:[] ~f:(fun acc key _ -> key :: acc))

let size t = t.count
let is_empty t = t.count = 0

let min_binding t =
  let rec first = function
    | None -> None
    | Some l -> if Array.length l.lkeys > 0 then Some (l.lkeys.(0), l.lvals.(0)) else first l.next
  in
  first (Some (leftmost t.root))

let max_binding t =
  let rec rightmost = function
    | Leaf l ->
      let n = Array.length l.lkeys in
      if n = 0 then None else Some (l.lkeys.(n - 1), l.lvals.(n - 1))
    | Internal n -> rightmost n.children.(Array.length n.children - 1)
  in
  rightmost t.root

let height t =
  let rec depth = function Leaf _ -> 1 | Internal n -> 1 + depth n.children.(0) in
  depth t.root

(* --- invariants --- *)

let invariant_check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let check_sorted keys where =
    Array.iteri
      (fun i k -> if i > 0 && keys.(i - 1) >= k then fail "%s: keys out of order at %d" where i)
      keys
  in
  let leaf_depth = ref (-1) in
  let counted = ref 0 in
  (* Bounds are exclusive lo / exclusive hi; separators tighten them. *)
  let rec walk node ~lo ~hi ~depth ~is_root =
    let in_bounds k =
      (match lo with None -> true | Some b -> k >= b)
      && match hi with None -> true | Some b -> k < b
    in
    match node with
    | Leaf l ->
      check_sorted l.lkeys "leaf";
      Array.iter (fun k -> if not (in_bounds k) then fail "leaf key %s out of bounds" k) l.lkeys;
      if (not is_root) && Array.length l.lkeys < min_keys then fail "leaf underfull";
      if !leaf_depth = -1 then leaf_depth := depth
      else if !leaf_depth <> depth then fail "unbalanced leaves";
      counted := !counted + Array.length l.lkeys
    | Internal n ->
      check_sorted n.seps "internal";
      if Array.length n.children <> Array.length n.seps + 1 then fail "child count mismatch";
      if (not is_root) && Array.length n.seps < min_keys then fail "internal underfull";
      if is_root && Array.length n.seps < 1 then fail "internal root empty";
      Array.iter (fun s -> if not (in_bounds s) then fail "separator %s out of bounds" s) n.seps;
      Array.iteri
        (fun i child ->
          let lo' = if i = 0 then lo else Some n.seps.(i - 1) in
          let hi' = if i = Array.length n.seps then hi else Some n.seps.(i) in
          walk child ~lo:lo' ~hi:hi' ~depth:(depth + 1) ~is_root:false)
        n.children
  in
  walk t.root ~lo:None ~hi:None ~depth:0 ~is_root:true;
  if !counted <> t.count then fail "size mismatch: counted %d, recorded %d" !counted t.count;
  (* The leaf chain must enumerate exactly the in-order keys. *)
  let chain = ref [] in
  let rec follow = function
    | None -> ()
    | Some l ->
      Array.iter (fun k -> chain := k :: !chain) l.lkeys;
      follow l.next
  in
  follow (Some (leftmost t.root));
  let chain = List.rev !chain in
  if List.length chain <> t.count then fail "leaf chain misses keys";
  ignore
    (List.fold_left
       (fun prev k ->
         (match prev with Some p when p >= k -> fail "leaf chain out of order" | _ -> ());
         Some k)
       None chain)
