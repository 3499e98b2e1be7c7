type op =
  | Read of string
  | Write of string * int
  | Increment of string * int
  | Delete of string

type t = op list

let pp_op fmt = function
  | Read k -> Format.fprintf fmt "read(%s)" k
  | Write (k, v) -> Format.fprintf fmt "write(%s,%d)" k v
  | Increment (k, d) -> Format.fprintf fmt "incr(%s,%+d)" k d
  | Delete k -> Format.fprintf fmt "delete(%s)" k

let pp fmt p =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp_op)
    p

let to_string p = Format.asprintf "%a" pp p

let run db txn p =
  let rec go = function
    | [] -> Ok ()
    | op :: rest -> (
      let result =
        match op with
        | Read k -> Result.map (fun _ -> ()) (Engine.read db txn k)
        | Write (k, v) -> Engine.write db txn ~key:k ~value:v
        | Increment (k, d) -> Engine.increment db txn ~key:k ~delta:d
        | Delete k -> Engine.delete db txn k
      in
      match result with Ok () -> go rest | Error _ as e -> e)
  in
  go p

let key_of = function Read k | Write (k, _) | Increment (k, _) | Delete k -> k

let keys p = List.sort_uniq compare (List.map key_of p)

let intent_rank = function `Read -> 0 | `Increment -> 1 | `Write -> 2

let intent_of = function
  | Read _ -> `Read
  | Increment _ -> `Increment
  | Write _ | Delete _ -> `Write

(* Sort by key, then keep the strongest intent of each run of equal keys. *)
let intents p =
  List.map (fun op -> (key_of op, intent_of op)) p
  |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
  |> List.fold_left
       (fun acc (key, intent) ->
         match acc with
         | (k, old) :: rest when String.equal k key ->
           if intent_rank old >= intent_rank intent then acc else (key, intent) :: rest
         | _ -> (key, intent) :: acc)
       []
  |> List.rev

let inverse_of_accesses accesses =
  List.fold_left
    (fun acc access ->
      match access with
      | Engine.Read _ -> acc
      | Engine.Incremented { key; delta } -> Increment (key, -delta) :: acc
      | Engine.Wrote { key; before = Some b; after = _ } -> Write (key, b) :: acc
      | Engine.Wrote { key; before = None; after = Some _ } -> Delete key :: acc
      | Engine.Wrote { before = None; after = None; _ } -> acc)
    [] accesses

let is_read_only p = List.for_all (function Read _ -> true | _ -> false) p
