type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let copy t = { state = t.state }

(* SplitMix64 output function: one additive step plus two xor-shift-multiply
   mixing rounds (variant "mix64" from the reference implementation). *)
let next_state t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = mix64 (next_state t)

let split t = { state = bits64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits to avoid modulo bias. *)
  let mask = Int64.shift_right_logical Int64.minus_one 2 in
  let rec loop () =
    let r = Int64.to_int (Int64.logand (bits64 t) mask) in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then loop () else v
  in
  loop ()

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniformly distributed mantissa bits. *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0)

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_distinct t ~n ~bound =
  if n < 0 || n > bound then invalid_arg "Rng.sample_distinct";
  (* Floyd's algorithm: O(n) draws, no O(bound) allocation. The values
     taken so far are the seen set; n is small (a transaction's sites or
     shards), so scanning them is cheaper than hashing. *)
  let acc = ref [] in
  for j = bound - n to bound - 1 do
    let v = int t (j + 1) in
    let v = if List.mem v !acc then j else v in
    acc := v :: !acc
  done;
  !acc
