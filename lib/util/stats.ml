module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)

  let min t =
    if t.count = 0 then invalid_arg "Stats.Summary.min: empty";
    t.min

  let max t =
    if t.count = 0 then invalid_arg "Stats.Summary.max: empty";
    t.max

  let total t = t.total
end

module Sample = struct
  type t = {
    mutable values : float array;
    mutable len : int;
    mutable sorted : float array option; (* cache, invalidated by [add] *)
  }

  let create () = { values = Array.make 16 0.0; len = 0; sorted = None }

  let add t x =
    if t.len = Array.length t.values then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.values 0 bigger 0 t.len;
      t.values <- bigger
    end;
    t.values.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- None

  let count t = t.len

  let mean t =
    if t.len = 0 then 0.0
    else begin
      let acc = ref 0.0 in
      for i = 0 to t.len - 1 do
        acc := !acc +. t.values.(i)
      done;
      !acc /. float_of_int t.len
    end

  let values t = Array.sub t.values 0 t.len

  let sorted_values t =
    match t.sorted with
    | Some s -> s
    | None ->
      let s = Array.sub t.values 0 t.len in
      Array.sort Float.compare s;
      t.sorted <- Some s;
      s

  let percentile t p =
    if t.len = 0 then invalid_arg "Stats.Sample.percentile: empty";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Sample.percentile: p out of range";
    let sorted = sorted_values t in
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))
    end

  let median t = percentile t 50.0
end

let histogram ~buckets values =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  if Array.length values = 0 then [||]
  else begin
    let lo = Array.fold_left Float.min infinity values in
    let hi = Array.fold_left Float.max neg_infinity values in
    let width = if hi > lo then (hi -. lo) /. float_of_int buckets else 1.0 in
    let counts = Array.make buckets 0 in
    let bucket_of x =
      let b = int_of_float ((x -. lo) /. width) in
      if b >= buckets then buckets - 1 else if b < 0 then 0 else b
    in
    Array.iter (fun x -> counts.(bucket_of x) <- counts.(bucket_of x) + 1) values;
    Array.mapi (fun i c -> (lo +. (float_of_int i *. width), c)) counts
  end
