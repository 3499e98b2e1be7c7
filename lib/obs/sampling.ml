(* Deterministic per-transaction head sampling.

   The keep/drop decision for a transaction is a pure function of
   (seed, gid): a splitmix64 mix of the two, mapped to [0,1) and compared
   against the rate. Every event kind that carries the gid (the txn span,
   its phases, branches and the decision instant) shares the transaction's
   fate, so a sampled trace always contains whole transactions — and the
   decision is identical on any domain and in any run order, because no
   run-order state is involved. *)

let splitmix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let keep ~seed ~rate gid =
  if rate >= 1.0 then true
  else if rate <= 0.0 then false
  else begin
    let h = splitmix64 (Int64.add seed (Int64.mul (Int64.of_int gid) 0x9e3779b97f4a7c15L)) in
    (* top 53 bits → uniform in [0,1) *)
    let u = Int64.to_float (Int64.shift_right_logical h 11) *. 0x1.0p-53 in
    u < rate
  end

let kind_filter ~seed ~rate =
  fun (kind : Span.kind) ->
    match kind with
    | Span.Txn { gid; _ }
    | Span.Phase { gid; _ }
    | Span.Branch { gid; _ }
    | Span.Decision { gid; _ } -> keep ~seed ~rate gid
    | Span.Outage _ | Span.Mark _ -> true
    | Span.Message _ | Span.Lock_wait _ | Span.Lock_hold _ | Span.Wal_force _ ->
      (* no gid to key on: these high-volume kinds are dropped whenever the
         trace is sampled at all *)
      rate >= 1.0
