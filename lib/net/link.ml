module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Rng = Icdb_util.Rng
module Strtbl = Icdb_util.Strtbl

type observer_event =
  | Msg_sent of { label : string }
  | Msg_received of { label : string }
  | Msg_dropped of { label : string }

exception Unreachable of string

type t = {
  engine : Sim.t;
  mutable latency : float;
  mutable loss : float;
  mutable dup : float;
  mutable max_retries : int option;
  rng : Rng.t;
  retry_timeout : float;
  counts : int ref Strtbl.t;
  (* Receiver-side dedup state orphaned by a sender that exhausted its retry
     budget: the receiver keeps the memoized reply for the abandoned request
     id (a late copy could still arrive) until the owning global transaction
     closes its journal entry and {!evict_gid} reclaims it. gid -> label,
     multi-binding. *)
  orphans : (int, string) Hashtbl.t;
  mutable total : int;
  mutable dropped : int;
  mutable observer : observer_event -> unit;
}

let create engine ~latency ?(loss = 0.0) ?(loss_seed = 7L) ?retry_timeout
    ?max_retries () =
  if latency < 0.0 then invalid_arg "Link.create: negative latency";
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Link.create: loss must be in [0,1)";
  (match max_retries with
  | Some n when n < 0 -> invalid_arg "Link.create: negative max_retries"
  | Some _ | None -> ());
  {
    engine;
    latency;
    loss;
    dup = 0.0;
    max_retries;
    rng = Rng.create loss_seed;
    retry_timeout =
      (match retry_timeout with Some r -> r | None -> (6.0 *. latency) +. 1.0);
    counts = Strtbl.create 16;
    orphans = Hashtbl.create 4;
    total = 0;
    dropped = 0;
    observer = (fun _ -> ());
  }

(* The per-label counter is a cached [int ref]: after the first message with
   a given label the hot path is a [Strtbl.find] (no option allocation) and
   an in-place increment — no per-message allocation. *)
let counter t label =
  match Strtbl.find t.counts label with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Strtbl.add t.counts label r;
    r

let count t label =
  t.total <- t.total + 1;
  incr (counter t label);
  t.observer (Msg_sent { label })

(* A logical message riding inside a batch envelope: visible in the
   per-label counts and to observers, but not a wire message of its own
   (the envelope already paid for the wire). *)
let count_piggyback t ~label =
  incr (counter t label);
  t.observer (Msg_sent { label })

let lost t ~label =
  t.loss > 0.0
  &&
  let drop = Rng.bernoulli t.rng t.loss in
  if drop then begin
    t.dropped <- t.dropped + 1;
    t.observer (Msg_dropped { label })
  end;
  drop

(* Fault injection: a duplicated delivery is an extra copy of a message that
   already got through — counted on the wire and delivered, but deduplicated
   by the receiver (no second handler run, no extra latency charge: the copy
   travels alongside the original). The guard keeps the rng untouched when
   duplication is off, so default runs are byte-identical. *)
let maybe_duplicate t ~label =
  if t.dup > 0.0 && Rng.bernoulli t.rng t.dup then begin
    count t label;
    t.observer (Msg_received { label })
  end

(* [retry ~gid ~delivered label n] either waits out the retransmission timer
   or — with the retry budget exhausted — gives the exchange up. A receiver
   that did see a request copy keeps its memoized reply; record the orphan so
   journal-close can evict it. *)
let check_budget t ?gid ~delivered label n =
  match t.max_retries with
  | Some cap when n > cap ->
    (match gid with
    | Some g when delivered -> Hashtbl.add t.orphans g label
    | Some _ | None -> ());
    raise (Unreachable label)
  | Some _ | None -> ()

(* At-least-once request/reply with receiver-side dedup: the handler runs on
   the first request copy that arrives; later copies replay the memoized
   reply. Every copy pays a latency and is counted. *)
let rpc ?gid t ~label f =
  let executed = ref None in
  let delivered = ref false in
  let rec attempt n =
    count t label;
    if lost t ~label then begin
      (* request copy dropped: wait out the retransmission timer *)
      check_budget t ?gid ~delivered:!delivered label n;
      Fiber.sleep t.engine t.retry_timeout;
      attempt (n + 1)
    end
    else begin
      Fiber.sleep t.engine t.latency;
      t.observer (Msg_received { label });
      delivered := true;
      maybe_duplicate t ~label;
      let reply_label, value =
        match !executed with
        | Some reply -> reply
        | None ->
          let reply = f () in
          executed := Some reply;
          reply
      in
      count t reply_label;
      if lost t ~label:reply_label then begin
        (* reply copy dropped *)
        check_budget t ?gid ~delivered:!delivered label n;
        Fiber.sleep t.engine t.retry_timeout;
        attempt (n + 1)
      end
      else begin
        Fiber.sleep t.engine t.latency;
        t.observer (Msg_received { label = reply_label });
        maybe_duplicate t ~label:reply_label;
        value
      end
    end
  in
  attempt 1

(* One-way datagram, retransmitted blindly until a copy gets through; the
   effect runs once (on the first delivered copy). An exhausted retry budget
   leaves no receiver state behind (nothing was ever delivered), so no
   orphan is recorded. *)
let send ?gid t ~label f =
  ignore gid;
  let rec attempt n =
    count t label;
    if lost t ~label then begin
      check_budget t ~delivered:false label n;
      Fiber.sleep t.engine t.retry_timeout;
      attempt (n + 1)
    end
    else begin
      Fiber.sleep t.engine t.latency;
      t.observer (Msg_received { label });
      maybe_duplicate t ~label;
      f ()
    end
  in
  attempt 1

let message_count t = t.total

let messages_by_label t =
  Strtbl.fold
    (fun label r acc -> if !r = 0 then acc else (label, !r) :: acc)
    t.counts []
  |> List.sort compare

let dropped_count t = t.dropped

let reset_counters t =
  (* Zero the refs in place (rather than [Hashtbl.reset]) so refs cached by
     long-lived senders keep counting into the same cells. *)
  Strtbl.iter (fun _ r -> r := 0) t.counts;
  t.total <- 0;
  t.dropped <- 0

let latency t = t.latency

let set_latency t l =
  if l < 0.0 then invalid_arg "Link.set_latency: negative latency";
  t.latency <- l

let set_loss t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Link.set_loss: loss must be in [0,1)";
  t.loss <- p

let set_duplication t p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg "Link.set_duplication: probability must be in [0,1)";
  t.dup <- p

let set_max_retries t n =
  (match n with
  | Some n when n < 0 -> invalid_arg "Link.set_max_retries: negative cap"
  | Some _ | None -> ());
  t.max_retries <- n

let orphan_count t = Hashtbl.length t.orphans

let evict_gid t ~gid =
  while Hashtbl.mem t.orphans gid do
    Hashtbl.remove t.orphans gid
  done

let set_observer t f = t.observer <- f
