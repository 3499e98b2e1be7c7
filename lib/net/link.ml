module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Rng = Icdb_util.Rng

type observer_event =
  | Msg_sent of { label : string; slot : int }
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
  (* Per-label message counts, by label slot: a label takes the next slot
     the first time this link carries it, and keeps it for the link's
     life. [sent_events]/[received_events] hold each slot's observer
     event, built once, so reporting a message allocates nothing. *)
  mutable n_labels : int;
  mutable labels : string array;
  mutable counts : int array;
  mutable sent_events : observer_event array;
  mutable received_events : observer_event array;
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
    n_labels = 0;
    labels = [||];
    counts = [||];
    sent_events = [||];
    received_events = [||];
    orphans = Hashtbl.create 4;
    total = 0;
    dropped = 0;
    observer = (fun _ -> ());
  }

(* Label -> slot is a linear scan over the few labels a link carries
   (about ten). Protocol labels are string literals, so the physical
   comparison of the first pass finds them; a label built at run time is
   found by the [String.equal] pass. Both are top-level functions: a local
   recursive closure would allocate on every message. *)
let rec find_physical labels label i n =
  if i = n then -1
  else if labels.(i) == label then i
  else find_physical labels label (i + 1) n

let rec find_equal labels label i n =
  if i = n then -1
  else if String.equal labels.(i) label then i
  else find_equal labels label (i + 1) n

let grow a fill n = Array.append a (Array.make (max 8 n) fill)

let add_label t label =
  let slot = t.n_labels in
  if slot = Array.length t.labels then begin
    t.labels <- grow t.labels "" slot;
    t.counts <- grow t.counts 0 slot;
    let none = Msg_dropped { label = "" } in
    t.sent_events <- grow t.sent_events none slot;
    t.received_events <- grow t.received_events none slot
  end;
  t.labels.(slot) <- label;
  t.sent_events.(slot) <- Msg_sent { label; slot };
  t.received_events.(slot) <- Msg_received { label };
  t.n_labels <- slot + 1;
  slot

let slot t label =
  let s = find_physical t.labels label 0 t.n_labels in
  if s >= 0 then s
  else
    let s = find_equal t.labels label 0 t.n_labels in
    if s >= 0 then s else add_label t label

(* Count one logical message labelled [label] and report it to the
   observer; returns the label's slot. *)
let count_label t label =
  let s = slot t label in
  t.counts.(s) <- t.counts.(s) + 1;
  t.observer t.sent_events.(s);
  s

let count t label =
  t.total <- t.total + 1;
  count_label t label

let received t s = t.observer t.received_events.(s)

(* A logical message riding inside a batch envelope: visible in the
   per-label counts and to observers, but not a wire message of its own
   (the envelope already paid for the wire). *)
let count_piggyback t ~label = ignore (count_label t label)

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
  if t.dup > 0.0 && Rng.bernoulli t.rng t.dup then received t (count t label)

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
    let request = count t label in
    if lost t ~label then begin
      (* request copy dropped: wait out the retransmission timer *)
      check_budget t ?gid ~delivered:!delivered label n;
      Fiber.sleep t.engine t.retry_timeout;
      attempt (n + 1)
    end
    else begin
      Fiber.sleep t.engine t.latency;
      received t request;
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
      let reply = count t reply_label in
      if lost t ~label:reply_label then begin
        (* reply copy dropped *)
        check_budget t ?gid ~delivered:!delivered label n;
        Fiber.sleep t.engine t.retry_timeout;
        attempt (n + 1)
      end
      else begin
        Fiber.sleep t.engine t.latency;
        received t reply;
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
    let request = count t label in
    if lost t ~label then begin
      check_budget t ~delivered:false label n;
      Fiber.sleep t.engine t.retry_timeout;
      attempt (n + 1)
    end
    else begin
      Fiber.sleep t.engine t.latency;
      received t request;
      maybe_duplicate t ~label;
      f ()
    end
  in
  attempt 1

let message_count t = t.total

let messages_by_label t =
  let rec collect i acc =
    if i < 0 then acc
    else
      let acc = if t.counts.(i) = 0 then acc else (t.labels.(i), t.counts.(i)) :: acc in
      collect (i - 1) acc
  in
  List.sort compare (collect (t.n_labels - 1) [])

let dropped_count t = t.dropped

let reset_counters t =
  (* Zero the counts in place: every label keeps its slot, so slots cached
     by observers stay valid. *)
  Array.fill t.counts 0 t.n_labels 0;
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

let orphan_count t = Hashtbl.length t.orphans

let evict_gid t ~gid =
  (* runs for every link on every journal close; almost always nothing to
     evict *)
  if Hashtbl.length t.orphans > 0 then
    while Hashtbl.mem t.orphans gid do
      Hashtbl.remove t.orphans gid
    done

let set_observer t f = t.observer <- f
