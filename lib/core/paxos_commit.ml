module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Site = Icdb_net.Site
module Link = Icdb_net.Link
module Registry = Icdb_obs.Registry
module Tracer = Icdb_obs.Tracer
module Span = Icdb_obs.Span
module Gid_store = Icdb_util.Gid_store

(* Paxos Commit (Gray & Lamport) over the federation's decision log: the
   per-transaction commit/abort record — the one thing 2PC forces at a
   single coordinator — becomes a consensus instance replicated across
   2F+1 acceptor sites. The coordinator of a gid is that instance's initial
   leader and owns ballot 0, so the fault-free fast path is a single accept
   round (no prepare); a crashed leader is replaced by a new one that runs
   the classic prepare/accept rounds at a higher ballot and completes the
   transaction from whatever the acceptor quorum remembers
   ({!Central_recovery.takeover}). Acceptor state is per-site stable
   storage: it survives site crashes exactly like the WAL and decision log
   do, but a down acceptor answers nothing until its restart. *)

module Acceptor = struct
  (* One consensus instance (= one gid) at one acceptor is one int of
     [state]: [promised], the highest ballot this acceptor will still vote
     in, and [accepted], the last (ballot, value) it voted for. Both are
     forced before they are ever acknowledged, which is what [forces]
     counts.
       bits 0 .. 29   promised + 1 (0: nothing promised)
       bit 30         a vote was cast
       bit 31         its value
       bits 32 .. 61  its ballot
     A gid the column never saw reads 0: promised -1, no vote. *)
  let ballot_bits = 30
  let promised_mask = (1 lsl ballot_bits) - 1
  let max_ballot = promised_mask - 1
  let voted = 1 lsl ballot_bits
  let voted_commit = 1 lsl (ballot_bits + 1)
  let vote_shift = ballot_bits + 2

  type t = { site : Site.t; state : Gid_store.Int.t; mutable forces : int }

  let create site = { site; state = Gid_store.Int.create (); forces = 0 }
  let name t = Site.name t.site
  let forces t = t.forces
  let promised s = (s land promised_mask) - 1

  let check_ballot ballot =
    if ballot < 0 || ballot > max_ballot then
      invalid_arg "Paxos_commit.Acceptor: ballot outside 0 .. 2^30 - 2"

  let accepted t ~gid =
    let s = Gid_store.Int.get t.state gid in
    if s land voted = 0 then None else Some (s lsr vote_shift, s land voted_commit <> 0)

  (* Phase 2a/2b: vote for (ballot, value) unless a higher ballot was
     promised. A vote is forced to stable storage before the ack. *)
  let receive_accept t ~gid ~ballot ~value =
    check_ballot ballot;
    if ballot >= promised (Gid_store.Int.get t.state gid) then begin
      Gid_store.Int.set t.state gid
        ((ballot lsl vote_shift)
        lor (if value then voted_commit else 0)
        lor voted lor (ballot + 1));
      t.forces <- t.forces + 1;
      true
    end
    else false

  (* Phase 1a/1b: promise [ballot] (forced) and report the last accepted
     vote, or reject if an equal-or-higher ballot was already promised. *)
  type promise = Rejected | Promised of (int * bool) option

  let receive_prepare t ~gid ~ballot =
    check_ballot ballot;
    let s = Gid_store.Int.get t.state gid in
    if ballot > promised s then begin
      Gid_store.Int.set t.state gid (s land lnot promised_mask lor (ballot + 1));
      t.forces <- t.forces + 1;
      Promised (accepted t ~gid)
    end
    else Rejected
end

(* An acceptor group: the 2F+1 sites replicating one coordinator's decision
   log. The leader is co-located with the coordinator (the paper's
   co-location optimization: the leader's own vote costs no message), but
   for symmetry and simpler accounting every group member — leader
   included — is reached through its site link. *)
type group = { members : Acceptor.t array }

type t = {
  fed : Federation.t;
  acceptors : int;
  failover_delay : float;
  groups : (Federation.coordinator * group) list;
      (* one per coordinator, the central system's first *)
  ballots : Gid_store.Int.t;  (* gid -> highest ballot issued here, 0 if none *)
  mutable rounds : int;  (* accept rounds driven (ballot 0 and recovery) *)
  mutable failovers : int;
  rounds_c : Registry.counter;
  forces_c : Registry.counter;
  failovers_c : Registry.counter;
}

let quorum group = (Array.length group.members / 2) + 1

(* A gid's consensus instance lives in its owner's group. *)
let group_for t ~gid = List.assq (Federation.owner t.fed ~gid) t.groups

(* Run [call] against every group member in its own fiber; resume the
   caller once [quorum] members voted yes, or — so the wait always ends —
   once every member has answered. Late acks land on a single-use resumer
   and are no-ops; a fiber blocked on a crashed acceptor's [Site.await_up]
   finishes after the site restarts and keeps the engine drainable. *)
let quorum_round group ~call =
  let n = Array.length group.members in
  let need = quorum group in
  Fiber.await (fun resume ->
      let acked = ref 0 and responded = ref 0 in
      Array.iter
        (fun acc ->
          Fiber.spawn
            (Site.engine acc.Acceptor.site)
            (fun () ->
              let ok = try call acc with Link.Unreachable _ -> false in
              if ok then incr acked;
              incr responded;
              if !acked >= need then resume (Ok true)
              else if !responded = n then resume (Ok (!acked >= need))))
        group.members)

(* One accept round at [ballot]: the fault-free commit path when the
   coordinator (ballot 0, phase 1 skipped) calls it from [journal_decide],
   and the second half of a new leader's recovery otherwise. The calling
   fiber blocks until the value is durable at a quorum. *)
let accept_round t ~gid ~ballot ~value =
  t.rounds <- t.rounds + 1;
  Registry.inc t.rounds_c;
  let group = group_for t ~gid in
  ignore
    (quorum_round group ~call:(fun acc ->
         Link.rpc ~gid (Site.link acc.site) ~label:"paxos-accept" (fun () ->
             Site.await_up acc.site;
             let ok = Acceptor.receive_accept acc ~gid ~ballot ~value in
             if ok then Registry.inc t.forces_c;
             ("paxos-accepted", ok))))

let replicate t ~gid ~commit = accept_round t ~gid ~ballot:0 ~value:commit

(* What the acceptor quorum remembers about a gid: the highest-ballot
   accepted value, if any acceptor voted. This is a stable-storage read —
   recovery reading the replicated log — so it costs no messages; the
   message-paying ballot protocol is {!failover} below. *)
let read_decision t ~gid =
  let group = group_for t ~gid in
  let best = ref None in
  Array.iter
    (fun acc ->
      match Acceptor.accepted acc ~gid with
      | Some (b, v) -> (
        match !best with
        | Some (b', _) when b' >= b -> ()
        | _ -> best := Some (b, v))
      | None -> ())
    group.members;
  Option.map snd !best

let next_ballot t ~gid =
  let b = 1 + Gid_store.Int.get t.ballots gid in
  Gid_store.Int.set t.ballots gid b;
  b

(* Is the gid's journal entry still open at its owner? A closed entry means
   the transaction finished and there is nothing to fail over. *)
let still_open t ~gid = Hashtbl.mem (Federation.owner t.fed ~gid).journal gid

(* New-leader election for one in-doubt transaction, triggered by a fault
   injector right after it simulated the coordinator's crash. After a
   failover delay (detection + election), the new leader runs phase 1 at a
   higher ballot over the quorum, re-proposes whatever value the quorum
   remembers (abort when it remembers nothing — presumed abort), makes it
   durable with an accept round, and completes the transaction via
   {!Central_recovery.takeover} — all without waiting for the crashed
   coordinator to restart. *)
let failover t ~gid =
  t.failovers <- t.failovers + 1;
  Registry.inc t.failovers_c;
  let fed = t.fed in
  Fiber.spawn fed.Federation.engine (fun () ->
      Fiber.sleep fed.Federation.engine t.failover_delay;
      if still_open t ~gid then begin
        let ballot = next_ballot t ~gid in
        let group = group_for t ~gid in
        let promised =
          quorum_round group ~call:(fun acc ->
              Link.rpc ~gid (Site.link acc.site) ~label:"paxos-prepare" (fun () ->
                  Site.await_up acc.site;
                  match Acceptor.receive_prepare acc ~gid ~ballot with
                  | Acceptor.Promised _ ->
                    Registry.inc t.forces_c;
                    ("paxos-promise", true)
                  | Acceptor.Rejected -> ("paxos-promise", false)))
        in
        if promised && still_open t ~gid then begin
          (* ballot rule: a value the quorum accepted must be re-proposed;
             a silent quorum leaves the choice free and the new leader
             presumes abort — unless the old leader's stable log already
             decided (it is readable here: the site hosting it survives) *)
          let value =
            match read_decision t ~gid with
            | Some v -> v
            | None ->
              Option.value ~default:false (Federation.decision fed ~gid)
          in
          accept_round t ~gid ~ballot ~value;
          if Tracer.enabled fed.Federation.tracer then
            Tracer.instant fed.Federation.tracer
              ~actor:(Federation.owner fed ~gid).name
              (Span.Mark "paxos-failover");
          ignore (Central_recovery.takeover fed ~gid)
        end
      end)

let acceptor_forces t =
  let seen = Hashtbl.create 16 in
  let sum = ref 0 in
  let add g =
    Array.iter
      (fun acc ->
        let n = Acceptor.name acc in
        if not (Hashtbl.mem seen n) then begin
          Hashtbl.add seen n ();
          sum := !sum + Acceptor.forces acc
        end)
      g.members
  in
  List.iter (fun (_, g) -> add g) t.groups;
  !sum

let rounds t = t.rounds
let failovers t = t.failovers

let install ?(failover_delay = 25.0) fed ~acceptors =
  if acceptors < 1 || acceptors mod 2 = 0 then
    invalid_arg "Paxos_commit.install: acceptors must be odd (2F+1)";
  let sites = fed.Federation.sites in
  if acceptors > List.length sites then
    invalid_arg "Paxos_commit.install: more acceptors than sites";
  (* One acceptor object per site, shared between groups: a gid's instance
     lives in exactly one group, so sharing only merges the force counts. *)
  let by_site = Hashtbl.create 16 in
  let acceptor_at name =
    match Hashtbl.find_opt by_site name with
    | Some a -> a
    | None ->
      let a = Acceptor.create (Federation.site fed name) in
      Hashtbl.add by_site name a;
      a
  in
  (* Deterministic groups, recomputable with no shared state: a
     coordinator's group is its first min(2F+1, |members|) sites, led by
     the coordinator's host — for the central system the first 2F+1 sites
     of the federation (co-located with acceptor 0). *)
  let group (c : Federation.coordinator) =
    let members = List.filteri (fun i _ -> i < acceptors) c.members in
    (c, { members = Array.of_list (List.map acceptor_at members) })
  in
  let groups = List.map group (fed.central :: Array.to_list fed.shards) in
  let registry = fed.Federation.registry in
  let t =
    {
      fed;
      acceptors;
      failover_delay;
      groups;
      ballots = Gid_store.Int.create ();
      rounds = 0;
      failovers = 0;
      (* created here, at install: federations without Paxos register no
         paxos metrics and keep their snapshots byte-identical *)
      rounds_c = Registry.counter registry "icdb_paxos_rounds_total";
      forces_c = Registry.counter registry "icdb_paxos_acceptor_forces_total";
      failovers_c = Registry.counter registry "icdb_paxos_failovers_total";
    }
  in
  fed.Federation.decision_replicator <- Some (fun ~gid ~commit -> replicate t ~gid ~commit);
  fed.Federation.decision_recover <- Some (fun ~gid -> read_decision t ~gid);
  fed.Federation.leader_failover <- (fun ~gid -> failover t ~gid);
  t
