type t = Two_phase | Presumed_abort | After | Before | Before_mlt | Hybrid

let name = function
  | Two_phase -> "2pc"
  | Presumed_abort -> "2pc-presumed-abort"
  | After -> "commit-after"
  | Before -> "commit-before"
  | Before_mlt -> "commit-before+mlt"
  | Hybrid -> "hybrid"

(* The short name the protocols pass to [Protocol_common.open_run] — the
   label on span kinds and phase-latency histograms. *)
let obs_name = function
  | Two_phase -> "2pc"
  | Presumed_abort -> "2pc-pa"
  | After -> "after"
  | Before -> "before"
  | Before_mlt -> "mlt"
  | Hybrid -> "hybrid"

let paper = [ Two_phase; After; Before; Before_mlt ]
let all = paper @ [ Presumed_abort; Hybrid ]

let is_flat = function
  | Two_phase | Presumed_abort | After | Before | Hybrid -> true
  | Before_mlt -> false

let of_string = function
  | "2pc" -> Ok Two_phase
  | "2pc-pa" | "presumed-abort" -> Ok Presumed_abort
  | "after" -> Ok After
  | "before" -> Ok Before
  | "before-mlt" | "before_mlt" | "mlt" -> Ok Before_mlt
  | "hybrid" -> Ok Hybrid
  | s ->
    Error
      (Printf.sprintf "unknown protocol %S (use 2pc|2pc-pa|after|before|before-mlt|hybrid)" s)

let run_flat t fed spec =
  match t with
  | Two_phase -> Icdb_core.Two_phase_commit.run fed spec
  | Presumed_abort -> Icdb_core.Presumed_abort.run fed spec
  | After -> Icdb_core.Commit_after.run fed spec
  | Before -> Icdb_core.Commit_before.run fed spec
  | Hybrid -> Icdb_core.Commit_hybrid.run fed spec
  | Before_mlt -> invalid_arg "Protocol.run_flat: Before_mlt takes MLT specs"
