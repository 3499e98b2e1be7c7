(** The paper's evaluation, regenerated.

    One entry per figure (F2-F8) and per §4.3 validation claim (V1-V7), as
    indexed in DESIGN.md §4 and EXPERIMENTS.md. Each experiment builds its
    own deterministic federation(s), runs the workload, and renders the
    resulting trace or table as text. [icdb exp all] prints all of them;
    [icdb exp <id>] prints one. *)

(** [(id, one-line description)] for every experiment, in paper order. *)
val all : (string * string) list

(** [run id] executes one experiment and returns its printable report.
    Raises [Not_found] for unknown ids. *)
val run : string -> string

(** Runs every experiment and concatenates the reports in registry order. *)
val run_all : unit -> string
