(* BENCH.json regression diff.

   Usage: diff.exe BASELINE FRESH [--max-ratio R]

   Compares the "kernels" (ms/run) and "alloc" (minor words/txn) sections of
   two BENCH.json files — plus the "sharding" throughput section, where the
   ratio direction flips: higher is better, so a regression is fresh
   *below* base by the ratio — and the "paxos" cost rows. Prints every
   entry present in both files and flags regressions. Exit status is 1 only
   when something regressed by more than the ratio (default 2.0) — bench
   machines are noisy, so anything below that is a warning, not a failure.
   The parser is deliberately minimal: it reads the fixed format
   [write_bench_json] emits, not general JSON. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* All occurrences of ["name": <float>] pairs between [start_marker] and the
   next "]," / "}," closing line, as an assoc list. *)
let section text start_marker =
  let start =
    let rec find i =
      if i + String.length start_marker > String.length text then None
      else if String.sub text i (String.length start_marker) = start_marker then
        Some (i + String.length start_marker)
      else find (i + 1)
    in
    find 0
  in
  match start with
  | None -> []
  | Some s ->
      let e =
        let rec find i depth =
          if i >= String.length text then i
          else
            match text.[i] with
            | '{' | '[' -> find (i + 1) (depth + 1)
            | '}' | ']' -> if depth = 0 then i else find (i + 1) (depth - 1)
            | _ -> find (i + 1) depth
        in
        find s 0
      in
      let body = String.sub text s (e - s) in
      (* pick out "key" : number pairs *)
      let out = ref [] in
      let n = String.length body in
      let i = ref 0 in
      while !i < n do
        if body.[!i] = '"' then begin
          let close = String.index_from body (!i + 1) '"' in
          let key = String.sub body (!i + 1) (close - !i - 1) in
          let j = ref (close + 1) in
          while !j < n && (body.[!j] = ':' || body.[!j] = ' ') do
            incr j
          done;
          if !j < n && (body.[!j] = '-' || body.[!j] = '.' || (body.[!j] >= '0' && body.[!j] <= '9'))
          then begin
            let k = ref !j in
            while
              !k < n
              && (body.[!k] = '-' || body.[!k] = '.' || body.[!k] = 'e' || body.[!k] = '+'
                 || (body.[!k] >= '0' && body.[!k] <= '9'))
            do
              incr k
            done;
            (match float_of_string_opt (String.sub body !j (!k - !j)) with
            | Some v -> out := (key, v) :: !out
            | None -> ());
            i := !k
          end
          else i := close + 1
        end
        else incr i
      done;
      List.rev !out

(* "alloc" entries are one-line objects with the kernel name as a string
   value (which [section] skips); scan for the entries directly and pull
   each line's minor-words figure. *)
let alloc_section text =
  let entries = ref [] in
  let marker = "{\"kernel\":\"" in
  let ml = String.length marker in
  let n = String.length text in
  let rec scan i =
    if i + ml >= n then ()
    else if String.sub text i ml = marker then begin
      let close = String.index_from text (i + ml) '"' in
      let kernel = String.sub text (i + ml) (close - i - ml) in
      let eol = try String.index_from text close '\n' with Not_found -> n in
      (* skip the kernel name's closing quote so the line has balanced quotes *)
      let line = String.sub text (close + 1) (eol - close - 1) in
      (match List.assoc_opt "minor_words_per_txn" (section ("[" ^ line ^ "]") "[") with
      | Some v -> entries := (kernel, v) :: !entries
      | None -> ());
      scan eol
    end
    else scan (i + 1)
  in
  scan 0;
  List.rev !entries

(* --- keyed row sections --------------------------------------------------

   "sharding" and "paxos" hold one-line row objects whose identity is a
   combination of fields (2 shards at 5% cross, a protocol at 3
   acceptors). [rows_section] finds every line starting with [marker] and
   lets the caller build a (key, value) pair from it. *)

let str_field line name =
  let marker = "\"" ^ name ^ "\":\"" in
  let ml = String.length marker in
  let n = String.length line in
  let rec find i =
    if i + ml > n then None
    else if String.sub line i ml = marker then
      let close = String.index_from line (i + ml) '"' in
      Some (String.sub line (i + ml) (close - i - ml))
    else find (i + 1)
  in
  find 0

let num_field line name =
  let marker = "\"" ^ name ^ "\":" in
  let ml = String.length marker in
  let n = String.length line in
  let rec find i =
    if i + ml > n then None
    else if String.sub line i ml = marker then begin
      let k = ref (i + ml) in
      while
        !k < n
        && (line.[!k] = '-' || line.[!k] = '.' || line.[!k] = 'e' || line.[!k] = '+'
           || (line.[!k] >= '0' && line.[!k] <= '9'))
      do
        incr k
      done;
      float_of_string_opt (String.sub line (i + ml) (!k - i - ml))
    end
    else find (i + 1)
  in
  find 0

let rows_section text marker key_of =
  let n = String.length text in
  let ml = String.length marker in
  let entries = ref [] in
  let rec scan i =
    if i + ml >= n then ()
    else if String.sub text i ml = marker then begin
      let eol = try String.index_from text i '\n' with Not_found -> n in
      let line = String.sub text i (eol - i) in
      (match key_of line with Some kv -> entries := kv :: !entries | None -> ());
      scan eol
    end
    else scan (i + 1)
  in
  scan 0;
  List.rev !entries

let sharding_section text =
  rows_section text "{\"shards\":" (fun line ->
      match (num_field line "shards", num_field line "cross_pct", num_field line "throughput")
      with
      | Some s, Some c, Some v -> Some (Printf.sprintf "s%.0f-x%.0f" s c, v)
      | _ -> None)

(* "paxos" rows share the "overhead" rows' leading field, but only they
   carry "acceptors", which the key requires — so the overhead rows fall
   out of the match. Two entries per row: msgs and decision forces per
   commit, both costs (lower is better, the default direction). *)
let paxos_section text =
  rows_section text "{\"protocol\":\"" (fun line ->
      match
        (str_field line "protocol", num_field line "acceptors", num_field line "msgs_per_commit")
      with
      | Some p, Some a, Some v -> Some (Printf.sprintf "%s-a%.0f-msgs" p a, v)
      | _ -> None)
  @ rows_section text "{\"protocol\":\"" (fun line ->
        match
          ( str_field line "protocol",
            num_field line "acceptors",
            num_field line "decision_forces_per_commit" )
        with
        | Some p, Some a, Some v -> Some (Printf.sprintf "%s-a%.0f-forces" p a, v)
        | _ -> None)

let () =
  let args = Array.to_list Sys.argv in
  let max_ratio = ref 2.0 in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--max-ratio" :: r :: rest ->
      (match float_of_string_opt r with Some v -> max_ratio := v | None -> ());
      parse rest
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  parse (List.tl args);
  match List.rev !files with
  | [ baseline; fresh ] ->
    let base_text = read_file baseline and fresh_text = read_file fresh in
    let failures = ref 0 and warnings = ref 0 in
    (* [higher_is_better] flips the ratio for the throughput section: the
       printed ratio is always "times worse", so > max_ratio fails either
       way. *)
    let compare_section ?(higher_is_better = false) label unit base fresh =
      List.iter
        (fun (name, fv) ->
          match List.assoc_opt name base with
          | None -> ()
          | Some bv when bv <= 0.0 || fv <= 0.0 -> ()
          | Some bv ->
            let ratio = if higher_is_better then bv /. fv else fv /. bv in
            let verdict =
              if ratio > !max_ratio then begin
                incr failures;
                "REGRESSION"
              end
              else if ratio > 1.25 then begin
                incr warnings;
                "warn"
              end
              else "ok"
            in
            Printf.printf "%-10s %-30s %12.3f -> %12.3f %s  %5.2fx  %s\n" label name bv fv
              unit ratio verdict)
        fresh
    in
    compare_section "kernel" "ms/run" (section base_text "\"kernels\": {")
      (section fresh_text "\"kernels\": {");
    compare_section "alloc" "w/txn" (alloc_section base_text) (alloc_section fresh_text);
    compare_section ~higher_is_better:true "sharding" "t/ktu" (sharding_section base_text)
      (sharding_section fresh_text);
    compare_section "paxos" "per-ct" (paxos_section base_text) (paxos_section fresh_text);
    if !failures > 0 then begin
      Printf.printf "\n%d entr(ies) regressed by more than %.1fx\n" !failures !max_ratio;
      exit 1
    end
    else
      Printf.printf "\nno hard regressions (threshold %.1fx, %d warning(s))\n" !max_ratio
        !warnings
  | _ ->
    prerr_endline "usage: diff.exe BASELINE.json FRESH.json [--max-ratio R]";
    exit 2
