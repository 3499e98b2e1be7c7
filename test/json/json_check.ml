(* json_check FILE...: parses each file as JSON and prints one line about
   its shape, or the parse error and exit 1. A Chrome trace (an object
   with a "traceEvents" array) must hold at least one event. *)

module Json = Ledger_lib.Json

let describe file =
  match Json.of_file file with
  | exception Json.Parse_error msg -> Error (Printf.sprintf "%s: does not parse: %s" file msg)
  | Json.Obj fields when List.mem_assoc "traceEvents" fields -> (
    match Json.member "traceEvents" (Json.Obj fields) with
    | Json.Arr [] -> Error (Printf.sprintf "%s: no trace events" file)
    | Json.Arr events -> Ok (Printf.sprintf "%s: %d trace events" file (List.length events))
    | _ -> Error (Printf.sprintf "%s: traceEvents is not an array" file))
  | Json.Obj fields ->
    Ok (Printf.sprintf "%s: object {%s}" file (String.concat ", " (List.map fst fields)))
  | Json.Arr items -> Ok (Printf.sprintf "%s: array of %d" file (List.length items))
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> Ok (Printf.sprintf "%s: scalar" file)

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: json_check FILE...";
    exit 2
  end;
  let failed = ref false in
  List.iter
    (fun file ->
      match describe file with
      | Ok line -> print_endline line
      | Error line ->
        print_endline line;
        failed := true)
    files;
  if !failed then exit 1
