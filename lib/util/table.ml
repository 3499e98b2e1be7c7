type row = Cells of string list | Separator

type t = {
  title : string;
  headers : string list;
  arity : int;
  mutable rows : row list; (* reversed *)
}

let create ~title headers =
  let arity = List.length headers in
  if arity = 0 then invalid_arg "Table.create: no columns";
  { title; headers; arity; rows = [] }

let add_row t cells =
  if List.length cells <> t.arity then invalid_arg "Table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  let measure = function
    | Separator -> ()
    | Cells cells ->
      List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) cells
  in
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let pad i width s =
    let fill = String.make (width - String.length s) ' ' in
    if i = 0 then s ^ fill else fill ^ s
  in
  let emit_cells cells =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad i widths.(i) c))
      cells;
    Buffer.add_string buf " |\n"
  in
  let emit_rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  emit_rule ();
  emit_cells t.headers;
  emit_rule ();
  List.iter (function Cells cells -> emit_cells cells | Separator -> emit_rule ()) rows;
  emit_rule ();
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let fmt_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
let fmt_int n = string_of_int n

let fmt_ratio a b =
  if b = 0.0 then "-" else Printf.sprintf "%.2fx" (a /. b)
