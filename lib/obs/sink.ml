(* The Chrome trace-event writer. Events are formatted and handed to
   [write] as they arrive, so a million-account run can trace to disk
   while the in-process state stays O(open spans + actors): a tid table,
   the open-span table End events need, and whatever the channel buffers.
   The batch exporter feeds it a stored trace after declaring every actor,
   so there the thread_name records lead the file. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fnum x =
  (* Fixed precision, no exponent: deterministic and Perfetto-friendly. *)
  if Float.is_nan x then "0" else Printf.sprintf "%.3f" x

type t = {
  write : string -> unit;
  mutable first : bool;
  mutable closed : bool;
  tids : (string, int) Hashtbl.t;
  open_spans : (int, string * Span.kind) Hashtbl.t;
  mutable last_time : float;
  mutable events : int; (* payload events emitted (metadata excluded) *)
  mutable bytes : int;
}

let emit t line =
  let sep = if t.first then "" else ",\n" in
  t.first <- false;
  t.write sep;
  t.write line;
  t.bytes <- t.bytes + String.length sep + String.length line

let create ~write =
  let t =
    {
      write;
      first = true;
      closed = false;
      tids = Hashtbl.create 16;
      open_spans = Hashtbl.create 64;
      last_time = 0.0;
      events = 0;
      bytes = 0;
    }
  in
  let header = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" in
  t.write header;
  t.bytes <- t.bytes + String.length header;
  emit t "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"icdb\"}}";
  t

let tid_of t actor =
  match Hashtbl.find_opt t.tids actor with
  | Some n -> n
  | None ->
    let n = Hashtbl.length t.tids in
    Hashtbl.replace t.tids actor n;
    emit t
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
         n (json_escape actor));
    n

let declare_actor t actor = ignore (tid_of t actor)

let bump_time t time = if time > t.last_time then t.last_time <- time

(* The three event lines. Async "b"/"e" pairs carry the span's id;
   unlike "B"/"E" duration events they tolerate the arbitrary interleaving
   of concurrent global transactions on one track. *)
let async t ph kind id tid ts =
  emit t
    (Printf.sprintf
       "{\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"%c\",\"id\":%d,\"pid\":1,\"tid\":%d,\"ts\":%s}"
       (Span.category kind) (json_escape (Span.name kind)) ph id tid ts)

let instant t ~cat ~name tid ts =
  emit t
    (Printf.sprintf
       "{\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%s}"
       cat (json_escape name) tid ts)

let complete t kind tid ~start ~stop =
  emit t
    (Printf.sprintf
       "{\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s}"
       (Span.category kind) (json_escape (Span.name kind)) tid (fnum start) (fnum (stop -. start)))

let on_event t (ev : Tracer.event) =
  if not t.closed then begin
    t.events <- t.events + 1;
    match ev with
    | Tracer.Begin { id; actor; time; kind; parent = _ } ->
      bump_time t time;
      Hashtbl.replace t.open_spans id (actor, kind);
      async t 'b' kind id (tid_of t actor) (fnum time)
    | Tracer.End { id; time } -> (
      bump_time t time;
      match Hashtbl.find_opt t.open_spans id with
      | None -> t.events <- t.events - 1 (* End without a Begin: dropped *)
      | Some (actor, kind) ->
        Hashtbl.remove t.open_spans id;
        async t 'e' kind id (tid_of t actor) (fnum time))
    | Tracer.Complete { actor; start; stop; kind } ->
      bump_time t stop;
      complete t kind (tid_of t actor) ~start ~stop
    | Tracer.Instant { actor; time; kind } ->
      bump_time t time;
      instant t ~cat:(Span.category kind) ~name:(Span.name kind) (tid_of t actor) (fnum time)
  end

let close t =
  if not t.closed then begin
    (* Close every span a crash left open at the last recorded time, marker
       first, so Perfetto does not clip the track. *)
    let stop = fnum t.last_time in
    let dangling =
      Hashtbl.fold (fun id span acc -> (id, span) :: acc) t.open_spans []
      |> List.sort compare
    in
    List.iter
      (fun (id, (actor, kind)) ->
        let tid = tid_of t actor in
        instant t ~cat:"mark" ~name:("crash-truncated: " ^ Span.name kind) tid stop;
        async t 'e' kind id tid stop)
      dangling;
    Hashtbl.reset t.open_spans;
    let footer = "\n]}\n" in
    t.write footer;
    t.bytes <- t.bytes + String.length footer;
    t.closed <- true
  end

let event_count t = t.events
let byte_count t = t.bytes
