(* The benchmark's own spans: name, start, end and parent, recorded around
   its calls into the program (a rep's set-up, transaction and check
   phases, the re-timed serializability check, each kernel). They stay in
   memory and are written out when the benchmark ends. Times are host
   seconds since the epoch, so spans from the rep children and the parent
   share one time line. *)

type t = { id : int; name : string; start : float; stop : float; parent : int }

let recorded = ref []
let next_id = ref 0
let open_stack = ref []

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !open_stack with p :: _ -> p | [] -> -1

(* A span whose extent is only known afterwards (the Runner's phases,
   delimited by its hooks), under the innermost open span. *)
let add ~name ~start ~stop =
  let s = { id = fresh (); name; start; stop; parent = current () } in
  recorded := s :: !recorded

let within name f =
  let id = fresh () in
  let parent = current () in
  open_stack := id :: !open_stack;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      open_stack := List.tl !open_stack;
      recorded := { id; name; start; stop = Unix.gettimeofday (); parent } :: !recorded)
    f

let all () = List.sort (fun a b -> compare a.id b.id) !recorded

let to_json spans =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Num (float_of_int s.id));
             ("name", Str s.name);
             ("start", Num s.start);
             ("end", Num s.stop);
             ("parent", Num (float_of_int s.parent));
           ])
       spans)

(* Spans handed back by a child process, re-numbered into this process's
   id space and hung under the span that was open when the child ran. *)
let adopt json =
  let base = !next_id and under = current () in
  let spans = Json.to_list json in
  List.iter
    (fun j ->
      let num k = Json.to_num (Json.member k j) in
      let id = base + int_of_float (num "id") and parent = int_of_float (num "parent") in
      next_id := max !next_id (id + 1);
      recorded :=
        {
          id;
          name = Json.to_str (Json.member "name" j);
          start = num "start";
          stop = num "end";
          parent = (if parent < 0 then under else base + parent);
        }
        :: !recorded)
    spans

(* A layer's self time is its span's duration minus the part its child
   spans cover (children never overlap: the benchmark is sequential). *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.stop -. s.start) +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s ->
      (s, s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)))
    spans
