type page_id = int

type t = {
  mutable pages : Page.t array;
  mutable count : int;
  mutable reads : int;
  mutable writes : int;
}

(* Every fresh page is this one image. [read] and [write] copy, so no disk
   image is ever mutated in place and sharing it is safe, across domains
   too. *)
let empty = Page.create ()

let create () = { pages = Array.make 16 empty; count = 0; reads = 0; writes = 0 }

let allocate t =
  if t.count = Array.length t.pages then begin
    let bigger = Array.make (2 * t.count) empty in
    Array.blit t.pages 0 bigger 0 t.count;
    t.pages <- bigger
  end;
  let pid = t.count in
  t.pages.(pid) <- empty;
  t.count <- t.count + 1;
  pid

let check t pid =
  if pid < 0 || pid >= t.count then invalid_arg "Disk: unallocated page id"

let read t pid =
  check t pid;
  t.reads <- t.reads + 1;
  Page.copy t.pages.(pid)

let free_space t pid =
  check t pid;
  Page.free_space t.pages.(pid)

let write t pid page =
  check t pid;
  t.writes <- t.writes + 1;
  t.pages.(pid) <- Page.copy page

(* The images are shared with [t]: neither disk changes one in place. *)
let copy t = { t with pages = Array.copy t.pages }

let page_count t = t.count
let read_count t = t.reads
let write_count t = t.writes

let reset_counters t =
  t.reads <- 0;
  t.writes <- 0
