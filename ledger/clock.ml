(* The ledger's host clock: CPU seconds at a reference host speed.

   A shared host's speed drifts. Neighbours that load the shared cache and
   memory slow every instruction of the program by tens of percent, in
   episodes from a fraction of a second to hours, so a rep's CPU time
   measures the host as much as the program. A calibration timed before
   and after a rep misses every change faster than a rep.

   This clock probes the host while the program runs. Every [interval_s] of
   the process's CPU time a timer signal runs a fixed probe: one pass over
   a 2 MiB array, which evicts the core's own caches, then a pointer chase
   through a 256 KiB chain, which must therefore come from the shared
   cache. Both read only memory outside the OCaml heap and allocate
   nothing, so they leave the program's heap and GC alone. The program's
   CPU time after a probe counts at [reference_probe_s] over that probe's
   duration, up to the next probe; the probes' own time does not count. A
   slower host slows the program and the probes alike, so it cancels; a
   change to the program moves only the program's time, so it shows in
   full.

   The clock serves the process being timed (a rep child) and one domain. *)

(* CPU seconds one probe took on the host the ledger's numbers were first
   recorded on. Any constant would do: it fixes the unit, not the
   comparison. *)
let reference_probe_s = 0.0006

let interval_s = 0.01

(* The process's CPU seconds (user + system). *)
let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

module A = Bigarray.Array1

let ints n = A.create Bigarray.int Bigarray.c_layout n

let sweep =
  lazy
    (let a = ints (1 lsl 18) in
     A.fill a 1;
     a)

(* A random cyclic permutation (Sattolo's algorithm): every step of the
   chase depends on the one before, and all 2^15 slots are on the cycle. *)
let chain =
  lazy
    (let n = 1 lsl 15 in
     let a = ints n in
     for i = 0 to n - 1 do
       A.unsafe_set a i i
     done;
     let rng = Random.State.make [| 7 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng i in
       let t = A.unsafe_get a i in
       A.unsafe_set a i (A.unsafe_get a j);
       A.unsafe_set a j t
     done;
     a)

let chase_steps = 3000
let position = ref 0
let sink = ref 0

let probe_kernel () =
  let s = Lazy.force sweep and c = Lazy.force chain in
  let sum = ref 0 in
  for i = 0 to A.dim s - 1 do
    sum := !sum + A.unsafe_get s i
  done;
  let p = ref !position in
  for _ = 1 to chase_steps do
    p := A.unsafe_get c !p
  done;
  position := !p;
  sink := !sink + !sum

(* [reference] holds the reference seconds up to [last_end], the CPU time
   at which the last probe ended. Every probe bumps [generation], so that
   [read] can tell when a probe ran while it read. *)
let origin = ref 0.0
let reference = ref 0.0
let last_end = ref 0.0
let last_probe = ref reference_probe_s
let probe_total = ref 0.0
let probes = ref 0
let generation = ref 0

let probe () =
  let t0 = cpu_s () in
  probe_kernel ();
  let t1 = cpu_s () in
  let d = t1 -. t0 in
  reference := !reference +. ((t0 -. !last_end) *. reference_probe_s /. !last_probe);
  last_end := t1;
  last_probe := d;
  probe_total := !probe_total +. d;
  incr probes;
  incr generation

type reading = {
  reference_s : float;  (** reference seconds since [start] *)
  cpu : float;  (** CPU seconds since [start], the probes' own left out *)
}

let rec read () =
  let g = !generation in
  let base = !reference and since = !last_end and d = !last_probe and probed = !probe_total in
  let t = cpu_s () in
  if !generation <> g then read ()
  else { reference_s = base +. ((t -. since) *. reference_probe_s /. d); cpu = t -. !origin -. probed }

(* Starts the clock at zero. The first probe runs at once, so no stretch
   of the program is timed at an assumed speed. *)
let start () =
  ignore (Lazy.force sweep, Lazy.force chain);
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> probe ()));
  origin := cpu_s ();
  last_end := !origin;
  reference := 0.0;
  last_probe := reference_probe_s;
  probe_total := 0.0;
  probes := 0;
  probe ();
  let tick = { Unix.it_interval = interval_s; it_value = interval_s } in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick)

(* A tick already raised when the timer stops is ignored: the default
   action for SIGPROF would end the process. *)
let stop () =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

(* The mean duration of the probes so far, in CPU seconds. *)
let mean_probe_s () = !probe_total /. float_of_int (max 1 !probes)
