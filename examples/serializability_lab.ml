(* The serializability requirements, demonstrated live (§3.2 / §3.3).

   Both non-2PC protocols need an "additional concurrency control module"
   at the central system, and the paper spends two careful paragraphs on
   why. This lab runs each of the two offending schedules twice — with the
   module disabled and enabled — and lets the global serialization-graph
   checker report what goes wrong.

   Run with:  dune exec examples/serializability_lab.exe *)

module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Federation = Icdb_core.Federation
module Global = Icdb_core.Global
module Graph = Icdb_core.Serialization_graph
module After = Icdb_core.Commit_after
module Before = Icdb_core.Commit_before
module Site = Icdb_net.Site

let make_fed eng =
  Federation.create eng
    [ Db.default_config ~site_name:"s0"; Db.default_config ~site_name:"s1" ]

let report title violations =
  Printf.printf "  %-22s -> %s\n" title
    (if violations = [] then "serializable"
     else
       String.concat "; "
         (List.map (Format.asprintf "%a" Graph.pp_violation) violations))

(* §3.3: G1 commits locally at s0 and is later compensated (its other
   branch votes abort); G2 reads s0/x inside that window. *)
let dirty_read_schedule ~cc =
  let eng = Sim.create () in
  let fed = make_fed eng in
  fed.global_cc_enabled <- cc;
  Federation.preload fed [ ("x", 100) ];
  Fiber.spawn eng (fun () ->
      let g1 =
        {
          Global.gid = Federation.fresh_gid fed;
          branches =
            [
              Global.branch ~site:"s0" [ Program.Increment ("x", 50) ];
              Global.branch ~vote_commit:false ~site:"s1" [ Program.Increment ("x", -50) ];
            ];
        }
      in
      ignore (Before.run fed g1));
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 6.0;
      let g2 =
        {
          Global.gid = Federation.fresh_gid fed;
          branches = [ Global.branch ~site:"s0" [ Program.Read "x" ] ];
        }
      in
      ignore (Before.run fed g2));
  Sim.run eng;
  Graph.violations fed.graph

(* §3.2: G1's local at s0 is killed after answering ready; G2 writes the
   same object before the repetition runs, flipping the order at s0 while
   s1 orders them the other way round. *)
let order_flip_schedule ~cc =
  let eng = Sim.create () in
  let fed = make_fed eng in
  fed.global_cc_enabled <- cc;
  Federation.preload fed [ ("x", 100); ("y", 100) ];
  Fiber.spawn eng (fun () ->
      let g1 =
        {
          Global.gid = Federation.fresh_gid fed;
          branches =
            [
              Global.branch ~site:"s0" [ Program.Read "x" ];
              Global.branch ~site:"s1" [ Program.Increment ("y", 1) ];
            ];
        }
      in
      ignore (After.run fed g1));
  ignore
    (Sim.schedule eng ~delay:5.5 (fun () ->
         let db = Site.db (Federation.site fed "s0") in
         List.iter (Db.kill db) (Db.running_transactions db)));
  Fiber.spawn eng (fun () ->
      Fiber.sleep eng 4.6;
      let g2 =
        {
          Global.gid = Federation.fresh_gid fed;
          branches =
            [
              Global.branch ~site:"s0" [ Program.Write ("x", 999) ];
              Global.branch ~site:"s1" [ Program.Read "y" ];
            ];
        }
      in
      ignore (Before.run fed g2));
  Sim.run eng;
  Graph.violations fed.graph

let () =
  print_endline "The serializability requirements of sections 3.2 and 3.3.\n";
  print_endline
    "Commit-before (§3.3): G2 reads data G1 committed locally, then G1 is\n\
     compensated. 'A local transaction must not occur in the serialization\n\
     order between an erroneously committed transaction and its inverse':";
  report "without additional CC" (dirty_read_schedule ~cc:false);
  report "with additional CC" (dirty_read_schedule ~cc:true);
  print_endline
    "\nCommit-after (§3.2): G1's local is erroneously aborted after 'ready';\n\
     G2 slips between the first execution and the repetition. 'The global\n\
     serialization order determined by the first execution must not change':";
  report "without additional CC" (order_flip_schedule ~cc:false);
  report "with additional CC" (order_flip_schedule ~cc:true);
  print_endline
    "\nThe multi-level variant needs no such module: commuting L1 actions\n\
     cannot invalidate an undo, and non-commuting ones are delayed by the\n\
     L1 lock (see `icdb exp v4`)."
