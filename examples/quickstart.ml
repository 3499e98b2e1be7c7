(* Quickstart: an integrated database system of three unmodifiable local
   systems, one global transfer committed with the paper's protocol
   (commitment before the global decision), and the full message trace.

   Run with:  dune exec examples/quickstart.exe *)

module Sim = Icdb_sim.Engine
module Fiber = Icdb_sim.Fiber
module Trace = Icdb_sim.Trace
module Db = Icdb_localdb.Engine
module Program = Icdb_localdb.Program
module Site = Icdb_net.Site
module Federation = Icdb_core.Federation
module Global = Icdb_core.Global
module Before = Icdb_core.Commit_before

let () =
  (* 1. One simulation engine drives everything deterministically. *)
  let engine = Sim.create () in

  (* 2. Three existing local systems. None of them supports a prepared
     state — the situation the paper is about. *)
  let fed =
    Federation.create engine ~trace:(Trace.create engine)
      [
        Db.default_config ~site_name:"berlin";
        Db.default_config ~site_name:"paris";
        Db.default_config ~site_name:"rome";
      ]
  in

  (* 3. Preload some accounts at each site. *)
  List.iter
    (fun (name, site) ->
      Db.load (Site.db site) [ ("checking", 1000); ("savings", 5000) ];
      Printf.printf "loaded %s\n" name)
    fed.sites;

  (* 4. A global transaction: move 250 from Berlin checking to Paris
     savings, and log a fee of 10 at Rome. Each branch is one local
     transaction; the commitment protocol makes the whole thing atomic. *)
  let spec =
    {
      Global.gid = Federation.fresh_gid fed;
      branches =
        [
          Global.branch ~site:"berlin" [ Program.Increment ("checking", -250) ];
          Global.branch ~site:"paris" [ Program.Increment ("savings", 250) ];
          Global.branch ~site:"rome" [ Program.Increment ("checking", -10) ];
        ];
    }
  in
  let outcome = ref None in
  Fiber.spawn engine (fun () -> outcome := Some (Before.run fed spec));
  Sim.run engine;

  (* 5. Inspect the result. *)
  Printf.printf "\noutcome: %s\n\n"
    (Global.outcome_to_string (Option.get !outcome));
  print_string (Trace.render fed.trace);
  Printf.printf "\nfinal balances:\n";
  List.iter
    (fun (name, site) ->
      let v key = Option.value ~default:0 (Db.committed_value (Site.db site) key) in
      Printf.printf "  %-8s checking=%-5d savings=%d\n" name (v "checking") (v "savings"))
    fed.sites;
  Printf.printf "\nmessages: %d (%s)\n" (Federation.total_messages fed)
    (String.concat ", "
       (List.map
          (fun (l, n) -> Printf.sprintf "%s=%d" l n)
          (Federation.messages_by_label fed)))
