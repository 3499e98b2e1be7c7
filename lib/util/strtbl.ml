(* The generic [Hashtbl.hash] puts every key in the bucket a polymorphic
   table would, so iteration order is the same; keys compare with
   [String.equal], not polymorphic [compare]. *)
include Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)
