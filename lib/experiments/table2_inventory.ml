open Dsmpm2_core
open Dsmpm2_protocols

type row = { name : string; consistency : string; features : string; registered : bool }

let run () =
  List.map
    (fun (name, features) ->
      match List.find_opt (fun p -> p.Protocol.name = name) (Builtin.protocols ()) with
      | Some { Protocol.model; _ } ->
          let consistency = String.capitalize_ascii (Protocol.model_to_string model) in
          { name; consistency; features; registered = true }
      | None -> { name; consistency = "-"; features; registered = false })
    Builtin.summary

let print ppf rows =
  Format.fprintf ppf "Table 2: consistency protocols available in the library@.";
  Format.fprintf ppf "%-16s %-12s %s@." "Protocol" "Consistency" "Basic features";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-16s %-12s %s%s@." r.name r.consistency r.features
        (if r.registered then "" else "  [NOT REGISTERED!]"))
    rows
