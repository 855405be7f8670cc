open Dsmpm2_net
open Dsmpm2_core
open Dsmpm2_protocols

type kind = Mp | Sb | Corr
type observation = { r1 : int; r2 : int }

let violates kind obs =
  match kind with
  | Mp -> obs.r1 = 1 && obs.r2 = 0 (* saw the flag but not the payload *)
  | Sb -> obs.r1 = 0 && obs.r2 = 0 (* both reads missed both writes *)
  | Corr -> obs.r1 = 1 && obs.r2 = 0 (* reads of one location went backwards *)

type cell = {
  protocol : string;
  kind : kind;
  configurations : int;
  violations : int;
}

let kinds = [ Mp; Sb; Corr ]

let forbidden = function
  | Protocol.Sequential -> kinds
  | Protocol.Release | Protocol.Java -> [ Corr ]

type cache_mode = No_cache | Cache_all | Cache_payload_only

let run_one ~protocol ~kind ~cache ~offset_us =
  let dsm, proto =
    Dsmpm2_apps.Workloads.start ~app:"Litmus" ~nodes:2
      ~driver:Driver.bip_myrinet ~observe:None protocol
  in
  (* Two variables on two distinct pages, both homed on the writer's node so
     the observer's copies are genuine remote caches. *)
  let x = Dsm.malloc dsm ~protocol:proto ~home:(Dsm.On_node 0) 8 in
  let y = Dsm.malloc dsm ~protocol:proto ~home:(Dsm.On_node 0) 8 in
  let r1 = ref (-1) and r2 = ref (-1) in
  let cache_x = cache <> No_cache in
  let cache_y = cache = Cache_all in
  (match kind with
  | Mp ->
      (* T0: x := 1; flag(y) := 1.      T1: r1 := flag; r2 := x. *)
      ignore
        (Dsm.spawn dsm ~node:0 (fun () ->
             Dsm.compute dsm 500.;
             Dsm.write_int dsm x 1;
             Dsm.write_int dsm y 1));
      ignore
        (Dsm.spawn dsm ~node:1 (fun () ->
             if cache_x then ignore (Dsm.read_int dsm x);
             if cache_y then ignore (Dsm.read_int dsm y);
             Dsm.compute dsm (500. +. offset_us);
             r1 := Dsm.read_int dsm y;
             r2 := Dsm.read_int dsm x))
  | Sb ->
      (* T0: x := 1; r1 := y.           T1: y := 1; r2 := x. *)
      ignore
        (Dsm.spawn dsm ~node:0 (fun () ->
             if cache_y then ignore (Dsm.read_int dsm y);
             Dsm.compute dsm 500.;
             Dsm.write_int dsm x 1;
             r1 := Dsm.read_int dsm y));
      ignore
        (Dsm.spawn dsm ~node:1 (fun () ->
             if cache_x then ignore (Dsm.read_int dsm x);
             if cache_y then ignore (Dsm.read_int dsm y);
             Dsm.compute dsm (500. +. offset_us);
             Dsm.write_int dsm y 1;
             r2 := Dsm.read_int dsm x))
  | Corr ->
      (* T0: x := 1.                    T1: r1 := x; r2 := x. *)
      ignore
        (Dsm.spawn dsm ~node:0 (fun () ->
             Dsm.compute dsm 500.;
             Dsm.write_int dsm x 1));
      ignore
        (Dsm.spawn dsm ~node:1 (fun () ->
             if cache_x then ignore (Dsm.read_int dsm x);
             Dsm.compute dsm (400. +. offset_us);
             r1 := Dsm.read_int dsm x;
             Dsm.compute dsm 50.;
             r2 := Dsm.read_int dsm x)));
  Dsm.run dsm;
  { r1 = !r1; r2 = !r2 }

let offsets = [ 0.; 100.; 200.; 400.; 700.; 1_000. ]

let sweep ~protocol ~kind =
  let configurations = ref 0 and violations = ref 0 in
  List.iter
    (fun cache ->
      List.iter
        (fun offset_us ->
          incr configurations;
          let obs = run_one ~protocol ~kind ~cache ~offset_us in
          if violates kind obs then incr violations)
        offsets)
    [ No_cache; Cache_all; Cache_payload_only ];
  { protocol; kind; configurations = !configurations; violations = !violations }

let run () =
  List.concat_map
    (fun { Protocol.name; _ } ->
      List.map (fun kind -> sweep ~protocol:name ~kind) kinds)
    (Builtin.protocols ())

let kind_name = function Mp -> "MP" | Sb -> "SB" | Corr -> "CoRR"

let note model =
  Printf.sprintf "(%s: %s must be 0)" (Protocol.model_to_string model)
    (String.concat ", " (List.map kind_name (forbidden model)))

let print ppf cells =
  Format.fprintf ppf
    "Litmus tests: forbidden-outcome observations over the sweep (18 \
     configurations each)@.";
  Format.fprintf ppf "%-16s %8s %8s %8s@." "Protocol" "MP" "SB" "CoRR";
  List.iter
    (fun { Protocol.name; model; _ } ->
      Format.fprintf ppf "%-16s" name;
      List.iter
        (fun kind ->
          let c = List.find (fun c -> c.protocol = name && c.kind = kind) cells in
          Format.fprintf ppf " %4d/%-3d" c.violations c.configurations)
        kinds;
      Format.fprintf ppf "   %s@." (note model))
    (Builtin.protocols ())

let to_json cells =
  let open Dsmpm2_sim in
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [
             ("protocol", Json.String c.protocol);
             ("kind", Json.String (kind_name c.kind));
             ("configurations", Json.Int c.configurations);
             ("violations", Json.Int c.violations);
           ])
       cells)
