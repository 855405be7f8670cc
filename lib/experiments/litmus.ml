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

let kind_name = function Mp -> "MP" | Sb -> "SB" | Corr -> "CoRR"

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

(* One configuration: [cache_x]/[cache_y] say which variables the observer
   caches before the writer starts (caching [x] but not the flag is the
   configuration that exposes MP violations in the relaxed models);
   [offset_us] delays the observer. *)
let program kind ~cache_x ~cache_y ~offset_us dsm ~protocol ~seed:_ =
  (* Two variables on two distinct pages, both homed on the writer's node so
     the observer's copies are genuine remote caches. *)
  let x = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  let y = Dsm.malloc dsm ~protocol ~home:(Dsm.On_node 0) 8 in
  let r1 = ref (-1) and r2 = ref (-1) in
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
  fun _hist ->
    if violates kind { r1 = !r1; r2 = !r2 } then
      Some (Printf.sprintf "%s outcome r1=%d r2=%d" (kind_name kind) !r1 !r2)
    else None

let scenarios kind =
  List.concat_map
    (fun (cache_x, cache_y, cache) ->
      List.map
        (fun offset_us ->
          {
            Conformance.name =
              Printf.sprintf "%s_%s_%.0fus" (kind_name kind) cache offset_us;
            nodes = 2;
            limit_us = 100_000.;
            program = program kind ~cache_x ~cache_y ~offset_us;
            expect = Forbidden_in (fun model -> List.mem kind (forbidden model));
          })
        [ 0.; 100.; 200.; 400.; 700.; 1_000. ])
    [ (false, false, "cold"); (true, true, "cached"); (true, false, "payload") ]

let sweep ~protocol ~kind =
  let observed scenario =
    let o, _ =
      Conformance.run ~protocol ~driver:Driver.bip_myrinet ~scenario ~seed:None ()
    in
    o.o_wrong_result <> None
  in
  let runs = List.map observed (scenarios kind) in
  { protocol; kind; configurations = List.length runs;
    violations = List.length (List.filter Fun.id runs) }

let run () =
  List.concat_map
    (fun { Protocol.name; _ } ->
      List.map (fun kind -> sweep ~protocol:name ~kind) kinds)
    (Builtin.protocols ())

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

let rows cells =
  List.map
    (fun c ->
      ( Printf.sprintf "litmus/%s/%s" c.protocol (kind_name c.kind),
        [ ("configurations", c.configurations); ("violations", c.violations) ] ))
    cells
