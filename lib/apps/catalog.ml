open Dsmpm2_net
open Dsmpm2_core

type app = {
  name : string;
  protocol : string;
  params : (string * int) list;
  run :
    protocol:string ->
    nodes:int ->
    driver:Driver.t ->
    ?seed:int ->
    ?tie_seed:int ->
    observe:(Dsm.t -> unit) ->
    (string * int) list ->
    Dsm.t * string;
}

let verdict ok = if ok then "OK" else "WRONG"

(* Wraps an application body with the checks every entry shares: reject
   undeclared parameters, fill in defaults, and capture the runtime the
   application hands to its observe hook. *)
let entry name ~protocol ~params body =
  let run ~protocol ~nodes ~driver ?seed ?tie_seed ~observe given =
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k params) then
          invalid_arg
            (Printf.sprintf "Catalog: %s has no parameter %S (parameters: %s)"
               name k
               (match params with
               | [] -> "none"
               | ps -> String.concat ", " (List.map fst ps))))
      given;
    let param k =
      match List.assoc_opt k given with Some v -> v | None -> List.assoc k params
    in
    let captured = ref None in
    let observe =
      Some
        (fun dsm ->
          captured := Some dsm;
          observe dsm)
    in
    let line = body ~protocol ~nodes ~driver ~seed ~tie_seed ~observe param in
    match !captured with
    | Some dsm -> (dsm, line)
    | None -> failwith (Printf.sprintf "Catalog: %s never called its observe hook" name)
  in
  { name; protocol; params; run }

let tsp =
  let d = Tsp.default in
  entry "tsp" ~protocol:d.protocol
    ~params:[ ("cities", d.cities); ("balance", Bool.to_int d.balance) ]
    (fun ~protocol ~nodes ~driver ~seed ~tie_seed ~observe param ->
      let cities = param "cities" in
      let r =
        Tsp.run
          {
            d with
            protocol;
            nodes;
            driver;
            seed = Option.value seed ~default:d.seed;
            cities;
            balance = param "balance" <> 0;
            tie_seed;
            observe;
          }
      in
      Printf.sprintf
        "tsp: protocol=%s nodes=%d cities=%d time=%.1fms best=%d expansions=%d \
         migrations=%d balancer_moves=%d faults=%d messages=%d workers=[%s]"
        protocol nodes cities r.time_ms r.best r.expansions r.migrations
        r.balancer_moves
        (r.read_faults + r.write_faults)
        r.messages
        (String.concat ";" (List.map string_of_int r.final_node_of_thread)))

let jacobi =
  let d = Jacobi.default in
  entry "jacobi" ~protocol:d.protocol
    ~params:[ ("size", d.size); ("iterations", d.iterations) ]
    (fun ~protocol ~nodes ~driver ~seed:_ ~tie_seed ~observe param ->
      let size = param "size" and iterations = param "iterations" in
      let r =
        Jacobi.run
          { d with protocol; nodes; driver; size; iterations; tie_seed; observe }
      in
      Printf.sprintf
        "jacobi: protocol=%s nodes=%d size=%d iters=%d time=%.1fms checksum=%s \
         faults=%d pages=%d diff_bytes=%d"
        protocol nodes size iterations r.time_ms
        (verdict (r.checksum = Jacobi.checksum_sequential ~size ~iterations))
        (r.read_faults + r.write_faults)
        r.pages_transferred r.diff_bytes)

let coloring =
  let d = Map_coloring.default in
  entry "coloring" ~protocol:d.protocol ~params:[]
    (fun ~protocol ~nodes ~driver ~seed:_ ~tie_seed ~observe _ ->
      let r = Map_coloring.run { d with protocol; nodes; driver; tie_seed; observe } in
      Printf.sprintf
        "coloring: protocol=%s nodes=%d time=%.1fms cost=%d gets=%d checks=%d faults=%d"
        protocol nodes r.time_ms r.best_cost r.gets r.inline_checks
        (r.read_faults + r.write_faults))

let lu =
  let d = Lu.default in
  entry "lu" ~protocol:d.protocol ~params:[ ("size", d.size) ]
    (fun ~protocol ~nodes ~driver ~seed ~tie_seed ~observe param ->
      let size = param "size" and seed = Option.value seed ~default:d.seed in
      let r = Lu.run { d with protocol; nodes; driver; size; seed; tie_seed; observe } in
      Printf.sprintf
        "lu: protocol=%s nodes=%d size=%d time=%.1fms checksum=%s faults=%d \
         pages=%d messages=%d"
        protocol nodes size r.time_ms
        (verdict (r.checksum = Lu.checksum_sequential ~size ~seed))
        (r.read_faults + r.write_faults)
        r.pages_transferred r.messages)

let matmul =
  let d = Matmul.default in
  entry "matmul" ~protocol:d.protocol ~params:[ ("size", d.size) ]
    (fun ~protocol ~nodes ~driver ~seed ~tie_seed ~observe param ->
      let size = param "size" and seed = Option.value seed ~default:d.seed in
      let r =
        Matmul.run { d with protocol; nodes; driver; size; seed; tie_seed; observe }
      in
      Printf.sprintf
        "matmul: protocol=%s nodes=%d size=%d time=%.1fms checksum=%s faults=%d \
         pages=%d messages=%d"
        protocol nodes size r.time_ms
        (verdict (r.checksum = Matmul.checksum_sequential ~size ~seed))
        (r.read_faults + r.write_faults)
        r.pages_transferred r.messages)

let sort =
  let d = Sort.default in
  entry "sort" ~protocol:d.protocol
    ~params:[ ("elements_per_node", d.elements_per_node) ]
    (fun ~protocol ~nodes ~driver ~seed ~tie_seed ~observe param ->
      let elements_per_node = param "elements_per_node" in
      let seed = Option.value seed ~default:d.seed in
      let r =
        Sort.run
          { d with protocol; nodes; driver; elements_per_node; seed; tie_seed; observe }
      in
      Printf.sprintf
        "sort: protocol=%s nodes=%d elements_per_node=%d time=%.1fms result=%s \
         faults=%d pages=%d messages=%d"
        protocol nodes elements_per_node r.time_ms
        (verdict (r.sorted && r.correct))
        (r.read_faults + r.write_faults)
        r.pages_transferred r.messages)

let all = [ tsp; jacobi; coloring; lu; matmul; sort ]
let find name = List.find_opt (fun a -> a.name = name) all
let names = String.concat ", " (List.map (fun a -> a.name) all)
