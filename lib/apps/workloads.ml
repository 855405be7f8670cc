let tsp_expand_us = 1.0
let coloring_expand_us = 0.5
let jacobi_point_us = 0.2
let matmul_inner_us = 0.05

let charge_batched dsm unit_us n =
  if n > 0 then Dsmpm2_core.Dsm.charge dsm (unit_us *. float_of_int n)

let start ~app ?tie_seed ~nodes ~driver ~observe protocol =
  let open Dsmpm2_core in
  let dsm = Dsm.create ?tie_seed ~nodes ~driver () in
  ignore (Dsmpm2_protocols.Builtin.register_all dsm);
  ignore (Dsmpm2_protocols.Builtin.register_extras dsm);
  Option.iter (fun f -> f dsm) observe;
  match Dsm.protocol_by_name dsm protocol with
  | Some p -> (dsm, p)
  | None -> invalid_arg (app ^ ".run: unknown protocol " ^ protocol)
