open Dsmpm2_sim
open Dsmpm2_net
open Dsmpm2_pm2

type row = {
  driver : string;
  null_rpc_us : float;
  paper_null_rpc_us : float option;
  migration_us : float;
  paper_migration_us : float option;
}

type Rpc.payload += Ping

let measure_null_rpc driver =
  let pm2 = Pm2.create ~nodes:2 ~driver () in
  let rpc = Pm2.rpc pm2 in
  let received_at = ref Time.zero in
  let service =
    Rpc.register rpc ~name:"ping" (fun ~src:_ _payload ->
        received_at := Engine.now (Pm2.engine pm2);
        (Rpc.Unit, Driver.Null_rpc))
  in
  let sent_at = ref Time.zero in
  ignore
    (Pm2.spawn pm2 ~node:0 (fun () ->
         sent_at := Engine.now (Pm2.engine pm2);
         Rpc.oneway rpc ~dst:1 ~service ~cost:Driver.Null_rpc Ping));
  Pm2.run pm2;
  Time.to_us Time.(!received_at - !sent_at)

let measure_migration driver =
  let pm2 = Pm2.create ~nodes:2 ~driver () in
  let started = ref Time.zero and finished = ref Time.zero in
  ignore
    (Pm2.spawn pm2 ~node:0 ~stack_bytes:1024 (fun () ->
         started := Engine.now (Pm2.engine pm2);
         Pm2.migrate pm2 ~dst:1;
         finished := Engine.now (Pm2.engine pm2)));
  Pm2.run pm2;
  Time.to_us Time.(!finished - !started)

(* The paper quotes null-RPC and migration figures for its two
   high-performance interconnects only. *)
let paper_numbers = function
  | "BIP/Myrinet" -> (Some 8., Some 75.)
  | "SISCI/SCI" -> (Some 6., Some 62.)
  | "TCP/Myrinet" -> (None, Some 280.)
  | "TCP/FastEthernet" -> (None, Some 373.)
  | _ -> (None, None)

let run () =
  List.map
    (fun driver ->
      let paper_null_rpc_us, paper_migration_us = paper_numbers driver.Driver.name in
      {
        driver = driver.Driver.name;
        null_rpc_us = measure_null_rpc driver;
        paper_null_rpc_us;
        migration_us = measure_migration driver;
        paper_migration_us;
      })
    Driver.all

let pp_opt ppf = function
  | None -> Format.fprintf ppf "%8s" "-"
  | Some v -> Format.fprintf ppf "%8.1f" v

let print ppf rows =
  Format.fprintf ppf "PM2 substrate micro-benchmarks (paper section 2.1)@.";
  Format.fprintf ppf "%-18s %10s %10s %12s %12s@." "Driver" "null RPC" "(paper)"
    "migration" "(paper)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-18s %10.1f %a %12.1f %a@." r.driver r.null_rpc_us
        pp_opt r.paper_null_rpc_us r.migration_us pp_opt r.paper_migration_us)
    rows

let rows rs =
  let row what r us paper =
    let paper = Option.fold ~none:[] ~some:(fun p -> [ ("paper_ns", Time.of_us p) ]) paper in
    (Printf.sprintf "micro/%s/%s" what (Driver.slug r.driver), ("ns", Time.of_us us) :: paper)
  in
  List.concat_map
    (fun r ->
      [
        row "null_rpc" r r.null_rpc_us r.paper_null_rpc_us;
        row "migration" r r.migration_us r.paper_migration_us;
      ])
    rs
