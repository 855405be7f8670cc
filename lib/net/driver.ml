open Dsmpm2_sim

type t = {
  name : string;
  null_rpc_us : float;
  request_us : float;
  byte_us : float;
  page_base_us : float;
  migration_base_us : float;
}

type cost = Null_rpc | Request | Bulk of int | Migration of int

(* Every message — control or bulk — carries a fixed software/wire header
   (RPC service id, source, destination, DSM opcode and page id all fit
   comfortably).  Byte accounting adds it uniformly so the table 3/4 byte
   columns compare like with like across message kinds; the *latency* of
   the header is already inside the per-kind base costs below, so [delay]
   does not charge it again. *)
let header_bytes = 32

let payload_bytes = function
  | Null_rpc | Request -> 0
  | Bulk n | Migration n -> n

let wire_bytes cost = header_bytes + payload_bytes cost

let delay d = function
  | Null_rpc -> Time.of_us d.null_rpc_us
  | Request -> Time.of_us d.request_us
  | Bulk n -> Time.of_us (d.page_base_us +. (float_of_int n *. d.byte_us))
  | Migration n -> Time.of_us (d.migration_base_us +. (float_of_int n *. d.byte_us))

(* Calibration (DESIGN.md section 6).  A 4 kB page transfer must cost the
   paper's Table 3 figure, and a minimal thread migration (1 kB stack + 256 B
   descriptor = 1280 B) the Table 4 figure:

     page_transfer  = page_base_us      + 4096 * byte_us
     migration      = migration_base_us + 1280 * byte_us

   byte_us is taken from the nominal link bandwidth; the base absorbs the
   software path (protocol stack traversal, DMA setup, handler dispatch). *)

let bip_myrinet =
  {
    name = "BIP/Myrinet";
    null_rpc_us = 8.;
    request_us = 23.;
    byte_us = 0.008;
    (* ~125 MB/s *)
    page_base_us = 138. -. (4096. *. 0.008);
    migration_base_us = 75. -. (1280. *. 0.008);
  }

let tcp_myrinet =
  {
    name = "TCP/Myrinet";
    null_rpc_us = 30.;
    request_us = 220.;
    byte_us = 0.025;
    (* ~40 MB/s *)
    page_base_us = 343. -. (4096. *. 0.025);
    migration_base_us = 280. -. (1280. *. 0.025);
  }

let tcp_fast_ethernet =
  {
    name = "TCP/FastEthernet";
    null_rpc_us = 60.;
    request_us = 220.;
    byte_us = 0.091;
    (* ~11 MB/s *)
    page_base_us = 736. -. (4096. *. 0.091);
    migration_base_us = 373. -. (1280. *. 0.091);
  }

let sisci_sci =
  {
    name = "SISCI/SCI";
    null_rpc_us = 6.;
    request_us = 38.;
    byte_us = 0.0125;
    (* ~80 MB/s *)
    page_base_us = 119. -. (4096. *. 0.0125);
    migration_base_us = 62. -. (1280. *. 0.0125);
  }

let all = [ bip_myrinet; tcp_myrinet; tcp_fast_ethernet; sisci_sci ]

let by_name name =
  List.find_opt (fun d -> String.equal d.name name) all

let slug s = String.map (fun c -> if c = '/' then '-' else Char.lowercase_ascii c) s

let pp ppf d =
  Format.fprintf ppf
    "%s (null_rpc %.1fus, request %.1fus, %.4fus/B, page_base %.1fus, mig_base %.1fus)"
    d.name d.null_rpc_us d.request_us d.byte_us d.page_base_us d.migration_base_us
