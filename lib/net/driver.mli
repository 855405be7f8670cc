(** Network cost models: the simulated counterpart of the Madeleine drivers.

    The paper runs on four cluster configurations; each becomes a [Driver.t]
    whose parameters are calibrated so that the model reproduces the paper's
    measured microsecond figures (Tables 3 and 4, and the null-RPC and
    thread-migration latencies of Section 2.1).  See DESIGN.md section 6 for
    the calibration procedure. *)

open Dsmpm2_sim

type t = {
  name : string;
  null_rpc_us : float;  (** minimal one-way RPC latency (paper section 2.1) *)
  request_us : float;  (** small control message incl. dispatch (Table 3) *)
  byte_us : float;  (** per-byte streaming cost, from nominal link bandwidth *)
  page_base_us : float;  (** fixed overhead of a bulk (page/diff) transfer *)
  migration_base_us : float;  (** fixed overhead of a thread migration *)
}

type cost =
  | Null_rpc  (** an empty RPC invocation *)
  | Request  (** a small protocol control message (page request, ack, ...) *)
  | Bulk of int  (** a data transfer of [n] bytes (page, diff, update) *)
  | Migration of int  (** a thread migration carrying [n] bytes of state *)

val delay : t -> cost -> Time.t
(** One-way latency of a message of the given kind on this driver. *)

val header_bytes : int
(** Fixed per-message header charged by the byte accounting for {e every}
    message kind (service id, endpoints, opcode, page id), so byte columns
    are comparable across control and bulk traffic.  Its latency is part of
    the per-kind base costs, so {!delay} does not charge it again. *)

val payload_bytes : cost -> int
(** Payload bytes of the message: 0 for control kinds, [n] for
    [Bulk n]/[Migration n]. *)

val wire_bytes : cost -> int
(** [header_bytes + payload_bytes cost] — what {!Network.bytes_sent}
    accumulates per message. *)

val bip_myrinet : t
val tcp_myrinet : t
val tcp_fast_ethernet : t
val sisci_sci : t

val all : t list
(** The four platforms of the paper's evaluation, in the column order of its
    Tables 3 and 4. *)

val by_name : string -> t option

val slug : string -> string
(** A driver name made file- and filter-safe: lower case, ['/'] as ['-']
    (["BIP/Myrinet"] is ["bip-myrinet"]).  Macro-benchmark case ids and
    [dsm check --explain] artifact names use it. *)

val pp : Format.formatter -> t -> unit
