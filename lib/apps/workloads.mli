(** Shared cost constants and start-up of the application workloads.

    All simulated CPU costs of the example applications live here so the
    communication/computation ratios are set (and documented) in one place.
    They model a 450 MHz Pentium II (the paper's nodes): very roughly 450
    simple operations per microsecond; a branch-and-bound node expansion or
    a grid-point relaxation each cost on the order of a microsecond. *)

val tsp_expand_us : float
(** One TSP search-tree node expansion (bound computation included). *)

val coloring_expand_us : float
(** One map-colouring assignment step, excluding its object accesses (those
    are charged by the DSM access path itself). *)

val jacobi_point_us : float
(** Relaxing one grid point. *)

val matmul_inner_us : float
(** One fused multiply-add of the matrix-multiply inner loop. *)

val charge_batched : Dsmpm2_core.Dsm.t -> float -> int -> unit
(** [charge_batched dsm unit_us n] accrues [n] work units lazily (see
    {!Dsmpm2_pm2.Marcel.charge}). *)

val start :
  app:string ->
  ?tie_seed:int ->
  nodes:int ->
  driver:Dsmpm2_net.Driver.t ->
  observe:(Dsmpm2_core.Dsm.t -> unit) option ->
  string ->
  Dsmpm2_core.Dsm.t * int
(** [start ~app ~nodes ~driver ~observe protocol] creates the runtime,
    registers every built-in protocol (core and extras), hands the runtime
    to [observe] before any thread exists, and resolves [protocol] by name.
    An unknown name raises [Invalid_argument] naming [app]. *)
