(** The application catalog: every workload this repository can run, in
    one table.

    The paper's platform claim is that any application runs under any
    protocol on any driver.  Each entry here is one application with its
    default protocol, the integer parameters it accepts (defaults taken
    from the application's own [default] config) and one [run] function,
    so the command line, the analyzer, the watchdog and the macro-benchmark
    suite all dispatch through the same code. *)

open Dsmpm2_net
open Dsmpm2_core

type app = {
  name : string;
  protocol : string;  (** the application's default protocol *)
  params : (string * int) list;
      (** every parameter [run] accepts, with its default *)
  run :
    protocol:string ->
    nodes:int ->
    driver:Driver.t ->
    ?seed:int ->
    ?tie_seed:int ->
    observe:(Dsm.t -> unit) ->
    (string * int) list ->
    Dsm.t * string;
      (** [run ~protocol ~nodes ~driver ?seed ?tie_seed ~observe params]
          runs the application to completion and returns the finished
          runtime with a one-line result summary.  [seed] is the input
          seed (ignored by applications without random input; default:
          the application's own); [tie_seed] seeds engine tie-breaking
          ({!Dsm.create}); [observe] sees the runtime before any thread
          starts.  [params] override the defaults in [params]; a name the
          application does not declare raises [Invalid_argument]. *)
}

val all : app list
(** tsp, jacobi, coloring, lu, matmul and sort, in that order. *)

val find : string -> app option

val names : string
(** The catalogued names, comma-separated, for error messages and docs. *)
