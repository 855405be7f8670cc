(** Ablation studies for the design discussion in the paper's Section 4.

    (a) Stack size: "the migration time is closely related to the stack size
    of the thread", so "choosing between the implementation based on page
    transfer and the one based on thread migration deserves careful
    attention".  We sweep the faulting thread's stack size on every driver
    and report the cold-read-fault cost under both policies, exposing the
    crossover the paper predicts.

    (b) Synchronization frequency: the TSP workers refresh their bound under
    the lock every [refresh_period] expansions; sweeping it shows how each
    protocol's cost scales with synchronization rate (and that
    [migrate_thread]'s pile-up is not an artefact of one setting).

    (c) Page-manager strategy: the generic page table supports both manager
    disciplines of Li & Hudak's classification.  A chain of successive
    writers moves ownership around; a late reader then faults.  We compare
    the dynamic distributed manager (probable-owner chains with path
    compression) against the fixed manager (two-hop via the home) in
    request traffic and read latency.

    (d) Dynamic load balancing: the paper presents preemptive thread
    migration as the vehicle for "generic policies for dynamic load
    balancing" (Section 2.1) and notes that [migrate_thread]'s TSP loss
    comes from every worker piling up on the bound's node.  Running PM2's
    load balancer alongside the same program measures how much of that loss
    generic balancing recovers. *)

type stack_row = {
  driver : string;
  stack_bytes : int;
  page_transfer_us : float;
  thread_migration_us : float;
}

type refresh_row = { protocol : string; refresh_period : int; time_ms : float }

type manager_row = {
  manager : string;  (** "dynamic" (li_hudak) or "fixed" (li_hudak_fixed) *)
  writers : int;  (** ownership hand-offs before the measured read *)
  request_messages : int;
  read_latency_us : float;  (** the late reader's cold fault *)
}

type balance_row = {
  balanced : bool;
  nodes_used : int;
  tsp_time_ms : float;
  thread_migrations : int;
  balancer_moves : int;
}

type data = {
  stack : stack_row list;
  refresh : refresh_row list;
  manager : manager_row list;
  balance : balance_row list;
}

val run : unit -> data
val print : Format.formatter -> data -> unit

val rows : data -> (string * (string * int) list) list
(** [ablation/stack/<driver slug>/<bytes>], [ablation/refresh/<protocol>/<period>],
    [ablation/manager/<manager>/<writers>], [ablation/balance/<nodes>/<on|off>]. *)
