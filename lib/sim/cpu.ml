type t = {
  cpu_name : string;
  quantum : Time.t;
  mutable busy : bool;
  pending : (Time.t * (unit -> unit)) Queue.t;
  mutable busy_ns : Time.t;
}

let default_quantum = Time.of_us 50.

let create ?(quantum = default_quantum) ~name () =
  if quantum <= 0 then invalid_arg "Cpu.create: quantum must be positive";
  { cpu_name = name; quantum; busy = false; pending = Queue.create (); busy_ns = 0 }

let name t = t.cpu_name
let busy_time t = t.busy_ns
let queue_length t = Queue.length t.pending

(* Round-robin time slicing: a computation occupies the CPU for at most one
   quantum at a time, then requeues behind any waiter.  This models Marcel's
   preemptive user-level scheduling: a long-running application thread cannot
   starve the protocol handler threads that serve incoming DSM requests. *)
let rec grant eng cpu dt resume =
  cpu.busy <- true;
  let slice = Time.min dt cpu.quantum in
  cpu.busy_ns <- Time.(cpu.busy_ns + slice);
  Engine.after eng slice (fun () ->
      let remaining = Time.(dt - slice) in
      if remaining > 0 then
        if Queue.is_empty cpu.pending then grant eng cpu remaining resume
        else begin
          Queue.add (remaining, resume) cpu.pending;
          match Queue.take_opt cpu.pending with
          | Some (dt', resume') -> grant eng cpu dt' resume'
          | None -> assert false
        end
      else begin
        (match Queue.take_opt cpu.pending with
        | None -> cpu.busy <- false
        | Some (dt', resume') -> grant eng cpu dt' resume');
        resume ()
      end)

let compute eng cpu dt =
  if dt > 0 then
    Engine.suspend eng (fun resume ->
        if cpu.busy then Queue.add (dt, resume) cpu.pending
        else grant eng cpu dt resume)
