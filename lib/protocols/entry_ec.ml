open Dsmpm2_core

type binding = { mutable pages : int list }
type Page_table.ext += Ec_binding of binding

let protocol_id rt =
  match Protocol.find_by_name rt.Runtime.registry "entry_ec" with
  | Some (id, _) -> id
  | None -> failwith "entry_ec: protocol not registered"

let binding_of (ls : Runtime.lock_state) =
  match ls.Runtime.lock_ext with
  | Ec_binding b -> Some b
  | _ -> None

let bind rt ~lock ~addr ~size =
  let ls = Runtime.lock_state rt lock in
  let pages = Dsm.region_pages rt ~addr ~size in
  match binding_of ls with
  | Some b -> b.pages <- List.sort_uniq Int.compare (pages @ b.pages)
  | None -> ls.Runtime.lock_ext <- Ec_binding { pages = List.sort_uniq Int.compare pages }

let bound_pages rt ~lock =
  match binding_of (Runtime.lock_state rt lock) with
  | Some b -> b.pages
  | None -> []

(* The scope of a hook invocation: the lock's bound pages, or everything for
   unbound locks and for barriers.  Decoding through [Dsm_sync.hook_target]
   keeps barrier hook ids (a synthetic negative namespace) from ever being
   looked up in the lock directory. *)
let scope rt ~lock =
  match Dsm_sync.hook_target lock with
  | `Barrier _ -> None
  | `Lock lock -> (
      match binding_of (Runtime.lock_state rt lock) with
      | Some b -> Some b.pages
      | None -> None)

let lock_acquire rt ~node ~lock =
  Java_common.drop_selected rt ~node ~protocol:(protocol_id rt) ~only:(scope rt ~lock)

let lock_release rt ~node ~lock =
  Java_common.flush_selected rt ~node ~protocol:(protocol_id rt) ~only:(scope rt ~lock)

let protocol =
  {
    (Java_common.make ~name:"entry_ec" ~detection:Protocol.Page_fault) with
    Protocol.model = Protocol.Release;
    lock_acquire;
    lock_release;
  }
