open Dsmpm2_sim
open Dsmpm2_pm2

type ext = ..
type ext += No_ext

type entry = {
  page : int;
  mutable rights : Dsmpm2_mem.Access.t;
  mutable prob_owner : int;
  mutable home : int;
  mutable copyset : int list;
  mutable protocol : int;
  mutable faulting : bool;
  mutable pinned : bool;
  fault_done : Marcel.Cond.t;
  entry_mutex : Marcel.Mutex.t;
  mutable twin : bytes option;
  mutable ext : ext;
}

type t = {
  table_node : int;
  mutable entries : entry array;
      (* page -> entry, [absent] where the page is not mapped: page numbers
         are dense from the iso-address allocator, so a lookup is one
         array read *)
  mutable count : int;
  mutable node_exts : ext array; (* protocol id -> state, [No_ext] if unset *)
  mutable mapped : Stats.cell option;
}

exception Not_mapped of int

let new_entry ~page ~home ~owner ~protocol ~rights =
  {
    page;
    rights;
    prob_owner = owner;
    home;
    copyset = [];
    protocol;
    faulting = false;
    pinned = false;
    fault_done = Marcel.Cond.create ();
    entry_mutex = Marcel.Mutex.create ();
    twin = None;
    ext = No_ext;
  }

let absent = new_entry ~page:(-1) ~home:0 ~owner:0 ~protocol:0 ~rights:Dsmpm2_mem.Access.No_access

let create ~node =
  { table_node = node; entries = [||]; count = 0; node_exts = [||]; mapped = None }

let node t = t.table_node
let count_mapped t cell = t.mapped <- Some cell

(* The entry of [page], or [absent]; a page outside the array is a miss and
   leaves the table as it is. *)
let[@inline] get t page =
  if page >= 0 && page < Array.length t.entries then Array.unsafe_get t.entries page
  else absent

let declare t ~page ~home ~owner ~protocol ~rights =
  if get t page != absent then
    invalid_arg (Printf.sprintf "Page_table.declare: page %d already mapped" page);
  t.entries <- Dense.ensure t.entries page absent;
  Option.iter Stats.bump t.mapped;
  let entry = new_entry ~page ~home ~owner ~protocol ~rights in
  t.entries.(page) <- entry;
  t.count <- t.count + 1;
  entry

let[@inline never] not_mapped page = raise (Not_mapped page)

let[@inline] find t page =
  let e = get t page in
  if e == absent then not_mapped page;
  e

let find_opt t page =
  let e = get t page in
  if e == absent then None else Some e

let mem t page = get t page != absent
let length t = t.count

let iter t f =
  let entries = t.entries in
  for page = 0 to Array.length entries - 1 do
    let e = Array.unsafe_get entries page in
    if e != absent then f e
  done

let entries t =
  let acc = ref [] in
  for page = Array.length t.entries - 1 downto 0 do
    let e = t.entries.(page) in
    if e != absent then acc := e :: !acc
  done;
  !acc

let copyset_add e n =
  if not (List.mem n e.copyset) then
    e.copyset <- List.sort compare (n :: e.copyset)

let copyset_remove e n = e.copyset <- List.filter (fun m -> m <> n) e.copyset

let node_ext t ~protocol =
  if protocol >= 0 && protocol < Array.length t.node_exts then t.node_exts.(protocol)
  else No_ext

let set_node_ext t ~protocol ext =
  t.node_exts <- Dense.ensure t.node_exts protocol No_ext;
  t.node_exts.(protocol) <- ext
