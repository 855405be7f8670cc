open Dsmpm2_sim
open Dsmpm2_pm2
open Dsmpm2_mem

type ext = ..
type ext += No_ext

type entry = {
  page : int;
  mutable prot : int;
  mutable prob_owner : int;
  mutable home : int;
  mutable copyset : int list;
  mutable protocol : int;
  mutable faulting : bool;
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

(* The protection word: the hit class of the entry's protocol in the low
   bits ({!Protocol.read_hits}, [write_hits], [inline_hits]), then one bit
   per right the node holds, then the pin. *)
let cls_mask = Protocol.read_hits lor Protocol.write_hits lor Protocol.inline_hits
let may_read = 8
let may_write = 16
let pin = 32
let () = assert (cls_mask land (may_read lor may_write lor pin) = 0)

let[@inline] rights_bits = function
  | Access.No_access -> 0
  | Access.Read_only -> may_read
  | Access.Read_write -> may_read lor may_write

let[@inline] rights e =
  if e.prot land may_write <> 0 then Access.Read_write
  else if e.prot land may_read <> 0 then Access.Read_only
  else Access.No_access

let[@inline] set_rights e r =
  e.prot <- (e.prot land lnot (may_read lor may_write)) lor rights_bits r

let[@inline] allows e = function
  | Access.Read -> e.prot land may_read <> 0
  | Access.Write -> e.prot land may_write <> 0

let[@inline] pinned e = e.prot land pin <> 0
let[@inline] set_pinned e b = e.prot <- (if b then e.prot lor pin else e.prot land lnot pin)
let[@inline] hit_class e = e.prot land cls_mask

let set_protocol e ~protocol ~cls =
  e.protocol <- protocol;
  e.prot <- (e.prot land lnot cls_mask) lor (cls land cls_mask)

(* A mode's hit wants its class bit and its right, and no pin. *)
let[@inline] hits e = function
  | Access.Read ->
      e.prot land (Protocol.read_hits lor may_read lor pin) = Protocol.read_hits lor may_read
  | Access.Write ->
      e.prot land (Protocol.write_hits lor may_write lor pin)
      = Protocol.write_hits lor may_write

let[@inline] inline_checked e = e.prot land Protocol.inline_hits <> 0

let new_entry ~page ~home ~owner ~protocol ~cls ~rights =
  {
    page;
    prot = (cls land cls_mask) lor rights_bits rights;
    prob_owner = owner;
    home;
    copyset = [];
    protocol;
    faulting = false;
    fault_done = Marcel.Cond.create ();
    entry_mutex = Marcel.Mutex.create ();
    twin = None;
    ext = No_ext;
  }

let absent = new_entry ~page:(-1) ~home:0 ~owner:0 ~protocol:0 ~cls:0 ~rights:Access.No_access

let create ~node =
  { table_node = node; entries = [||]; count = 0; node_exts = [||]; mapped = None }

let node t = t.table_node
let count_mapped t cell = t.mapped <- Some cell

(* The entry of [page], or [absent]; a page outside the array is a miss and
   leaves the table as it is. *)
let[@inline] get t page =
  if page >= 0 && page < Array.length t.entries then Array.unsafe_get t.entries page
  else absent

let declare t ~page ~home ~owner ~protocol ~cls ~rights =
  if get t page != absent then
    invalid_arg (Printf.sprintf "Page_table.declare: page %d already mapped" page);
  t.entries <- Dense.ensure t.entries page absent;
  Option.iter Stats.bump t.mapped;
  let entry = new_entry ~page ~home ~owner ~protocol ~cls ~rights in
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
    e.copyset <- List.sort Int.compare (n :: e.copyset)

let copyset_remove e n = e.copyset <- List.filter (fun m -> m <> n) e.copyset

let node_ext t ~protocol =
  if protocol >= 0 && protocol < Array.length t.node_exts then t.node_exts.(protocol)
  else No_ext

let set_node_ext t ~protocol ext =
  t.node_exts <- Dense.ensure t.node_exts protocol No_ext;
  t.node_exts.(protocol) <- ext
