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
  entries : entry Int_table.t;
  node_exts : (int, ext) Hashtbl.t;
  mutable mapped : Stats.cell option;
}

exception Not_mapped of int

let create ~node =
  {
    table_node = node;
    entries = Int_table.create 256;
    node_exts = Hashtbl.create 8;
    mapped = None;
  }

let node t = t.table_node
let count_mapped t cell = t.mapped <- Some cell

let declare t ~page ~home ~owner ~protocol ~rights =
  if Int_table.mem t.entries page then
    invalid_arg (Printf.sprintf "Page_table.declare: page %d already mapped" page);
  Option.iter Stats.bump t.mapped;
  let entry =
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
  in
  Int_table.add t.entries page entry;
  entry

let find t page =
  match Int_table.find t.entries page with
  | e -> e
  | exception Not_found -> raise (Not_mapped page)

let find_opt t page = Int_table.find_opt t.entries page
let mem t page = Int_table.mem t.entries page
let length t = Int_table.length t.entries

let entries t =
  Int_table.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> compare a.page b.page)

let copyset_add e n =
  if not (List.mem n e.copyset) then
    e.copyset <- List.sort compare (n :: e.copyset)

let copyset_remove e n = e.copyset <- List.filter (fun m -> m <> n) e.copyset

let node_ext t ~protocol =
  match Hashtbl.find_opt t.node_exts protocol with Some e -> e | None -> No_ext

let set_node_ext t ~protocol ext = Hashtbl.replace t.node_exts protocol ext
