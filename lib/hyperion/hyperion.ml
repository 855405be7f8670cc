open Dsmpm2_mem
open Dsmpm2_core
open Dsmpm2_protocols

(* Per-home bump allocator over dsm_malloc'd pages. *)
type arena = { mutable cursor : int; mutable remaining : int }

type t = {
  dsm : Dsm.t;
  proto : int;
  arenas : (int, arena) Hashtbl.t; (* home node -> current arena *)
  page_bytes : int;
}

type obj = { obj_addr : int; obj_fields : int }
type monitor = int

let create dsm ~protocol =
  ignore (Dsm.protocol_name dsm protocol);
  {
    dsm;
    proto = protocol;
    arenas = Hashtbl.create 8;
    page_bytes = Page.default_size;
  }

let dsm t = t.dsm
let protocol t = t.proto

let alloc_words t ~home nwords =
  let bytes = nwords * Page.word_bytes in
  if bytes > t.page_bytes then
    invalid_arg "Hyperion: object larger than a page is not supported";
  let arena =
    match Hashtbl.find_opt t.arenas home with
    | Some a when a.remaining >= bytes -> a
    | _ ->
        let addr = Dsm.malloc t.dsm ~protocol:t.proto ~home:(Dsm.On_node home) t.page_bytes in
        let a = { cursor = addr; remaining = t.page_bytes } in
        Hashtbl.replace t.arenas home a;
        a
  in
  let addr = arena.cursor in
  arena.cursor <- arena.cursor + bytes;
  arena.remaining <- arena.remaining - bytes;
  addr

let default_home t =
  match Dsmpm2_pm2.Marcel.self_opt (Runtime.marcel t.dsm) with
  | Some th -> Dsmpm2_pm2.Marcel.node th
  | None -> 0

let new_obj t ?home ~fields () =
  if fields <= 0 then invalid_arg "Hyperion.new_obj: fields must be positive";
  let home = match home with Some h -> h | None -> default_home t in
  { obj_addr = alloc_words t ~home fields; obj_fields = fields }

let new_array t ?home ~len () = new_obj t ?home ~fields:len ()
let addr o = o.obj_addr
let field_count o = o.obj_fields

let home_of_addr t addr =
  let page = Page.page_of_addr t.dsm.Runtime.geo addr in
  (Runtime.entry t.dsm ~node:0 ~page).Page_table.home

let home t o = home_of_addr t o.obj_addr

let check_field o i =
  if i < 0 || i >= o.obj_fields then
    invalid_arg
      (Printf.sprintf "Hyperion: field %d out of range (object has %d fields)" i
         o.obj_fields)

let get t o i =
  check_field o i;
  Dsm.read_int t.dsm (o.obj_addr + (i * Page.word_bytes))

let put t o i v =
  check_field o i;
  Dsm.write_int t.dsm (o.obj_addr + (i * Page.word_bytes)) v

let new_monitor t ?manager () = Dsm.lock_create t.dsm ~protocol:t.proto ?manager ()
let monitor_enter t m = Dsm.lock_acquire t.dsm m
let monitor_exit t m = Dsm.lock_release t.dsm m
let synchronized t m f = Dsm.with_lock t.dsm m f

let main_memory_update t =
  let node = Dsm.self_node t.dsm in
  Java_common.flush_records t.dsm ~node ~protocol:t.proto

let peek_main_memory t o i =
  check_field o i;
  let addr = o.obj_addr + (i * Page.word_bytes) in
  Dsm.unsafe_peek t.dsm ~node:(home_of_addr t addr) addr
