open Dsmpm2_sim
open Dsmpm2_mem

type detection = Page_fault | Inline_check
type model = Sequential | Release | Java

let model_to_string = function
  | Sequential -> "sequential"
  | Release -> "release"
  | Java -> "java"

let strict_coherence = function Sequential -> true | Release | Java -> false

type page_message = {
  page : int;
  data : bytes;
  grant : Access.t;
  ownership : bool;
  copyset : int list;
  sender : int;
  req_mode : Access.mode;
  sent_at : Time.t;
  span : int;
}

type 'rt t = {
  name : string;
  detection : detection;
  model : model;
  read_fault : 'rt -> node:int -> page:int -> unit;
  write_fault : 'rt -> node:int -> page:int -> unit;
  read_server : 'rt -> node:int -> page:int -> requester:int -> unit;
  write_server : 'rt -> node:int -> page:int -> requester:int -> unit;
  invalidate_server : 'rt -> node:int -> page:int -> sender:int -> unit;
  receive_page_server : 'rt -> node:int -> msg:page_message -> unit;
  lock_acquire : 'rt -> node:int -> lock:int -> unit;
  lock_release : 'rt -> node:int -> lock:int -> unit;
  on_local_write :
    ('rt -> node:int -> page:int -> offset:int -> value:int -> unit) option;
  on_local_read : ('rt -> node:int -> page:int -> unit) option;
  on_page_init : ('rt -> node:int -> page:int -> unit) option;
}

(* Ids [0, count) are registered; [classes.(id)] is the hit class of
   [protocols.(id)], computed once at registration (records are
   immutable).  Both arrays grow by doubling ([Dense.ensure]) from room
   for 16, so registering the built-in protocols allocates each once;
   slots from [count] on are filler. *)
type 'rt registry = {
  mutable protocols : 'rt t array;
  mutable classes : int array;
  mutable count : int;
}

let no_action _ ~node:_ ~lock:_ = ()
let create_registry () = { protocols = [||]; classes = [||]; count = 0 }

let read_hits = 1
let write_hits = 2
let inline_hits = 4

let class_of proto =
  (match proto.on_local_read with None -> read_hits | Some _ -> 0)
  lor (match proto.on_local_write with None -> write_hits | Some _ -> 0)
  lor match proto.detection with Inline_check -> inline_hits | Page_fault -> 0

let register reg proto =
  let id = reg.count in
  if id = Array.length reg.protocols then begin
    reg.protocols <- Dense.ensure reg.protocols (max id 15) proto;
    reg.classes <- Dense.ensure reg.classes (max id 15) 0
  end;
  reg.protocols.(id) <- proto;
  reg.classes.(id) <- class_of proto;
  reg.count <- id + 1;
  id

let[@inline never] unknown_id id =
  invalid_arg (Printf.sprintf "Protocol.find: unknown protocol id %d" id)

let[@inline] find reg id =
  if id < 0 || id >= reg.count then unknown_id id;
  Array.unsafe_get reg.protocols id

let[@inline] hit_class reg id =
  if id < 0 || id >= reg.count then unknown_id id;
  Array.unsafe_get reg.classes id

let find_by_name reg name =
  let rec search i =
    if i >= reg.count then None
    else if String.equal reg.protocols.(i).name name then Some (i, reg.protocols.(i))
    else search (i + 1)
  in
  search 0

let count reg = reg.count
let all reg = List.init reg.count (fun i -> (i, reg.protocols.(i)))
