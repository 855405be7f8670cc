include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* The key itself: the keys (pages, node ids) are small integers, which a
     power-of-two bucket array spreads as well as any mixing would. *)
  let hash (x : int) = x land max_int
end)
