open Dsmpm2_core

type ids = {
  li_hudak : int;
  migrate_thread : int;
  erc_sw : int;
  hbrc_mw : int;
  java_ic : int;
  java_pf : int;
}

let register_all dsm =
  let li_hudak = Dsm.create_protocol dsm Li_hudak.protocol in
  let migrate_thread = Dsm.create_protocol dsm Migrate_thread.protocol in
  let erc_sw = Dsm.create_protocol dsm Erc_sw.protocol in
  let hbrc_mw = Dsm.create_protocol dsm Hbrc_mw.protocol in
  let java_ic = Dsm.create_protocol dsm Java_ic.protocol in
  let java_pf = Dsm.create_protocol dsm Java_pf.protocol in
  Hbrc_mw.register_diff_handler dsm ~protocol:hbrc_mw;
  Dsm.set_default_protocol dsm li_hudak;
  { li_hudak; migrate_thread; erc_sw; hbrc_mw; java_ic; java_pf }

let summary =
  [
    ( "li_hudak",
      "MRSW protocol. Page replication on read access, page migration on \
       write access. Dynamic distributed manager." );
    ( "migrate_thread",
      "Uses thread migration on both read and write faults. Fixed \
       distributed manager." );
    ( "erc_sw",
      "MRSW protocol implementing eager release consistency. Dynamic \
       distributed manager." );
    ( "hbrc_mw",
      "MRMW protocol implementing home-based lazy release consistency. \
       Fixed distributed manager. Uses twins and on-release diffing." );
    ( "java_ic",
      "Home-based MRMW protocol, based on explicit inline checks (ic) for \
       locality. Fixed distributed manager. Uses on-the-fly diff recording." );
    ( "java_pf",
      "Home-based MRMW protocol, based on page faults (pf). Fixed \
       distributed manager. Uses on-the-fly diff recording." );
  ]

type extra_ids = {
  li_hudak_fixed : int;
  hybrid_rw : int;
  entry_ec : int;
  write_update : int;
  sc_abd : int;
}

(* Sequenced with [let]s: OCaml leaves the evaluation order of a record
   literal's fields unspecified, and the registry hands out ids in call
   order.  This order keeps the ids native code has always given them,
   sc_abd 6 up to li_hudak_fixed 10. *)
let register_extras dsm =
  let sc_abd = Sc_abd.register dsm in
  let write_update = Dsm.create_protocol dsm Write_update.protocol in
  let entry_ec = Dsm.create_protocol dsm Entry_ec.protocol in
  let hybrid_rw = Dsm.create_protocol dsm Hybrid_rw.protocol in
  let li_hudak_fixed = Dsm.create_protocol dsm Li_hudak_fixed.protocol in
  { li_hudak_fixed; hybrid_rw; entry_ec; write_update; sc_abd }

(* Read back from a registry the two functions above filled, so the list
   cannot disagree with registration.  Built on first use: a program that
   never asks pays nothing for the throw-away runtime. *)
let declared =
  lazy
    (let dsm = Dsm.create ~nodes:1 ~driver:Dsmpm2_net.Driver.bip_myrinet () in
     ignore (register_all dsm);
     ignore (register_extras dsm);
     List.map snd (Protocol.all dsm.Runtime.registry))

let protocols () = Lazy.force declared
