open Dsmpm2_apps

type cell = {
  kernel : string;
  protocol : string;
  time_ms : float;
  correct : bool;
  read_faults : int;
  write_faults : int;
  pages : int;
  diff_bytes : int;
}

let protocols = [ "li_hudak"; "erc_sw"; "hbrc_mw"; "migrate_thread" ]

let run () =
  let jacobi_ref =
    Jacobi.checksum_sequential ~size:Jacobi.default.Jacobi.size
      ~iterations:Jacobi.default.Jacobi.iterations
  in
  let matmul_ref =
    Matmul.checksum_sequential ~size:Matmul.default.Matmul.size
      ~seed:Matmul.default.Matmul.seed
  in
  let lu_ref =
    Lu.checksum_sequential ~size:Lu.default.Lu.size ~seed:Lu.default.Lu.seed
  in
  List.concat_map
    (fun protocol ->
      let j = Jacobi.run { Jacobi.default with Jacobi.protocol } in
      let m = Matmul.run { Matmul.default with Matmul.protocol } in
      let l = Lu.run { Lu.default with Lu.protocol } in
      let s = Sort.run { Sort.default with Sort.protocol } in
      [
        {
          kernel = "jacobi";
          protocol;
          time_ms = j.Jacobi.time_ms;
          correct = j.Jacobi.checksum = jacobi_ref;
          read_faults = j.Jacobi.read_faults;
          write_faults = j.Jacobi.write_faults;
          pages = j.Jacobi.pages_transferred;
          diff_bytes = j.Jacobi.diff_bytes;
        };
        {
          kernel = "matmul";
          protocol;
          time_ms = m.Matmul.time_ms;
          correct = m.Matmul.checksum = matmul_ref;
          read_faults = m.Matmul.read_faults;
          write_faults = m.Matmul.write_faults;
          pages = m.Matmul.pages_transferred;
          diff_bytes = 0;
        };
        {
          kernel = "lu";
          protocol;
          time_ms = l.Lu.time_ms;
          correct = l.Lu.checksum = lu_ref;
          read_faults = l.Lu.read_faults;
          write_faults = l.Lu.write_faults;
          pages = l.Lu.pages_transferred;
          diff_bytes = 0;
        };
        {
          kernel = "sort";
          protocol;
          time_ms = s.Sort.time_ms;
          correct = s.Sort.sorted && s.Sort.correct;
          read_faults = s.Sort.read_faults;
          write_faults = s.Sort.write_faults;
          pages = s.Sort.pages_transferred;
          diff_bytes = 0;
        };
      ])
    protocols

let print ppf cells =
  Format.fprintf ppf
    "SPLASH-style kernels (48x48 Jacobi, 8 sweeps; 32x32 matmul; 32x32 LU; \
     256-element sort), 4 nodes, BIP/Myrinet@.";
  Format.fprintf ppf "%-8s %-16s %10s %8s %8s %8s %8s %10s@." "Kernel" "Protocol"
    "time(ms)" "correct" "rfaults" "wfaults" "pages" "diffbytes";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-8s %-16s %10.1f %8b %8d %8d %8d %10d@." c.kernel
        c.protocol c.time_ms c.correct c.read_faults c.write_faults c.pages
        c.diff_bytes)
    cells

let rows cells =
  List.map
    (fun c ->
      ( Printf.sprintf "splash/%s/%s" c.kernel c.protocol,
        [
          ("time_ns", Dsmpm2_sim.Time.of_us (c.time_ms *. 1000.));
          ("correct", Bool.to_int c.correct);
          ("read_faults", c.read_faults);
          ("write_faults", c.write_faults);
          ("pages", c.pages);
          ("diff_bytes", c.diff_bytes);
        ] ))
    cells
