(* Self-describing run metadata, embedded in every JSON artifact the
   observability stack exports, so a file says which git revision, tie
   seed, driver, protocol and cluster size produced it. *)

type t = {
  rm_git_rev : string option;
  rm_tie_seed : int option;
  rm_driver : string option;
  rm_protocol : string option;
  rm_nodes : int option;
  rm_case : string option;
}

let empty =
  {
    rm_git_rev = None;
    rm_tie_seed = None;
    rm_driver = None;
    rm_protocol = None;
    rm_nodes = None;
    rm_case = None;
  }

let v ?git_rev ?tie_seed ?driver ?protocol ?nodes ?case () =
  {
    rm_git_rev = git_rev;
    rm_tie_seed = tie_seed;
    rm_driver = driver;
    rm_protocol = protocol;
    rm_nodes = nodes;
    rm_case = case;
  }

(* --- git revision discovery ---

   Best effort and cached: walk up from the current directory looking for
   .git/HEAD, resolving one level of "ref:" indirection.  DSM_GIT_REV
   overrides (useful when running from an exported tarball in CI). *)

let read_first_line path =
  try
    In_channel.with_open_text path (fun ic ->
        match In_channel.input_line ic with
        | Some l -> Some (String.trim l)
        | None -> None)
  with Sys_error _ -> None

let resolve_head dir =
  match read_first_line (Filename.concat dir "HEAD") with
  | None -> None
  | Some head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let ref_path = String.sub head 5 (String.length head - 5) in
        read_first_line (Filename.concat dir ref_path)
      else Some head

let detect_git_rev () =
  match Sys.getenv_opt "DSM_GIT_REV" with
  | Some rev when rev <> "" -> Some rev
  | _ ->
      let rec walk dir depth =
        if depth > 6 then None
        else
          let git = Filename.concat dir ".git" in
          if Sys.file_exists git && Sys.is_directory git then resolve_head git
          else
            let parent = Filename.dirname dir in
            if parent = dir then None else walk parent (depth + 1)
      in
      (try walk (Sys.getcwd ()) 0 with Sys_error _ -> None)

let git_rev_cache = lazy (detect_git_rev ())
let current_git_rev () = Lazy.force git_rev_cache

let with_git t =
  match t.rm_git_rev with
  | Some _ -> t
  | None -> { t with rm_git_rev = current_git_rev () }

(* --- JSON --- *)

let to_json t =
  let opt name conv = function Some v -> [ (name, conv v) ] | None -> [] in
  Json.Obj
    (List.concat
       [
         opt "git_rev" (fun s -> Json.String s) t.rm_git_rev;
         opt "tie_seed" (fun i -> Json.Int i) t.rm_tie_seed;
         opt "driver" (fun s -> Json.String s) t.rm_driver;
         opt "protocol" (fun s -> Json.String s) t.rm_protocol;
         opt "nodes" (fun i -> Json.Int i) t.rm_nodes;
         opt "case" (fun s -> Json.String s) t.rm_case;
       ])
