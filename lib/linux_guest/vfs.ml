module Errno = Hostos.Errno
module Sfs = Blockdev.Simplefs

type fs =
  | Simple of Sfs.t
  | Pseudo of (unit -> (string * string) list)

type mount = { mid : int; source : string; fs : fs }

type ns = { nsid : int; mutable table : (string * mount) list }

type t = {
  namespaces_tbl : (int, ns) Hashtbl.t;
  mutable next_ns : int;
  mutable next_mid : int;
}

let normalize path =
  let parts = String.split_on_char '/' path |> List.filter (( <> ) "") in
  "/" ^ String.concat "/" parts

let sort_table table =
  List.sort (fun (a, _) (b, _) -> compare (String.length b) (String.length a)) table

let create () =
  let t = { namespaces_tbl = Hashtbl.create 8; next_ns = 2; next_mid = 1 } in
  Hashtbl.replace t.namespaces_tbl 1 { nsid = 1; table = [] };
  (t, 1)

let ns_exn t nsid =
  match Hashtbl.find_opt t.namespaces_tbl nsid with
  | Some ns -> ns
  | None -> invalid_arg (Printf.sprintf "Vfs: no namespace %d" nsid)

let new_namespace t ~from =
  let src = ns_exn t from in
  let nsid = t.next_ns in
  t.next_ns <- nsid + 1;
  Hashtbl.replace t.namespaces_tbl nsid { nsid; table = src.table };
  nsid

let mounts t ~ns = (ns_exn t ns).table

let mount t ~ns ~at ~source fs =
  let n = ns_exn t ns in
  let at = normalize at in
  let m = { mid = t.next_mid; source; fs } in
  t.next_mid <- t.next_mid + 1;
  n.table <- sort_table ((at, m) :: List.remove_assoc at n.table)

let umount t ~ns ~at =
  let n = ns_exn t ns in
  let at = normalize at in
  if List.mem_assoc at n.table then begin
    n.table <- List.remove_assoc at n.table;
    Ok ()
  end
  else Error Errno.ENOENT

let move_mounts_under t ~ns ~prefix =
  let n = ns_exn t ns in
  let prefix = normalize prefix in
  n.table <-
    sort_table
      (List.map
         (fun (at, m) ->
           let at' = if at = "/" then prefix else prefix ^ at in
           (at', m))
         n.table)

let resolve t ~ns path =
  let n = ns_exn t ns in
  let path = normalize path in
  let matches (at, _) =
    at = "/" || path = at
    || (String.length path > String.length at
       && String.sub path 0 (String.length at) = at
       && path.[String.length at] = '/')
  in
  match List.find_opt matches n.table with
  | None -> None
  | Some (at, m) ->
      let rel =
        if at = "/" then path
        else if path = at then "/"
        else String.sub path (String.length at) (String.length path - String.length at)
      in
      Some (m, rel)

let ( let* ) = Result.bind

let with_mount t ~ns path f =
  match resolve t ~ns path with
  | None -> Error Errno.ENOENT
  | Some (m, rel) -> f m rel

let read_file t ~ns path =
  with_mount t ~ns path (fun m rel ->
      match m.fs with
      | Simple fs -> Sfs.read_file fs rel
      | Pseudo gen -> (
          let name = String.concat "/" (String.split_on_char '/' rel |> List.filter (( <> ) "")) in
          match List.assoc_opt name (gen ()) with
          | Some content -> Ok (Bytes.of_string content)
          | None -> Error Errno.ENOENT))

let write_file t ~ns path data =
  with_mount t ~ns path (fun m rel ->
      match m.fs with
      | Simple fs -> Sfs.write_file fs rel data
      | Pseudo _ -> Error Errno.EACCES)

let read_at t ~ns path ~off ~len =
  with_mount t ~ns path (fun m rel ->
      match m.fs with
      | Simple fs ->
          let* ino = Sfs.lookup fs rel in
          Sfs.read fs ino ~off ~len
      | Pseudo _ -> Error Errno.EINVAL)

let write_at t ~ns path ~off data =
  with_mount t ~ns path (fun m rel ->
      match m.fs with
      | Simple fs ->
          let* ino =
            match Sfs.lookup fs rel with
            | Ok ino -> Ok ino
            | Error Errno.ENOENT -> Sfs.create fs rel
            | Error e -> Error e
          in
          Sfs.write fs ino ~off data
      | Pseudo _ -> Error Errno.EACCES)

let exists t ~ns path =
  match resolve t ~ns path with
  | None -> false
  | Some (m, rel) -> (
      match m.fs with
      | Simple fs -> Sfs.exists fs rel || rel = "/"
      | Pseudo gen -> rel = "/" || List.mem_assoc (String.sub rel 1 (String.length rel - 1)) (gen ()))

let mkdir_p t ~ns path =
  with_mount t ~ns path (fun m rel ->
      match m.fs with
      | Simple fs ->
          let parts = String.split_on_char '/' rel |> List.filter (( <> ) "") in
          let rec go prefix = function
            | [] -> Ok ()
            | d :: rest -> (
                let dir = prefix ^ "/" ^ d in
                match Sfs.mkdir fs dir with
                | Ok _ | Error Errno.EEXIST -> go dir rest
                | Error e -> Error e)
          in
          go "" parts
      | Pseudo _ -> Error Errno.EACCES)

let unlink t ~ns path =
  with_mount t ~ns path (fun m rel ->
      match m.fs with
      | Simple fs -> Sfs.unlink fs rel
      | Pseudo _ -> Error Errno.EACCES)

let readdir t ~ns path =
  with_mount t ~ns path (fun m rel ->
      match m.fs with
      | Simple fs ->
          let* entries = Sfs.readdir fs rel in
          Ok (List.map fst entries)
      | Pseudo gen -> Ok (List.map fst (gen ())))

let stat_size t ~ns path =
  with_mount t ~ns path (fun m rel ->
      match m.fs with
      | Simple fs ->
          let* st = Sfs.stat fs rel in
          Ok st.Sfs.st_size
      | Pseudo gen -> (
          match
            List.assoc_opt
              (String.concat "/"
                 (String.split_on_char '/' rel |> List.filter (( <> ) "")))
              (gen ())
          with
          | Some c -> Ok (String.length c)
          | None -> Error Errno.ENOENT))
