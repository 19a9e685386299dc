type entry = { path : string; size : int; content : string option }
type manifest = entry list

let file ?content path size = { path; size; content }
let total_size m = List.fold_left (fun acc e -> acc + e.size) 0 m

let synthetic_content ~path size =
  (* Deterministic, position-dependent filler so image bytes are stable
     across runs and distinguishable per file. *)
  let seed = Hashtbl.hash path in
  let b = Bytes.create size in
  for i = 0 to size - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr ((seed + (i * 131)) land 0x7f))
  done;
  Bytes.unsafe_to_string b

let ( let* ) = Result.bind

let ensure_dirs fs path =
  let parts = String.split_on_char '/' path |> List.filter (( <> ) "") in
  let rec go prefix = function
    | [] | [ _ ] -> Ok ()
    | d :: rest ->
        let dir = prefix ^ "/" ^ d in
        let* () =
          match Simplefs.mkdir fs dir with
          | Ok _ -> Ok ()
          | Error Hostos.Errno.EEXIST -> Ok ()
          | Error e -> Error e
        in
        go dir rest
  in
  go "" parts

let pack ?(extra_blocks = 64) ?clock manifest =
  let data_blocks =
    List.fold_left
      (fun acc e -> acc + ((e.size + Dev.block_size - 1) / Dev.block_size) + 1)
      0 manifest
  in
  (* metadata headroom: bitmap + inode table + directories *)
  let inodes = max 64 (2 * List.length manifest) in
  let meta = 8 + (inodes / 16) + (data_blocks / (Dev.block_size * 8)) + 4 in
  let blocks = data_blocks + meta + extra_blocks in
  let backend = Backend.create ?clock ~blocks () in
  let* fs = Simplefs.mkfs (Backend.dev backend) ~inodes () in
  let rec add = function
    | [] -> Ok ()
    | e :: rest ->
        let* () = ensure_dirs fs e.path in
        let content =
          match e.content with
          | Some c -> c
          | None -> synthetic_content ~path:e.path e.size
        in
        let* () = Simplefs.write_file fs e.path (Bytes.of_string content) in
        add rest
  in
  let* () = add manifest in
  Simplefs.sync fs;
  Ok (backend, fs)

let strip m ~keep = List.filter (fun e -> keep e.path) m
