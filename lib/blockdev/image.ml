type entry = { path : string; size : int; content : string option }
type manifest = entry list

let file ?content path size = { path; size; content }
let total_size m = List.fold_left (fun acc e -> acc + e.size) 0 m

let synthetic_content ~path size =
  (* Deterministic, position-dependent filler so image bytes are stable
     across runs and distinguishable per file. *)
  let seed = Hashtbl.hash path in
  let b = Bytes.create size in
  (* byte i is (seed + 131·i) land 0x7f, which repeats every 128 bytes
     (131 ≡ 3 mod 128): compute one period, then double it by blits *)
  for i = 0 to min size 128 - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr ((seed + (i * 131)) land 0x7f))
  done;
  let rec double filled =
    if filled < size then begin
      Bytes.blit b 0 b filled (min filled (size - filled));
      double (2 * filled)
    end
  in
  double 128;
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
        (* write_file only reads its data, so the string needs no copy *)
        let* () =
          Simplefs.write_file fs e.path (Bytes.unsafe_of_string content)
        in
        add rest
  in
  let* () = add manifest in
  Simplefs.sync fs;
  Ok (backend, fs)

let strip m ~keep = List.filter (fun e -> keep e.path) m

(* [stats] belongs to a backend nothing else can reach, so it never
   changes after the freeze. *)
type frozen = { bytes : bytes; stats : Backend.stats }

let freeze manifest =
  let* backend, _ = pack manifest in
  Ok
    {
      bytes = Hostos.Mem.freeze (Backend.mem backend);
      stats = Backend.stats backend;
    }

(* A pack charges its clock only through its backend, one
   [Clock.device_op ~blocks:1] per block read, block write and flush,
   so replaying that many charges leaves the clock exactly where a
   fresh pack would. *)
let instance ~clock f =
  let backend = Backend.of_mem ~clock (Hostos.Mem.cow f.bytes) in
  let s = Backend.stats backend in
  s.reads <- f.stats.reads;
  s.writes <- f.stats.writes;
  s.flushes <- f.stats.flushes;
  s.trims <- f.stats.trims;
  for _ = 1 to s.reads + s.writes + s.flushes do
    Hostos.Clock.device_op clock ~blocks:1
  done;
  backend
