module Errno = Hostos.Errno

type ino = int
type kind = File | Dir | Symlink

type stat = {
  st_ino : ino;
  st_kind : kind;
  st_size : int;
  st_nlink : int;
  st_mode : int;
  st_uid : int;
  st_gid : int;
  st_mtime : int;
}

type statfs = {
  f_blocks : int;
  f_bfree : int;
  f_inodes : int;
  f_ifree : int;
}

let bs = Dev.block_size
let magic = 0x53465331 (* "SFS1" *)
let inode_size = 256
let inodes_per_block = bs / inode_size
let ptrs_per_block = bs / 8
let ndirect = 12
let max_name = 255
let max_file_size = (ndirect + ptrs_per_block + (ptrs_per_block * ptrs_per_block)) * bs

type t = {
  dev : Dev.t;
  total_blocks : int;
  inode_count : int;
  bitmap_start : int;
  bitmap_blocks : int;
  itable_start : int;
  itable_blocks : int;
  data_start : int;
  mutable free_blocks : int;
  mutable free_inodes : int;
  mutable alloc_hint : int;
  mutable now : int;  (** monotonically bumped pseudo-mtime *)
  mutable spare : bytes list;  (** free block buffers, see {!with_block} *)
}

(* --- block buffers --- *)

(* Every read-modify-write of a block runs in a buffer taken from the
   file system's free list and given back when done. One fixed buffer
   would not do: [map_block] holds an index block across
   [alloc_block]'s device ops, and a device op may park its guest task
   while another task runs on the same file system ([Kvm.Vm]'s
   [Yield_until]), so two operations can each be holding a block. *)
let with_buffer t f =
  let b =
    match t.spare with
    | b :: rest ->
        t.spare <- rest;
        b
    | [] -> Bytes.create bs
  in
  let r = f b in
  t.spare <- b :: t.spare;
  r

(* [f] of a buffer holding block [blk]. *)
let with_block t blk f =
  with_buffer t (fun b ->
      t.dev.Dev.read_into blk b 0;
      f b)

let with_zeroed t f =
  with_buffer t (fun b ->
      Bytes.fill b 0 bs '\000';
      f b)

(* --- in-memory inode record and its on-disk codec --- *)

type inode = {
  mutable i_kind : int;  (* 0=free 1=file 2=dir 3=symlink *)
  mutable i_mode : int;
  mutable i_nlink : int;
  mutable i_uid : int;
  mutable i_gid : int;
  mutable i_size : int;
  mutable i_mtime : int;
  direct : int array;  (* ndirect entries *)
  mutable indirect : int;
  mutable dindirect : int;
}

let fresh_inode ~kind ~mode =
  {
    i_kind = kind;
    i_mode = mode;
    i_nlink = 1;
    i_uid = 0;
    i_gid = 0;
    i_size = 0;
    i_mtime = 0;
    direct = Array.make ndirect 0;
    indirect = 0;
    dindirect = 0;
  }

let inode_pos t ino =
  let blk = t.itable_start + (ino / inodes_per_block) in
  let off = ino mod inodes_per_block * inode_size in
  (blk, off)

let read_inode t ino =
  let blk, off = inode_pos t ino in
  with_block t blk (fun b ->
      let g32 p = Int32.to_int (Bytes.get_int32_le b (off + p)) land 0xffffffff in
      let g64 p = Int64.to_int (Bytes.get_int64_le b (off + p)) in
      {
        i_kind = g32 0;
        i_mode = g32 4;
        i_nlink = g32 8;
        i_uid = g32 12;
        i_gid = g32 16;
        i_size = g64 24;
        i_mtime = g64 32;
        direct = Array.init ndirect (fun i -> g64 (40 + (8 * i)));
        indirect = g64 (40 + (8 * ndirect));
        dindirect = g64 (48 + (8 * ndirect));
      })

let write_inode t ino node =
  let blk, off = inode_pos t ino in
  with_block t blk (fun b ->
      let p32 p v = Bytes.set_int32_le b (off + p) (Int32.of_int v) in
      let p64 p v = Bytes.set_int64_le b (off + p) (Int64.of_int v) in
      p32 0 node.i_kind;
      p32 4 node.i_mode;
      p32 8 node.i_nlink;
      p32 12 node.i_uid;
      p32 16 node.i_gid;
      p64 24 node.i_size;
      p64 32 node.i_mtime;
      Array.iteri (fun i v -> p64 (40 + (8 * i)) v) node.direct;
      p64 (40 + (8 * ndirect)) node.indirect;
      p64 (48 + (8 * ndirect)) node.dindirect;
      t.dev.Dev.write_from blk b 0)

(* --- block bitmap --- *)

let bit_location t blk =
  let bits_per_block = bs * 8 in
  (t.bitmap_start + (blk / bits_per_block), blk mod bits_per_block)

let block_used t blk =
  let bblk, bit = bit_location t blk in
  with_block t bblk (fun b ->
      Char.code (Bytes.get b (bit / 8)) land (1 lsl (bit mod 8)) <> 0)

let set_block t blk used =
  let bblk, bit = bit_location t blk in
  with_block t bblk (fun b ->
      let cur = Char.code (Bytes.get b (bit / 8)) in
      let v =
        if used then cur lor (1 lsl (bit mod 8))
        else cur land lnot (1 lsl (bit mod 8))
      in
      Bytes.set b (bit / 8) (Char.chr v);
      t.dev.Dev.write_from bblk b 0)

let alloc_block t =
  if t.free_blocks = 0 then Error Errno.ENOSPC
  else begin
    let total = t.total_blocks in
    let rec probe tried blk =
      if tried >= total then Error Errno.ENOSPC
      else
        let blk = if blk >= total then t.data_start else blk in
        if (not (block_used t blk)) && blk >= t.data_start then begin
          set_block t blk true;
          t.free_blocks <- t.free_blocks - 1;
          t.alloc_hint <- blk + 1;
          with_zeroed t (fun z -> t.dev.Dev.write_from blk z 0);
          Ok blk
        end
        else probe (tried + 1) (blk + 1)
    in
    probe 0 (max t.alloc_hint t.data_start)
  end

let free_block t blk =
  if blk >= t.data_start then begin
    set_block t blk false;
    t.free_blocks <- t.free_blocks + 1
  end

(* --- file block mapping --- *)

(* Returns the physical block for logical block [n] of [node], allocating
   (and persisting index blocks) when [alloc]. None means a hole. *)
let rec map_block t node ~ino ~n ~alloc =
  if n < ndirect then begin
    if node.direct.(n) <> 0 then Ok (Some node.direct.(n))
    else if not alloc then Ok None
    else
      match alloc_block t with
      | Error e -> Error e
      | Ok blk ->
          node.direct.(n) <- blk;
          write_inode t ino node;
          Ok (Some blk)
  end
  else if n < ndirect + ptrs_per_block then begin
    let slot = n - ndirect in
    if node.indirect = 0 then begin
      if not alloc then Ok None
      else
        match alloc_block t with
        | Error e -> Error e
        | Ok blk ->
            node.indirect <- blk;
            write_inode t ino node;
            map_block t node ~ino ~n ~alloc
    end
    else
      with_block t node.indirect (fun idx ->
          let cur = Int64.to_int (Bytes.get_int64_le idx (8 * slot)) in
          if cur <> 0 then Ok (Some cur)
          else if not alloc then Ok None
          else
            match alloc_block t with
            | Error e -> Error e
            | Ok blk ->
                Bytes.set_int64_le idx (8 * slot) (Int64.of_int blk);
                t.dev.Dev.write_from node.indirect idx 0;
                Ok (Some blk))
  end
  else begin
    let n' = n - ndirect - ptrs_per_block in
    if n' >= ptrs_per_block * ptrs_per_block then Error Errno.ENOSPC
    else begin
      let outer = n' / ptrs_per_block and inner = n' mod ptrs_per_block in
      if node.dindirect = 0 then begin
        if not alloc then Ok None
        else
          match alloc_block t with
          | Error e -> Error e
          | Ok blk ->
              node.dindirect <- blk;
              write_inode t ino node;
              map_block t node ~ino ~n ~alloc
      end
      else
        with_block t node.dindirect (fun oidx ->
            let mid = Int64.to_int (Bytes.get_int64_le oidx (8 * outer)) in
            let with_mid mid =
              with_block t mid (fun iidx ->
                  let cur = Int64.to_int (Bytes.get_int64_le iidx (8 * inner)) in
                  if cur <> 0 then Ok (Some cur)
                  else if not alloc then Ok None
                  else
                    match alloc_block t with
                    | Error e -> Error e
                    | Ok blk ->
                        Bytes.set_int64_le iidx (8 * inner) (Int64.of_int blk);
                        t.dev.Dev.write_from mid iidx 0;
                        Ok (Some blk))
            in
            if mid <> 0 then with_mid mid
            else if not alloc then Ok None
            else
              match alloc_block t with
              | Error e -> Error e
              | Ok blk ->
                  Bytes.set_int64_le oidx (8 * outer) (Int64.of_int blk);
                  t.dev.Dev.write_from node.dindirect oidx 0;
                  with_mid blk)
    end
  end

let iter_file_blocks t node ~f =
  (* Visit every allocated (logical, physical) data block plus the index
     blocks, for freeing. *)
  for i = 0 to ndirect - 1 do
    if node.direct.(i) <> 0 then f node.direct.(i)
  done;
  let each_ptr idx g =
    for i = 0 to ptrs_per_block - 1 do
      let p = Int64.to_int (Bytes.get_int64_le idx (8 * i)) in
      if p <> 0 then g p
    done
  in
  if node.indirect <> 0 then begin
    with_block t node.indirect (fun idx -> each_ptr idx f);
    f node.indirect
  end;
  if node.dindirect <> 0 then begin
    with_block t node.dindirect (fun oidx ->
        each_ptr oidx (fun mid ->
            with_block t mid (fun iidx -> each_ptr iidx f);
            f mid));
    f node.dindirect
  end

(* --- inode allocation --- *)

let alloc_ino t ~kind ~mode =
  if t.free_inodes = 0 then Error Errno.ENOSPC
  else begin
    let rec probe ino =
      if ino >= t.inode_count then Error Errno.ENOSPC
      else
        let node = read_inode t ino in
        if node.i_kind = 0 then begin
          let fresh = fresh_inode ~kind ~mode in
          t.now <- t.now + 1;
          fresh.i_mtime <- t.now;
          write_inode t ino fresh;
          t.free_inodes <- t.free_inodes - 1;
          Ok (ino, fresh)
        end
        else probe (ino + 1)
    in
    probe 1 (* inode 0 is reserved as "null" *)
  end

let free_ino t ino =
  let node = read_inode t ino in
  iter_file_blocks t node ~f:(fun blk -> free_block t blk);
  write_inode t ino (fresh_inode ~kind:0 ~mode:0);
  t.free_inodes <- t.free_inodes + 1

(* --- raw file data IO on an inode --- *)

let read_node t node ~off ~len =
  let size = node.i_size in
  if off >= size || len = 0 then Bytes.empty
  else begin
    let len = min len (size - off) in
    let out = Bytes.make len '\000' in
    let rec go off dst remaining =
      if remaining > 0 then begin
        let n = off / bs and boff = off mod bs in
        let chunk = min remaining (bs - boff) in
        (match map_block t node ~ino:(-1) ~n ~alloc:false with
        | Ok (Some blk) ->
            if chunk = bs then t.dev.Dev.read_into blk out dst
            else with_block t blk (fun cur -> Bytes.blit cur boff out dst chunk)
        | Ok None | Error _ -> () (* hole: zeros *));
        go (off + chunk) (dst + chunk) (remaining - chunk)
      end
    in
    go off 0 len;
    out
  end

let write_node t node ~ino ~off data =
  let len = Bytes.length data in
  if off + len > max_file_size then Error Errno.ENOSPC
  else begin
    let rec go off src remaining =
      if remaining = 0 then Ok ()
      else begin
        let n = off / bs and boff = off mod bs in
        let chunk = min remaining (bs - boff) in
        match map_block t node ~ino ~n ~alloc:true with
        | Error e -> Error e
        | Ok None -> Error Errno.EIO
        | Ok (Some blk) ->
            if chunk = bs then t.dev.Dev.write_from blk data src
            else
              with_block t blk (fun cur ->
                  Bytes.blit data src cur boff chunk;
                  t.dev.Dev.write_from blk cur 0);
            go (off + chunk) (src + chunk) (remaining - chunk)
      end
    in
    match go off 0 len with
    | Error e -> Error e
    | Ok () ->
        if off + len > node.i_size then node.i_size <- off + len;
        t.now <- t.now + 1;
        node.i_mtime <- t.now;
        write_inode t ino node;
        Ok len
  end

(* --- directories --- *)

(* Directory content: repeated [u32 ino][u8 namelen][name]. *)
let dir_entries t node =
  let data = read_node t node ~off:0 ~len:node.i_size in
  let rec go pos acc =
    if pos + 5 > Bytes.length data then List.rev acc
    else
      let ino = Int32.to_int (Bytes.get_int32_le data pos) land 0xffffffff in
      let nlen = Bytes.get_uint8 data (pos + 4) in
      if pos + 5 + nlen > Bytes.length data then List.rev acc
      else
        let name = Bytes.sub_string data (pos + 5) nlen in
        go (pos + 5 + nlen) ((name, ino) :: acc)
  in
  go 0 []

let write_dir_entries t node ~ino entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, child) ->
      Buffer.add_int32_le buf (Int32.of_int child);
      Buffer.add_uint8 buf (String.length name);
      Buffer.add_string buf name)
    entries;
  let data = Buffer.to_bytes buf in
  (* shrink then rewrite: free now-unused tail blocks *)
  node.i_size <- 0;
  match write_node t node ~ino ~off:0 data with
  | Ok _ ->
      node.i_size <- Bytes.length data;
      write_inode t ino node;
      Ok ()
  | Error e -> Error e

(* --- path resolution --- *)

let split_path path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

let ( let* ) = Result.bind

let root _t = 1
let device t = t.dev

let lookup_in t dir_ino name =
  let node = read_inode t dir_ino in
  if node.i_kind <> 2 then Error Errno.ENOTDIR
  else
    match List.assoc_opt name (dir_entries t node) with
    | Some ino -> Ok ino
    | None -> Error Errno.ENOENT

let lookup t path =
  let rec walk ino = function
    | [] -> Ok ino
    | c :: rest ->
        let* next = lookup_in t ino c in
        walk next rest
  in
  walk (root t) (split_path path)

(* Resolve the parent directory of [path]; returns (parent_ino, name). *)
let resolve_parent t path =
  match List.rev (split_path path) with
  | [] -> Error Errno.EINVAL
  | name :: rev_dir ->
      if String.length name > max_name then Error Errno.EINVAL
      else
        let rec walk ino = function
          | [] -> Ok ino
          | c :: rest ->
              let* next = lookup_in t ino c in
              walk next rest
        in
        let* parent = walk (root t) (List.rev rev_dir) in
        Ok (parent, name)

let add_entry t parent name child =
  let node = read_inode t parent in
  if node.i_kind <> 2 then Error Errno.ENOTDIR
  else
    let entries = dir_entries t node in
    if List.mem_assoc name entries then Error Errno.EEXIST
    else write_dir_entries t node ~ino:parent (entries @ [ (name, child) ])

let remove_entry t parent name =
  let node = read_inode t parent in
  if node.i_kind <> 2 then Error Errno.ENOTDIR
  else
    let entries = dir_entries t node in
    if not (List.mem_assoc name entries) then Error Errno.ENOENT
    else
      write_dir_entries t node ~ino:parent (List.remove_assoc name entries)

(* --- formatting / mounting --- *)

let layout ~total_blocks ~inodes =
  let itable_blocks = (inodes + inodes_per_block - 1) / inodes_per_block in
  let bitmap_blocks = (total_blocks + (bs * 8) - 1) / (bs * 8) in
  let bitmap_start = 1 in
  let itable_start = bitmap_start + bitmap_blocks in
  let data_start = itable_start + itable_blocks in
  (bitmap_start, bitmap_blocks, itable_start, itable_blocks, data_start)

let write_super t =
  with_zeroed t (fun b ->
      let p64 off v = Bytes.set_int64_le b off (Int64.of_int v) in
      Bytes.set_int32_le b 0 (Int32.of_int magic);
      p64 8 t.total_blocks;
      p64 16 t.inode_count;
      p64 24 t.bitmap_start;
      p64 32 t.bitmap_blocks;
      p64 40 t.itable_start;
      p64 48 t.itable_blocks;
      p64 56 t.data_start;
      p64 64 t.free_blocks;
      p64 72 t.free_inodes;
      p64 80 t.now;
      t.dev.Dev.write_from 0 b 0)

let mkfs dev ?(inodes = 1024) () =
  let total_blocks = dev.Dev.blocks in
  let bitmap_start, bitmap_blocks, itable_start, itable_blocks, data_start =
    layout ~total_blocks ~inodes
  in
  if data_start + 8 > total_blocks then Error Errno.EINVAL
  else begin
    let t =
      {
        dev;
        total_blocks;
        inode_count = inodes;
        bitmap_start;
        bitmap_blocks;
        itable_start;
        itable_blocks;
        data_start;
        free_blocks = total_blocks - data_start;
        free_inodes = inodes - 2 (* null + root *);
        alloc_hint = data_start;
        now = 0;
        spare = [];
      }
    in
    (* zero metadata *)
    with_zeroed t (fun z ->
        for blk = 0 to data_start - 1 do
          dev.Dev.write_from blk z 0
        done);
    (* mark metadata blocks used *)
    for blk = 0 to data_start - 1 do
      set_block t blk true
    done;
    (* root directory: inode 1 *)
    let rootnode = fresh_inode ~kind:2 ~mode:0o755 in
    rootnode.i_nlink <- 2;
    write_inode t 1 rootnode;
    write_super t;
    Ok t
  end

let mount dev =
  let b = Bytes.create bs in
  dev.Dev.read_into 0 b 0;
  if Int32.to_int (Bytes.get_int32_le b 0) <> magic then Error Errno.EINVAL
  else begin
    let g64 off = Int64.to_int (Bytes.get_int64_le b off) in
    Ok
      {
        dev;
        total_blocks = g64 8;
        inode_count = g64 16;
        bitmap_start = g64 24;
        bitmap_blocks = g64 32;
        itable_start = g64 40;
        itable_blocks = g64 48;
        data_start = g64 56;
        free_blocks = g64 64;
        free_inodes = g64 72;
        alloc_hint = g64 56;
        now = g64 80;
        spare = [ b ];
      }
  end

let sync t =
  write_super t;
  t.dev.Dev.flush ()

(* --- public namespace ops --- *)

let kind_of_int = function
  | 1 -> File
  | 2 -> Dir
  | 3 -> Symlink
  | k -> invalid_arg (Printf.sprintf "Simplefs: bad inode kind %d" k)

let stat_of_node ino (n : inode) =
  {
    st_ino = ino;
    st_kind = kind_of_int n.i_kind;
    st_size = n.i_size;
    st_nlink = n.i_nlink;
    st_mode = n.i_mode;
    st_uid = n.i_uid;
    st_gid = n.i_gid;
    st_mtime = n.i_mtime;
  }

let stat_ino t ino =
  let n = read_inode t ino in
  if n.i_kind = 0 then Error Errno.ENOENT else Ok (stat_of_node ino n)

let stat t path =
  let* ino = lookup t path in
  stat_ino t ino

let exists t path = Result.is_ok (lookup t path)

let make_node t path ~kind ~mode =
  let* parent, name = resolve_parent t path in
  let pnode = read_inode t parent in
  if pnode.i_kind <> 2 then Error Errno.ENOTDIR
  else if List.mem_assoc name (dir_entries t pnode) then Error Errno.EEXIST
  else
    let* ino, node = alloc_ino t ~kind ~mode in
    let* () = add_entry t parent name ino in
    if kind = 2 then begin
      node.i_nlink <- 2;
      write_inode t ino node;
      let p = read_inode t parent in
      p.i_nlink <- p.i_nlink + 1;
      write_inode t parent p
    end;
    Ok ino

let create t ?(mode = 0o644) path = make_node t path ~kind:1 ~mode
let mkdir t ?(mode = 0o755) path = make_node t path ~kind:2 ~mode

let mkdir_p t path =
  let parts = split_path path in
  let rec go prefix = function
    | [] -> Ok ()
    | d :: rest -> (
        let dir = prefix ^ "/" ^ d in
        match mkdir t dir with
        | Ok _ | Error Errno.EEXIST -> go dir rest
        | Error e -> Error e)
  in
  go "" parts

let symlink t ~target path =
  let* ino = make_node t path ~kind:3 ~mode:0o777 in
  let node = read_inode t ino in
  let* _ = write_node t node ~ino ~off:0 (Bytes.of_string target) in
  Ok ino

let readlink t path =
  let* ino = lookup t path in
  let node = read_inode t ino in
  if node.i_kind <> 3 then Error Errno.EINVAL
  else Ok (Bytes.to_string (read_node t node ~off:0 ~len:node.i_size))

let hardlink t ~existing path =
  let* src = lookup t existing in
  let snode = read_inode t src in
  if snode.i_kind = 2 then Error Errno.EISDIR
  else
    let* parent, name = resolve_parent t path in
    let* () = add_entry t parent name src in
    snode.i_nlink <- snode.i_nlink + 1;
    write_inode t src snode;
    Ok ()

let unlink t path =
  let* parent, name = resolve_parent t path in
  let* ino = lookup_in t parent name in
  let node = read_inode t ino in
  if node.i_kind = 2 then Error Errno.EISDIR
  else
    let* () = remove_entry t parent name in
    node.i_nlink <- node.i_nlink - 1;
    if node.i_nlink <= 0 then free_ino t ino else write_inode t ino node;
    Ok ()

let rmdir t path =
  let* parent, name = resolve_parent t path in
  let* ino = lookup_in t parent name in
  let node = read_inode t ino in
  if node.i_kind <> 2 then Error Errno.ENOTDIR
  else if dir_entries t node <> [] then Error Errno.ENOTEMPTY
  else
    let* () = remove_entry t parent name in
    free_ino t ino;
    let p = read_inode t parent in
    p.i_nlink <- p.i_nlink - 1;
    write_inode t parent p;
    Ok ()

let rename t ~src ~dst =
  let* sparent, sname = resolve_parent t src in
  let* ino = lookup_in t sparent sname in
  let* dparent, dname = resolve_parent t dst in
  match lookup_in t dparent dname with
  | Ok existing when existing = ino ->
      (* POSIX: old and new are links to the same file — do nothing *)
      Ok ()
  | existing ->
      (* POSIX: replace an existing non-directory target *)
      let* () =
        match existing with
        | Error Errno.ENOENT -> Ok ()
        | Error e -> Error e
        | Ok existing ->
            let enode = read_inode t existing in
            if enode.i_kind = 2 then
              if dir_entries t enode = [] then rmdir t dst
              else Error Errno.ENOTEMPTY
            else unlink t dst
      in
      let* () = remove_entry t sparent sname in
      add_entry t dparent dname ino

let readdir t path =
  let* ino = lookup t path in
  let node = read_inode t ino in
  if node.i_kind <> 2 then Error Errno.ENOTDIR else Ok (dir_entries t node)

(* --- data ops --- *)

let read t ino ~off ~len =
  let node = read_inode t ino in
  if node.i_kind = 0 then Error Errno.ENOENT
  else if node.i_kind = 2 then Error Errno.EISDIR
  else Ok (read_node t node ~off ~len)

let write t ino ~off data =
  let node = read_inode t ino in
  if node.i_kind = 0 then Error Errno.ENOENT
  else if node.i_kind = 2 then Error Errno.EISDIR
  else write_node t node ~ino ~off data

(* Free the data block mapped at logical index [n] and clear its pointer
   (direct slot or index-block entry), so a later regrow cannot alias a
   block that has been handed to another file. *)
let clear_mapping t node ~n =
  if n < ndirect then begin
    if node.direct.(n) <> 0 then begin
      free_block t node.direct.(n);
      node.direct.(n) <- 0
    end
  end
  else if n < ndirect + ptrs_per_block then begin
    if node.indirect <> 0 then begin
      let slot = n - ndirect in
      with_block t node.indirect (fun idx ->
          let cur = Int64.to_int (Bytes.get_int64_le idx (8 * slot)) in
          if cur <> 0 then begin
            free_block t cur;
            Bytes.set_int64_le idx (8 * slot) 0L;
            t.dev.Dev.write_from node.indirect idx 0
          end)
    end
  end
  else begin
    let n' = n - ndirect - ptrs_per_block in
    if node.dindirect <> 0 && n' < ptrs_per_block * ptrs_per_block then begin
      let outer = n' / ptrs_per_block and inner = n' mod ptrs_per_block in
      let mid =
        with_block t node.dindirect (fun oidx ->
            Int64.to_int (Bytes.get_int64_le oidx (8 * outer)))
      in
      if mid <> 0 then
        with_block t mid (fun iidx ->
            let cur = Int64.to_int (Bytes.get_int64_le iidx (8 * inner)) in
            if cur <> 0 then begin
              free_block t cur;
              Bytes.set_int64_le iidx (8 * inner) 0L;
              t.dev.Dev.write_from mid iidx 0
            end)
    end
  end

let truncate t path new_size =
  let* ino = lookup t path in
  let node = read_inode t ino in
  if node.i_kind = 2 then Error Errno.EISDIR
  else begin
    (if new_size < node.i_size then begin
       let first_kept = (new_size + bs - 1) / bs in
       let last = (node.i_size + bs - 1) / bs in
       for n = first_kept to last - 1 do
         clear_mapping t node ~n
       done;
       (* POSIX: the tail of a partially-kept last block must read as
          zeros if the file is later extended *)
       let tail = new_size mod bs in
       if tail <> 0 then
         match map_block t node ~ino ~n:(new_size / bs) ~alloc:false with
         | Ok (Some blk) ->
             with_block t blk (fun data ->
                 Bytes.fill data tail (bs - tail) '\000';
                 t.dev.Dev.write_from blk data 0)
         | Ok None | Error _ -> ()
     end);
    node.i_size <- new_size;
    t.now <- t.now + 1;
    node.i_mtime <- t.now;
    write_inode t ino node;
    Ok ()
  end

let fsync t _ino = t.dev.Dev.flush ()

let read_file t path =
  let* ino = lookup t path in
  let node = read_inode t ino in
  if node.i_kind = 2 then Error Errno.EISDIR
  else Ok (read_node t node ~off:0 ~len:node.i_size)

let write_file t path data =
  let* ino =
    match lookup t path with
    | Ok ino -> Ok ino
    | Error Errno.ENOENT -> create t path
    | Error e -> Error e
  in
  let* () = truncate t path 0 in
  let* _ = write t ino ~off:0 data in
  Ok ()

let with_node t path f =
  let* ino = lookup t path in
  let node = read_inode t ino in
  f ino node

let chmod t path mode =
  with_node t path (fun ino node ->
      node.i_mode <- mode;
      write_inode t ino node;
      Ok ())

let chown t path ~uid ~gid =
  with_node t path (fun ino node ->
      node.i_uid <- uid;
      node.i_gid <- gid;
      write_inode t ino node;
      Ok ())

let set_mtime t path mtime =
  with_node t path (fun ino node ->
      node.i_mtime <- mtime;
      write_inode t ino node;
      Ok ())

let statfs t =
  {
    f_blocks = t.total_blocks;
    f_bfree = t.free_blocks;
    f_inodes = t.inode_count;
    f_ifree = t.free_inodes;
  }

let quota_report _t = Error Errno.ENOSYS
