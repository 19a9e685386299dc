module Mem = Hostos.Mem
module Clock = Hostos.Clock

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable flushes : int;
  mutable trims : int;
}

type t = {
  backing : Mem.t;
  blocks : int;
  clock : Clock.t option;
  stats : stats;
}

let charge t ~blocks =
  match t.clock with
  | Some c -> Clock.device_op c ~blocks
  | None -> ()

let of_mem ?clock backing =
  let len = Mem.length backing in
  if len mod Dev.block_size <> 0 then
    invalid_arg "Backend.of_mem: length not block aligned";
  {
    backing;
    blocks = len / Dev.block_size;
    clock;
    stats = { reads = 0; writes = 0; flushes = 0; trims = 0 };
  }

let create ?clock ~blocks () = of_mem ?clock (Mem.create (blocks * Dev.block_size))

let stats t = t.stats
let mem t = t.backing

let dev t =
  let bs = Dev.block_size in
  let in_range what i =
    if i < 0 || i >= t.blocks then
      invalid_arg (Printf.sprintf "Backend.%s %d out of %d" what i t.blocks)
  in
  let read_into i dst off =
    in_range "read_block" i;
    t.stats.reads <- t.stats.reads + 1;
    charge t ~blocks:1;
    Mem.read_into t.backing (i * bs) dst off bs
  in
  let write_from i src off =
    in_range "write_block" i;
    t.stats.writes <- t.stats.writes + 1;
    charge t ~blocks:1;
    Mem.write_from t.backing (i * bs) src off bs
  in
  {
    Dev.block_size = bs;
    blocks = t.blocks;
    read_block =
      (fun i ->
        let b = Bytes.create bs in
        read_into i b 0;
        b);
    write_block =
      (fun i b ->
        in_range "write_block" i;
        if Bytes.length b <> bs then invalid_arg "Backend.write_block: bad size";
        write_from i b 0);
    read_into;
    write_from;
    flush =
      (fun () ->
        t.stats.flushes <- t.stats.flushes + 1;
        charge t ~blocks:1);
    trim =
      (fun first count ->
        t.stats.trims <- t.stats.trims + 1;
        let first = max 0 first in
        let count = min count (t.blocks - first) in
        if count > 0 then Mem.fill t.backing (first * bs) (count * bs) '\000');
  }

let fd_ops t =
  let d = dev t in
  let size = Dev.size_bytes d in
  {
    Hostos.Fd.default_ops with
    pread =
      (fun ~off ~len ->
        if off < 0 || off >= size then Ok Bytes.empty
        else Ok (Dev.read_range d ~off ~len:(min len (size - off))));
    pwrite =
      (fun ~off b ->
        if off < 0 || off + Bytes.length b > size then Error Hostos.Errno.ENOSPC
        else begin
          Dev.write_range d ~off b ~len:(Bytes.length b);
          Ok (Bytes.length b)
        end);
  }
