module Clock = Hostos.Clock
module Rng = Hostos.Rng
module Sfs = Blockdev.Simplefs
module Page_cache = Linux_guest.Page_cache

type pattern = Seq_read | Seq_write | Rand_read | Rand_write

let is_read = function Seq_read | Rand_read -> true | _ -> false
let is_seq = function Seq_read | Seq_write -> true | _ -> false

type target =
  | Native of Blockdev.Backend.t
  | Guest_raw of Virtio.Blk.Driver.t
  | Guest_fs of {
      fs : Sfs.t;
      cache : Page_cache.t;
      path : string;
      direct : bool;
    }
  | Guest_ninep of { drv : Virtio.Ninep.Driver.t; path : string }

type job = {
  pattern : pattern;
  block_size : int;
  total_bytes : int;
  span_bytes : int;
}

let job ?span pattern ~block_size ~total =
  { pattern; block_size; total_bytes = total;
    span_bytes = Option.value span ~default:total }

type result = {
  ops : int;
  bytes : int;
  elapsed_ns : float;
  throughput_mb_s : float;
  iops : float;
}

(* One offset per op: sequential wraps around the span; random is
   block-aligned uniform. *)
let offsets rng j =
  let nops = max 1 (j.total_bytes / j.block_size) in
  let span_blocks = max 1 (j.span_bytes / j.block_size) in
  List.init nops (fun i ->
      if is_seq j.pattern then i mod span_blocks * j.block_size
      else Rng.int rng span_blocks * j.block_size)

let run_native backend ~clock ~rng j =
  let dev = Blockdev.Backend.dev backend in
  let start = Clock.now_ns clock in
  let payload = Bytes.make j.block_size 'n' in
  let ops = ref 0 in
  List.iter
    (fun off ->
      (* a native syscall + the device access *)
      Clock.syscall clock;
      Clock.copy_bytes clock j.block_size;
      if is_read j.pattern then
        ignore (Blockdev.Dev.read_range dev ~off ~len:j.block_size)
      else Blockdev.Dev.write_range dev ~off payload ~len:(Bytes.length payload);
      incr ops)
    (offsets rng j);
  (!ops, Clock.now_ns clock -. start)

let run_guest_raw vmm drv ~clock ~rng j =
  let payload = Bytes.make j.block_size 'g' in
  let offs = offsets rng j in
  let ops = ref 0 in
  let start = Clock.now_ns clock in
  Hypervisor.Vmm.in_guest vmm (fun () ->
      List.iter
        (fun off ->
          let sector = off / Virtio.Blk.sector_size in
          if is_read j.pattern then
            ignore (Virtio.Blk.Driver.read drv ~sector ~len:j.block_size)
          else Virtio.Blk.Driver.write drv ~sector payload;
          incr ops)
        offs);
  (!ops, Clock.now_ns clock -. start)

let prepare_fs_file vmm fs path ~len =
  Hypervisor.Vmm.in_guest vmm (fun () ->
      ignore (Sfs.mkdir_p fs (Filename.dirname path));
      let ino =
        match Sfs.lookup fs path with
        | Ok ino -> ino
        | Error _ -> (
            match Sfs.create fs path with
            | Ok ino -> ino
            | Error e ->
                failwith ("fio: cannot create target file: " ^ Hostos.Errno.show e))
      in
      (* size the file by writing its last block *)
      let block = Bytes.make 4096 'z' in
      let rec fill off =
        if off < len then begin
          (match Sfs.write fs ino ~off block with
          | Ok _ -> ()
          | Error e -> failwith ("fio: prep write: " ^ Hostos.Errno.show e));
          fill (off + 4096)
        end
      in
      fill 0;
      ino)

let run_guest_fs vmm fs cache path direct ~clock ~rng j =
  let ino = prepare_fs_file vmm fs path ~len:j.span_bytes in
  Hypervisor.Vmm.in_guest vmm (fun () -> Page_cache.drop cache);
  let payload = Bytes.make j.block_size 'f' in
  let offs = offsets rng j in
  let ops = ref 0 in
  let start = Clock.now_ns clock in
  Hypervisor.Vmm.in_guest vmm (fun () ->
      let do_ops () =
        List.iter
          (fun off ->
            (* the guest application performs a syscall per IO *)
            Clock.syscall clock;
            if is_read j.pattern then
              ignore (Sfs.read fs ino ~off ~len:j.block_size)
            else ignore (Sfs.write fs ino ~off payload);
            incr ops)
          offs
      in
      if direct then Page_cache.bypass cache do_ops
      else begin
        do_ops ();
        (* buffered writes are not durable until written back *)
        if not (is_read j.pattern) then Page_cache.flush cache
      end);
  (!ops, Clock.now_ns clock -. start)

let prepare_ninep_file vmm drv path ~len =
  Hypervisor.Vmm.in_guest vmm (fun () ->
      ignore (Virtio.Ninep.Driver.create drv ~path);
      let block = Bytes.make 4096 'z' in
      let rec fill off =
        if off < len then begin
          ignore (Virtio.Ninep.Driver.write drv ~path ~off block);
          fill (off + 4096)
        end
      in
      fill 0)

let run_guest_ninep vmm drv path ~clock ~rng j =
  prepare_ninep_file vmm drv path ~len:j.span_bytes;
  let payload = Bytes.make j.block_size '9' in
  let offs = offsets rng j in
  let ops = ref 0 in
  let start = Clock.now_ns clock in
  Hypervisor.Vmm.in_guest vmm (fun () ->
      List.iter
        (fun off ->
          Clock.syscall clock;
          (* the guest side of 9p also passes its page cache (and never
             re-uses it in this access pattern): one insertion-priced
             touch per page *)
          for _ = 1 to max 1 (j.block_size / 4096) do
            Clock.page_cache_hit clock
          done;
          if is_read j.pattern then
            ignore (Virtio.Ninep.Driver.read drv ~path ~off ~len:j.block_size)
          else ignore (Virtio.Ninep.Driver.write drv ~path ~off payload);
          incr ops)
        offs);
  (!ops, Clock.now_ns clock -. start)

let run vmm ~clock ~rng target j =
  let need_vmm () =
    match vmm with
    | Some v -> v
    | None -> invalid_arg "Fio.run: guest target requires a VMM"
  in
  let ops, elapsed_ns =
    match target with
    | Native backend -> run_native backend ~clock ~rng j
    | Guest_raw drv -> run_guest_raw (need_vmm ()) drv ~clock ~rng j
    | Guest_fs { fs; cache; path; direct } ->
        run_guest_fs (need_vmm ()) fs cache path direct ~clock ~rng j
    | Guest_ninep { drv; path } ->
        run_guest_ninep (need_vmm ()) drv path ~clock ~rng j
  in
  let bytes = ops * j.block_size in
  {
    ops;
    bytes;
    elapsed_ns;
    throughput_mb_s =
      Float.of_int bytes /. (1024.0 *. 1024.0) /. (elapsed_ns /. 1e9);
    iops = Float.of_int ops /. (elapsed_ns /. 1e9);
  }
