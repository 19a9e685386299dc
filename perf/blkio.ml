(* blkio: closed loop on one guest booted and attached during set-up.
   Each unit is one I/O batch the benchmark issues and times request by
   request: 256 KiB sequential writes then verifying reads on raw
   vmsh-blk, 4 KiB random requests (70% reads), a buffered SimpleFS file
   write + flush and a cold read-back through the guest page cache over
   vmsh-blk, and the raw jobs at a quarter of the volume on qemu-blk in
   the same guest as a control. The seed picks the kernel, the host
   seed, the data patterns and every offset. The run ends with detach,
   the rollback oracle and an fd-leak check. *)

open Rig
module Drv = Virtio.Blk.Driver
module Page_cache = Linux_guest.Page_cache
module Guest = Linux_guest.Guest

let kib = 1024
let req = 256 * kib
let block = Blockdev.Dev.block_size
let spb = Virtio.Blk.sectors_per_block
let raw_blocks = 2048 (* 8 MiB of raw vmsh-blk space: 8 sequential slots *)
let fs_blocks = 1024
let qemu_blocks = 1024
let patterns = 4
let rig_batches = 128

type sizes = { seq : int; rand : int; qemu_rand : int; file : int }

type rig = {
  host : H.Host.t;
  vmm : Vmm.t;
  session : Vmsh.Attach.session;
  before : Vmsh.Snapshot.t;
  fds_before : int;
  vdrv : Drv.t;
  qdrv : Drv.t;
  raw_first : int;  (** first raw block on vmsh-blk *)
  cache : Page_cache.t;
  fs : Sfs.t;
}

let make (ctx : Run.ctx) =
  let sz =
    if ctx.Run.quick then { seq = 512 * kib; rand = 16; qemu_rand = 4; file = 64 * kib }
    else { seq = 1024 * kib; rand = 64; qemu_rand = 16; file = 256 * kib }
  in
  let probe = ctx.Run.probe and acc = ctx.Run.acc in
  let rng0 = H.Rng.create ~seed:ctx.Run.seed in
  let kernels = Array.of_list KV.all_lts in
  let version = kernels.(H.Rng.int rng0 (Array.length kernels)) in
  let host_seed = H.Rng.int rng0 1_000_000_000 in
  (* seeded patterns, [seq] bytes each *)
  let data =
    Array.init patterns (fun _ ->
        Bytes.init sz.seq (fun _ -> Char.chr (H.Rng.int rng0 256)))
  in
  let state = ref None and host_trace = ref None in
  let rig () = match !state with Some r -> r | None -> assert false in
  let timed clock key f =
    let t0 = Clock.now_ns clock in
    let v = f () in
    Acc.add acc key (Clock.now_ns clock -. t0);
    v
  in
  let batch i =
    let r = rig () in
    let clock = r.host.H.Host.clock in
    let rng = H.Rng.create ~seed:((ctx.Run.seed * 7_919) + i) in
    let pattern = data.(H.Rng.int rng patterns) in
    let slot = H.Rng.int rng (raw_blocks * block / sz.seq) in
    let seq_sector k = ((r.raw_first * block) + (slot * sz.seq) + (k * req)) / 512 in
    let reqs = sz.seq / req in
    let in_guest name f = Probe.call probe ~clock name (fun () -> Vmm.in_guest r.vmm f) in
    let mx = registry r.host in
    let exits () = List.map (fun k -> counter mx ("stage.exit." ^ k)) Catalogue.exit_kinds in
    let c0 = Clock.snapshot clock and e0 = exits () and w0 = Unix.gettimeofday () in
    let chunk k = Bytes.sub pattern (k * req) req in
    in_guest "seq-write" (fun () ->
        for k = 0 to reqs - 1 do
          timed clock "vmsh_seq_write_ns" (fun () ->
              timed clock "vmsh_write_ns" (fun () ->
                  Drv.write r.vdrv ~sector:(seq_sector k) (chunk k)))
        done);
    let verified =
      in_guest "seq-read" (fun () ->
          List.for_all Fun.id
            (List.init reqs (fun k ->
                 let got =
                   timed clock "vmsh_seq_read_ns" (fun () ->
                       timed clock "vmsh_read_ns" (fun () ->
                           Drv.read r.vdrv ~sector:(seq_sector k) ~len:req))
                 in
                 Digest.bytes got = Digest.bytes (chunk k))))
    in
    check verified "batch %d: vmsh-blk read back a different checksum than written" i;
    in_guest "random" (fun () ->
        for _ = 1 to sz.rand do
          let sector = (r.raw_first + H.Rng.int rng raw_blocks) * spb in
          if H.Rng.int rng 10 < 7 then
            ignore
              (timed clock "vmsh_rand_ns" (fun () ->
                   timed clock "vmsh_read_ns" (fun () -> Drv.read r.vdrv ~sector ~len:block)))
          else
            let off = H.Rng.int rng (sz.seq / block) * block in
            timed clock "vmsh_rand_ns" (fun () ->
                timed clock "vmsh_write_ns" (fun () ->
                    Drv.write r.vdrv ~sector (Bytes.sub pattern off block)))
        done);
    let raw_wall = Unix.gettimeofday () -. w0 in
    let d = delta c0 (Clock.snapshot clock) in
    let mib = float_of_int ((2 * sz.seq) + (sz.rand * block)) /. 1048576. in
    Acc.add acc "raw_mib" mib;
    Acc.add acc "raw_requests" (float_of_int ((2 * reqs) + sz.rand));
    Acc.add acc "raw_wall_s" raw_wall;
    List.iter (fun k -> Acc.add acc ("raw:" ^ k) (float_of_int (List.assoc k d)))
      [ "bytes_copied_remote"; "device_ops" ];
    List.iter2
      (fun k (a, b) -> Acc.add acc ("exit:" ^ k) (float_of_int (b - a)))
      Catalogue.exit_kinds (List.combine e0 (exits ()));
    (* the control: same raw jobs at a quarter of the volume on qemu-blk *)
    let q_sector = (rootfs_blocks * spb) + (slot mod 4 * req / 512) in
    let q_ok =
      in_guest "qemu" (fun () ->
          Drv.write r.qdrv ~sector:q_sector (chunk 0);
          let got =
            timed clock "qemu_read_ns" (fun () -> Drv.read r.qdrv ~sector:q_sector ~len:req)
          in
          for _ = 1 to sz.qemu_rand do
            let sector = (rootfs_blocks + H.Rng.int rng qemu_blocks) * spb in
            if H.Rng.int rng 10 < 7 then ignore (Drv.read r.qdrv ~sector ~len:block)
            else Drv.write r.qdrv ~sector (Bytes.sub pattern 0 block)
          done;
          Bytes.equal got (chunk 0))
    in
    check q_ok "batch %d: qemu-blk read back different bytes than written" i;
    (* buffered file I/O through the guest page cache *)
    let path = Printf.sprintf "/f%d" (i mod 4) in
    let content = Bytes.sub pattern 0 sz.file in
    let stats = Page_cache.stats r.cache in
    in_guest "fs-write" (fun () ->
        timed clock "fs_write_ns" (fun () ->
            (match Sfs.write_file r.fs path content with
            | Ok () -> ()
            | Error e -> raise (Check_failed ("fs write: " ^ H.Errno.show e)));
            Page_cache.flush r.cache));
    let hits0 = stats.Page_cache.hits and misses0 = stats.Page_cache.misses in
    let back =
      in_guest "fs-read" (fun () ->
          Page_cache.drop r.cache;
          Sfs.read_file r.fs path)
    in
    Acc.add acc "pc_hits" (float_of_int (stats.Page_cache.hits - hits0));
    Acc.add acc "pc_misses" (float_of_int (stats.Page_cache.misses - misses0));
    check
      (match back with Ok b -> Bytes.equal b content | Error _ -> false)
      "batch %d: SimpleFS read back different bytes than written" i;
    { Run.ops = 1; failed = 0 }
  in
  (* a fresh machine: boot, snapshot, attach and the scratch SimpleFS *)
  let open_rig r =
    let h = H.Host.create ~seed:(host_seed + (r * 104_729)) () in
    let clock = h.H.Host.clock in
    let image = tools_image ~extra_blocks:(raw_blocks + fs_blocks) clock in
    let disk = boot_disk h ~hostname:"perf-blkio" ~blocks:(rootfs_blocks + qemu_blocks) in
    let vmm = Vmm.create h ~profile:Profile.qemu ~disk ~ram_mb:32 () in
    let g = Vmm.boot vmm ~version in
    let before = Vmsh.Snapshot.capture (Vmm.kvm_vm vmm) in
    let fds_before = open_fds h in
    let session =
      match attach probe (Acc.create ()) h vmm ~image ~config:(Vmsh.Attach.Config.make ()) with
      | Ok s -> s
      | Error e -> raise (Check_failed ("blkio attach: " ^ Vmsh.Vmsh_error.to_string e))
    in
    let out = Vmsh.Attach.console_roundtrip session "hostname" in
    check
      (String.starts_with ~prefix:"perf-blkio\n" out)
      "hostname answered %S" out;
    let vdrv =
      match Guest.vmsh_blk g with
      | Some d -> d
      | None -> raise (Check_failed "vmsh-blk did not probe")
    in
    (* the image was packed with exactly this much headroom past the
       tools, and a fresh SimpleFS fills from the front: the tail is
       free for raw requests and the scratch file system *)
    let cap = Drv.capacity_sectors vdrv / spb in
    let fs_first = cap - fs_blocks in
    let raw_first = fs_first - raw_blocks in
    let cache = Guest.page_cache g in
    let fs_dev = Blockdev.Dev.sub (Drv.to_blockdev vdrv) ~first_block:fs_first ~blocks:fs_blocks in
    let bulk ~first ~count =
      Drv.read vdrv ~sector:((first + fs_first) * spb) ~len:(count * block)
    in
    let cached = Page_cache.wrap ~bulk_read:bulk cache ~dev_id:12 fs_dev in
    let fs =
      Vmm.in_guest vmm (fun () ->
          match Sfs.mkfs cached () with
          | Ok f -> f
          | Error e -> raise (Check_failed ("mkfs: " ^ H.Errno.show e)))
    in
    state :=
      Some
        {
          host = h; vmm; session; before; fds_before; vdrv;
          qdrv = Guest.boot_blk_exn g; raw_first; cache; fs;
        }
  in
  (* the program-side spans of the first traced batch *)
  let keep_trace obs =
    if Observe.enabled obs && !host_trace = None then
      host_trace := Some (Observe.Export.chrome_trace obs)
  in
  let retire () =
    let r = rig () in
    keep_trace r.host.H.Host.observe;
    match
      detach_and_verify probe acc r.host r.vmm r.session ~before:r.before
        ~fds_before:r.fds_before
    with
    | Ok () -> ()
    | Error e -> raise (Check_failed ("blkio detach: " ^ Vmsh.Vmsh_error.to_string e))
  in
  let mb_s bytes ns = if ns = 0. then 0. else bytes /. 1048576. /. (ns /. 1e9) in
  let layers () =
    let reqs = Acc.count acc "vmsh_seq_read_ns" in
    let seq_bytes = float_of_int (reqs * req) in
    let read_mb_s = mb_s seq_bytes (Acc.total acc "vmsh_seq_read_ns") in
    let qemu_mb_s =
      mb_s (float_of_int (Acc.count acc "qemu_read_ns" * req)) (Acc.total acc "qemu_read_ns")
    in
    let vs_qemu = read_mb_s /. qemu_mb_s in
    check (vs_qemu >= 0.35 && vs_qemu <= 0.75)
      "vmsh-blk reads at %.2f of qemu-blk, outside the paper's Fig. 6 shape [0.35, 0.75]"
      vs_qemu;
    let writes = Acc.get acc "vmsh_write_ns" and reads = Acc.get acc "vmsh_read_ns" in
    let mib = Acc.total acc "raw_mib" in
    let per_mib key = Acc.total acc key /. mib in
    let pc_hits = Acc.total acc "pc_hits" in
    [
      ("virtio.blk.read_mb_s", read_mb_s);
      ("virtio.blk.write_mb_s", mb_s seq_bytes (Acc.total acc "vmsh_seq_write_ns"));
      ( "virtio.blk.rand_kiops",
        float_of_int (Acc.count acc "vmsh_rand_ns") /. (Acc.total acc "vmsh_rand_ns" /. 1e9) /. 1e3 );
      ( "blockdev.fs_write_mb_s",
        mb_s (float_of_int (Acc.count acc "fs_write_ns" * sz.file)) (Acc.total acc "fs_write_ns") );
      ("virtio.blk.read_us.p50", Stats.percentile reads 0.5 /. 1e3);
      ("virtio.blk.read_us.p99", Stats.percentile reads 0.99 /. 1e3);
      ("virtio.blk.write_us.p50", Stats.percentile writes 0.5 /. 1e3);
      ("virtio.blk.write_us.p99", Stats.percentile writes 0.99 /. 1e3);
      ("hostos.remote_copy_bytes_per_mib", per_mib "raw:bytes_copied_remote");
      ("blockdev.device_ops_per_mib", per_mib "raw:device_ops");
      ("linux_guest.page_cache.hit_ratio", ratio pc_hits (pc_hits +. Acc.total acc "pc_misses"));
      ("virtio.blk.qemu_read_mb_s", qemu_mb_s);
      ("virtio.blk.vmsh_vs_qemu_ratio", vs_qemu);
    ]
    @ List.map (fun k -> (Catalogue.exit_metric k, per_mib ("exit:" ^ k))) Catalogue.exit_kinds
  in
  let finish () =
    retire ();
    [
      ( "virtio.blk.wall_us_per_request",
        Acc.total acc "raw_wall_s" /. Acc.total acc "raw_requests" *. 1e6 );
    ]
  in
  {
    Run.name = "blkio";
    window = (if ctx.Run.quick then 2 else 40);
    setup =
      (fun () ->
        open_rig 0;
        ignore (batch 0));
    (* The program keeps every guest write a VM ever made (Kvm.Vm's
       dirty list, the journal's late writes), so one machine's heap
       grows with each batch and slows the later ones; a fresh machine
       every [rig_batches] keeps a unit's cost independent of how many
       units the host managed before it. *)
    prepare =
      (fun i ->
        if i > 0 && i mod rig_batches = 0 then begin
          retire ();
          open_rig (i / rig_batches)
        end;
        let obs = (rig ()).host.H.Host.observe in
        keep_trace obs;
        if probe.Probe.tracing then Observe.enable obs else Observe.disable obs);
    step = (fun i -> Probe.call probe "batch" (fun () -> batch i));
    layers;
    finish;
    notes =
      (fun () ->
        [ Printf.sprintf "kernel %s; batch: %d KiB seq write+read, %d x 4 KiB random, %d KiB file"
            (KV.to_string version) (sz.seq / kib) sz.rand (sz.file / kib) ]);
    observed = (fun () -> !host_trace);
  }
