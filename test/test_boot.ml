(* Integration tests: VMM creation, guest boot, virtio data path. *)

module H = Hostos
module Sfs = Blockdev.Simplefs
module Guest = Linux_guest.Guest
module KV = Linux_guest.Kernel_version

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

(* A formatted root disk with a few files. *)
let make_disk ?(blocks = 2048) ?clock () =
  let backend = Blockdev.Backend.create ?clock ~blocks () in
  let fs =
    match Sfs.mkfs (Blockdev.Backend.dev backend) () with
    | Ok fs -> fs
    | Error _ -> Alcotest.fail "mkfs"
  in
  List.iter
    (fun (p, c) ->
      (match Filename.dirname p with
      | "/" -> ()
      | dir -> (
          match Sfs.mkdir_p fs dir with
          | Ok () -> ()
          | Error e -> Alcotest.failf "mkdir_p %s: %a" dir H.Errno.pp e));
      match Sfs.write_file fs p (Bytes.of_string c) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write %s: %a" p H.Errno.pp e)
    [
      ("/etc/hostname", "guest-vm\n");
      ("/etc/shadow", "root:$6$locked$abcdefghij:19000:0:99999:7:::\n");
      ("/bin/app", "#!app binary\n");
    ];
  Sfs.sync fs;
  (backend, fs)

let boot_qemu ?(version = KV.V5_10) () =
  let h = H.Host.create ~seed:7 () in
  let disk, _ = make_disk ~clock:h.H.Host.clock () in
  let vmm = Hypervisor.Vmm.create h ~profile:Hypervisor.Profile.qemu ~disk () in
  let g = Hypervisor.Vmm.boot vmm ~version in
  (h, vmm, g)

let test_boot_mounts_root () =
  let _, vmm, g = boot_qemu () in
  check cbool "no crash" true (Guest.crashed g = None);
  check cbool "rootfs mounted" true (Guest.rootfs g <> None);
  match
    Hypervisor.Vmm.in_guest vmm (fun () ->
        Guest.file_read g ~ns:(Guest.root_ns g) "/etc/hostname")
  with
  | Ok b -> check cstr "file content" "guest-vm\n" (Bytes.to_string b)
  | Error e -> Alcotest.failf "read: %a" H.Errno.pp e

let test_boot_dmesg_and_kaslr () =
  let _, _, g = boot_qemu () in
  let messages = Guest.dmesg g in
  check cbool "banner logged" true
    (List.exists
       (fun m -> String.length m > 13 && String.sub m 0 13 = "Linux version")
       messages);
  let kb = Guest.kernel_virt g in
  check cbool "kernel in KASLR range" true
    (kb >= X86.Layout.kaslr_base
    && kb < X86.Layout.kaslr_base + X86.Layout.kaslr_size);
  check cint "2MiB aligned" 0 (kb mod X86.Layout.kaslr_align)

let test_kaslr_varies_with_seed () =
  let boot_with seed =
    let h = H.Host.create ~seed () in
    let disk, _ = make_disk ~clock:h.H.Host.clock () in
    let vmm = Hypervisor.Vmm.create h ~profile:Hypervisor.Profile.qemu ~disk () in
    Guest.kernel_virt (Hypervisor.Vmm.boot vmm ~version:KV.V5_10)
  in
  let bases = List.map boot_with [ 1; 2; 3; 4; 5 ] in
  let distinct = List.sort_uniq compare bases in
  check cbool "KASLR produces different bases" true (List.length distinct > 1)

let test_guest_file_write_hits_disk () =
  let _, vmm, g = boot_qemu () in
  (* write from inside the guest, then flush the page cache and verify
     the bytes reached the host-side disk image *)
  Hypervisor.Vmm.run_task vmm ~name:"writer" (fun () ->
      match
        Guest.file_write g ~ns:(Guest.root_ns g) "/data.txt"
          (Bytes.of_string "through-the-stack")
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "guest write: %a" H.Errno.pp e);
  Hypervisor.Vmm.run_task vmm ~name:"sync" (fun () ->
      Linux_guest.Page_cache.flush (Guest.page_cache g);
      match Guest.rootfs g with
      | Some fs -> Sfs.sync fs
      | None -> ());
  (* read the disk image directly on the host *)
  let dev = Blockdev.Backend.dev (Hypervisor.Vmm.disk vmm) in
  match Sfs.mount dev with
  | Error _ -> Alcotest.fail "host-side mount"
  | Ok hfs -> (
      match Sfs.read_file hfs "/data.txt" with
      | Ok b -> check cstr "content on disk" "through-the-stack" (Bytes.to_string b)
      | Error e -> Alcotest.failf "host read: %a" H.Errno.pp e)

let test_guest_read_costs_device_time () =
  let h, vmm, g = boot_qemu () in
  Hypervisor.Vmm.run_task vmm ~name:"toucher" (fun () ->
      ignore (Guest.file_read g ~ns:(Guest.root_ns g) "/bin/app"));
  let counters = H.Clock.counters h.H.Host.clock in
  check cbool "device ops happened" true (counters.H.Clock.device_ops > 0);
  check cbool "virtual time advanced" true (H.Clock.now_ns h.H.Host.clock > 0.0)

let test_page_cache_hit_on_reread () =
  let _, vmm, g = boot_qemu () in
  let stats = Linux_guest.Page_cache.stats (Guest.page_cache g) in
  Hypervisor.Vmm.run_task vmm ~name:"first" (fun () ->
      ignore (Guest.file_read g ~ns:(Guest.root_ns g) "/bin/app"));
  let misses_after_first = stats.Linux_guest.Page_cache.misses in
  Hypervisor.Vmm.run_task vmm ~name:"second" (fun () ->
      ignore (Guest.file_read g ~ns:(Guest.root_ns g) "/bin/app"));
  check cint "no new misses on re-read" misses_after_first
    stats.Linux_guest.Page_cache.misses;
  check cbool "hits recorded" true (stats.Linux_guest.Page_cache.hits > 0)

let test_all_profiles_boot () =
  List.iter
    (fun profile ->
      let h = H.Host.create ~seed:11 () in
      let disk, _ = make_disk ~clock:h.H.Host.clock () in
      let vmm = Hypervisor.Vmm.create h ~profile ~disk () in
      let g = Hypervisor.Vmm.boot vmm ~version:KV.V5_10 in
      check cbool
        (profile.Hypervisor.Profile.prof_name ^ " boots without crash")
        true
        (Guest.crashed g = None))
    Hypervisor.Profile.all

let test_all_kernel_versions_boot () =
  List.iter
    (fun version ->
      let h = H.Host.create ~seed:13 () in
      let disk, _ = make_disk ~clock:h.H.Host.clock () in
      let vmm =
        Hypervisor.Vmm.create h ~profile:Hypervisor.Profile.qemu ~disk ()
      in
      let g = Hypervisor.Vmm.boot vmm ~version in
      check cbool (KV.to_string version ^ " boots") true (Guest.crashed g = None);
      check cbool
        (KV.to_string version ^ " mounts root")
        true
        (Guest.rootfs g <> None))
    KV.all_lts

let test_ninep_roundtrip () =
  let h = H.Host.create ~seed:17 () in
  let disk, _ = make_disk ~clock:h.H.Host.clock () in
  (* host-shared directory *)
  let share_backend = Blockdev.Backend.create ~blocks:512 () in
  let share =
    match Sfs.mkfs (Blockdev.Backend.dev share_backend) () with
    | Ok fs -> fs
    | Error _ -> Alcotest.fail "mkfs share"
  in
  ignore (Sfs.write_file share "/host-file" (Bytes.of_string "host data"));
  let vmm =
    Hypervisor.Vmm.create h ~profile:Hypervisor.Profile.qemu ~disk
      ~ninep_root:share ()
  in
  let g = Hypervisor.Vmm.boot vmm ~version:KV.V5_10 in
  check cbool "9p probed" true (Guest.boot_ninep g <> None);
  Hypervisor.Vmm.run_task vmm ~name:"9p-read" (fun () ->
      let drv = Option.get (Guest.boot_ninep g) in
      (match Virtio.Ninep.Driver.read drv ~path:"/host-file" ~off:0 ~len:64 with
      | Ok b -> check cstr "9p read" "host data" (Bytes.to_string b)
      | Error e -> Alcotest.failf "9p read: %a" H.Errno.pp e);
      match Virtio.Ninep.Driver.write drv ~path:"/from-guest" ~off:0
              (Bytes.of_string "guest wrote this")
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "9p write: %a" H.Errno.pp e);
  match Sfs.read_file share "/from-guest" with
  | Ok b -> check cstr "host sees guest write" "guest wrote this" (Bytes.to_string b)
  | Error e -> Alcotest.failf "host read: %a" H.Errno.pp e

let test_raw_blk_driver_io () =
  let _, vmm, g = boot_qemu () in
  Hypervisor.Vmm.run_task vmm ~name:"raw-io" (fun () ->
      let drv = Guest.boot_blk_exn g in
      (* raw sector IO beyond the fs: the last sectors of the disk *)
      let sector = Virtio.Blk.Driver.capacity_sectors drv - 16 in
      let payload = Bytes.make 4096 'Q' in
      Virtio.Blk.Driver.write drv ~sector payload;
      let back = Virtio.Blk.Driver.read drv ~sector ~len:4096 in
      check cbool "raw roundtrip" true (Bytes.equal payload back))

let test_firecracker_seccomp_applied () =
  let h = H.Host.create ~seed:19 () in
  let disk, _ = make_disk ~clock:h.H.Host.clock () in
  let vmm =
    Hypervisor.Vmm.create h ~profile:Hypervisor.Profile.firecracker ~disk ()
  in
  let p = Hypervisor.Vmm.proc vmm in
  check cbool "threads have filters" true
    (List.for_all (fun th -> th.H.Proc.seccomp <> None) p.H.Proc.threads);
  (* boot still works: the filter allows the VMM's own syscalls *)
  let g = Hypervisor.Vmm.boot vmm ~version:KV.V5_10 in
  check cbool "firecracker boots under seccomp" true (Guest.crashed g = None)

(* A boot's kernel image is 1.25 MiB of content inside its 2 MiB
   mapping, nearly all of it noise text. Counted on both heaps
   ([Alloc.words]: the image's pages are major-heap blocks), a cold
   boot that wrote every image page allocated 428 k words; one
   that generates the noise and materialises only the pages the boot
   itself touches allocates at most 104,734, bounded here with 25%
   headroom. [Alloc.words] starts each boot right after a full major
   collection. *)
let test_boot_allocation_bound () =
  List.iter
    (fun version ->
      let h = H.Host.create ~seed:7 () in
      let disk, _ = make_disk ~clock:h.H.Host.clock () in
      let vmm = Hypervisor.Vmm.create h ~profile:Hypervisor.Profile.qemu ~disk () in
      let g, words = Alloc.words (fun () -> Hypervisor.Vmm.boot vmm ~version) in
      check cbool (KV.to_string version ^ " booted") true (Guest.crashed g = None);
      if words > 1.25 *. 104_734. then
        Alcotest.failf "%s: a cold boot allocated %.0f words"
          (KV.to_string version) words)
    KV.all_lts

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "integration.boot",
      [
        t "mounts root" test_boot_mounts_root;
        t "dmesg + kaslr" test_boot_dmesg_and_kaslr;
        t "kaslr varies" test_kaslr_varies_with_seed;
        t "guest write reaches disk" test_guest_file_write_hits_disk;
        t "reads cost device time" test_guest_read_costs_device_time;
        t "page cache hits" test_page_cache_hit_on_reread;
        t "all hypervisors boot" test_all_profiles_boot;
        t "all LTS kernels boot" test_all_kernel_versions_boot;
        t "9p roundtrip" test_ninep_roundtrip;
        t "raw blk io" test_raw_blk_driver_io;
        t "firecracker seccomp" test_firecracker_seccomp_applied;
        t "cold boot allocation bound" test_boot_allocation_bound;
      ] );
  ]
