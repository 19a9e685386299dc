(* The evaluation harness: regenerates every table and figure of the
   paper (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
   for recorded paper-vs-measured results).

     dune exec bench/main.exe             -- everything
     dune exec bench/main.exe -- --only e5,e6
     dune exec bench/main.exe -- --list

   Wall-clock here is simulation time; all reported performance numbers
   come from the virtual clock. *)

module H = Hostos
module Clock = H.Clock
module Sfs = Blockdev.Simplefs
module Guest = Linux_guest.Guest
module KV = Linux_guest.Kernel_version
module Page_cache = Linux_guest.Page_cache
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile
module Fio = Workloads.Fio

let section title = Printf.printf "\n== %s ==\n%!" title

(* ------------------------------------------------------------------ *)
(* Environment builders                                                 *)
(* ------------------------------------------------------------------ *)

let rootfs_blocks = 2048

(* A guest disk: SimpleFS root in the first [rootfs_blocks] blocks, the
   rest of the device left as scratch space for benchmarks. *)
let make_disk ?(blocks = 16384) h =
  let backend = Blockdev.Backend.create ~clock:h.H.Host.clock ~blocks () in
  let rootdev =
    Blockdev.Dev.sub (Blockdev.Backend.dev backend) ~first_block:0
      ~blocks:rootfs_blocks
  in
  let fs =
    match Sfs.mkfs rootdev () with Ok f -> f | Error _ -> failwith "mkfs"
  in
  ignore (Sfs.mkdir_p fs "/dev");
  ignore (Sfs.mkdir_p fs "/etc");
  ignore (Sfs.write_file fs "/etc/hostname" (Bytes.of_string "bench-vm\n"));
  Sfs.sync fs;
  backend

let boot_qemu ?(seed = 100) ?(profile = Profile.qemu) ?disable_seccomp
    ?ninep_root ?(blocks = 16384) () =
  let h = H.Host.create ~seed () in
  let disk = make_disk ~blocks h in
  let vmm = Vmm.create h ~profile ~disk ?disable_seccomp ?ninep_root () in
  let g = Vmm.boot vmm ~version:KV.V5_10 in
  (h, vmm, g)

(* A roomy VMSH file-system image (the vmsh-blk backing store); charged
   against the host clock like any other disk. *)
let vmsh_image ?clock ?(extra_blocks = 14336) () =
  match
    Blockdev.Image.pack ?clock ~extra_blocks
      [ Blockdev.Image.file "/bin/busybox" 600000 ]
  with
  | Ok (backend, _) -> backend
  | Error e -> failwith ("vmsh image: " ^ H.Errno.show e)

let attach ?(config = Vmsh.Attach.Config.make ()) ?image (h, vmm, _g) =
  let fs_image =
    match image with
    | Some i -> i
    | None -> vmsh_image ~clock:h.H.Host.clock ()
  in
  match
    Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm) ~fs_image ~config
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  with
  | Ok s -> s
  | Error e -> failwith ("attach: " ^ Vmsh.Vmsh_error.to_string e)

(* Scratch file system over the tail of the qemu-blk disk. *)
let scratch_fs_qemu vmm g =
  let drv = Guest.boot_blk_exn g in
  let raw = Virtio.Blk.Driver.to_blockdev drv in
  let scratch =
    Blockdev.Dev.sub raw ~first_block:rootfs_blocks
      ~blocks:(raw.Blockdev.Dev.blocks - rootfs_blocks)
  in
  let cache = Guest.page_cache g in
  let bulk ~first ~count =
    Virtio.Blk.Driver.read drv
      ~sector:((first + rootfs_blocks) * Virtio.Blk.sectors_per_block)
      ~len:(count * Blockdev.Dev.block_size)
  in
  let cached = Page_cache.wrap ~bulk_read:bulk cache ~dev_id:11 scratch in
  let fs =
    Vmm.in_guest vmm (fun () ->
        match Sfs.mkfs cached () with Ok f -> f | Error _ -> failwith "mkfs")
  in
  (fs, cache)

(* Scratch file system over the attached vmsh-blk device. *)
let scratch_fs_vmsh vmm g =
  let drv =
    match Guest.vmsh_blk g with
    | Some d -> d
    | None -> failwith "vmsh-blk not attached"
  in
  let raw = Virtio.Blk.Driver.to_blockdev drv in
  let cache = Guest.page_cache g in
  let bulk ~first ~count =
    Virtio.Blk.Driver.read drv
      ~sector:(first * Virtio.Blk.sectors_per_block)
      ~len:(count * Blockdev.Dev.block_size)
  in
  let cached = Page_cache.wrap ~bulk_read:bulk cache ~dev_id:12 raw in
  let fs =
    Vmm.in_guest vmm (fun () ->
        match Sfs.mkfs cached () with Ok f -> f | Error _ -> failwith "mkfs")
  in
  (fs, cache)

(* ------------------------------------------------------------------ *)
(* E2/E3 — Table 1                                                      *)
(* ------------------------------------------------------------------ *)

let try_attach (h, vmm, g) =
  ignore g;
  match
    Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
      ~fs_image:(vmsh_image ~clock:h.H.Host.clock ~extra_blocks:64 ())
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  with
  | Ok _ -> Ok ()
  | Error e -> Error (Vmsh.Vmsh_error.to_string e)

let run_table1 () =
  section "Table 1 — hypervisor and kernel support (E2, E3 / paper §6.2)";
  Printf.printf "%-18s %-12s %s\n" "hypervisor" "result" "note";
  List.iter
    (fun (profile, disable_seccomp, note) ->
      let env =
        boot_qemu
          ~seed:(Hashtbl.hash profile.Profile.prof_name)
          ~profile ?disable_seccomp ~blocks:4096 ()
      in
      match try_attach env with
      | Ok () ->
          Printf.printf "%-18s %-12s %s\n" profile.Profile.prof_name "supported"
            note
      | Error e ->
          Printf.printf "%-18s %-12s %s\n" profile.Profile.prof_name
            "UNSUPPORTED"
            (String.concat " " (String.split_on_char '\n' e)))
    [
      (Profile.qemu, None, "");
      (Profile.kvmtool, None, "");
      (Profile.firecracker, Some true, "(seccomp filters disabled, as in the paper)");
      (Profile.crosvm, None, "");
      (Profile.cloud_hypervisor, None, "");
    ];
  (* beyond the paper: stock Firecracker via the seccomp heuristic *)
  (let env =
     boot_qemu ~seed:77 ~profile:Profile.firecracker ~disable_seccomp:false
       ~blocks:4096 ()
   in
   let h, vmm, _ = env in
   let result =
     match
       Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
         ~fs_image:(vmsh_image ~clock:h.H.Host.clock ~extra_blocks:64 ())
         ~config:
           (Vmsh.Attach.Config.with_seccomp_heuristic true
              (Vmsh.Attach.Config.make ()))
         ~pump:(fun () -> Vmm.run_until_idle vmm)
         ()
     with
     | Ok _ -> "supported"
     | Error e -> "FAILED: " ^ Vmsh.Vmsh_error.to_string e
   in
   Printf.printf "%-18s %-12s %s\n" "Firecracker" result
     "(stock seccomp + thread-probing heuristic; paper's future work)");
  (* beyond the paper: Cloud Hypervisor via the VirtIO-over-PCI transport *)
  (let env =
     boot_qemu ~seed:78 ~profile:Profile.cloud_hypervisor ~blocks:4096 ()
   in
   let h, vmm, _ = env in
   let result =
     match
       Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
         ~fs_image:(vmsh_image ~clock:h.H.Host.clock ~extra_blocks:64 ())
         ~config:
           (Vmsh.Attach.Config.with_pci true (Vmsh.Attach.Config.make ()))
         ~pump:(fun () -> Vmm.run_until_idle vmm)
         ()
     with
     | Ok _ -> "supported"
     | Error e -> "FAILED: " ^ Vmsh.Vmsh_error.to_string e
   in
   Printf.printf "%-18s %-12s %s\n" "Cloud Hypervisor" result
     "(VirtIO-over-PCI transport + MSI routes; paper's future work)");
  Printf.printf "\n%-10s %s\n" "kernel" "result";
  List.iter
    (fun version ->
      let h = H.Host.create ~seed:(200 + Hashtbl.hash version) () in
      let disk = make_disk ~blocks:4096 h in
      let vmm = Vmm.create h ~profile:Profile.qemu ~disk () in
      let _g = Vmm.boot vmm ~version in
      match
        Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
          ~fs_image:(vmsh_image ~clock:h.H.Host.clock ~extra_blocks:64 ())
          ~pump:(fun () -> Vmm.run_until_idle vmm)
          ()
      with
      | Ok s ->
          let anal = Vmsh.Attach.analysis s in
          Printf.printf "v%-9s attach ok (layout %s, version detected %s)\n"
            (KV.to_string version)
            (match anal.Vmsh.Symbol_analysis.layout with
            | KV.Absolute_value_first -> "abs/value-first"
            | KV.Absolute_name_first -> "abs/name-first"
            | KV.Prel32 -> "prel32")
            (KV.to_string anal.Vmsh.Symbol_analysis.version)
      | Error e ->
          Printf.printf "v%-9s FAILED: %s\n" (KV.to_string version)
            (Vmsh.Vmsh_error.to_string e))
    KV.all_lts

(* ------------------------------------------------------------------ *)
(* E1 — §6.1 robustness (xfstests)                                      *)
(* ------------------------------------------------------------------ *)

let run_e1 () =
  section
    "E1 — xfstests robustness (paper §6.1: 619 tests, 3 quota failures on \
     both devices)";
  let module X = Workloads.Xfstests in
  (* native: the host file system with quota support *)
  let native =
    X.run_suite
      ~make_fs:(fun () ->
        let b = Blockdev.Backend.create ~blocks:1024 () in
        match Sfs.mkfs (Blockdev.Backend.dev b) () with
        | Ok f -> f
        | Error _ -> failwith "mkfs")
      X.native_features
  in
  (* qemu-blk: fresh fs over the guest's VirtIO disk per test *)
  let h, vmm, g = boot_qemu ~seed:301 () in
  ignore h;
  let drv = Guest.boot_blk_exn g in
  let raw = Virtio.Blk.Driver.to_blockdev drv in
  let scratch = Blockdev.Dev.sub raw ~first_block:rootfs_blocks ~blocks:1024 in
  let qemu_blk =
    X.run_suite
      ~make_fs:(fun () ->
        match Sfs.mkfs scratch () with Ok f -> f | Error _ -> failwith "mkfs")
      ~in_ctx:(fun f -> Vmm.in_guest vmm f)
      X.simplefs_features
  in
  (* vmsh-blk: fresh fs over the attached device per test *)
  let env = boot_qemu ~seed:302 () in
  let _session = attach env in
  let _, vmm2, g2 = env in
  let vdrv = Option.get (Guest.vmsh_blk g2) in
  let vraw = Virtio.Blk.Driver.to_blockdev vdrv in
  let vscratch = Blockdev.Dev.sub vraw ~first_block:0 ~blocks:1024 in
  let vmsh_blk =
    X.run_suite
      ~make_fs:(fun () ->
        match Sfs.mkfs vscratch () with Ok f -> f | Error _ -> failwith "mkfs")
      ~in_ctx:(fun f -> Vmm.in_guest vmm2 f)
      X.simplefs_features
  in
  Printf.printf "%-10s %6s %6s %6s %8s\n" "device" "total" "pass" "fail"
    "skipped";
  List.iter
    (fun (name, (s : X.summary)) ->
      Printf.printf "%-10s %6d %6d %6d %8d\n" name s.X.total s.X.passed
        s.X.failed s.X.skipped)
    [ ("native", native); ("qemu-blk", qemu_blk); ("vmsh-blk", vmsh_blk) ];
  let fail_ids s = List.map fst s.X.failures |> List.sort compare in
  Printf.printf "failures qemu-blk: %s\n"
    (String.concat ", " (fail_ids qemu_blk));
  Printf.printf "failures vmsh-blk: %s\n"
    (String.concat ", " (fail_ids vmsh_blk));
  Printf.printf
    "=> vmsh-blk fails exactly the tests qemu-blk fails (quota reporting): %b\n"
    (fail_ids qemu_blk = fail_ids vmsh_blk)

(* ------------------------------------------------------------------ *)
(* E4 — Figure 5: Phoronix suite, vmsh-blk relative to qemu-blk         *)
(* ------------------------------------------------------------------ *)

let run_e4 () =
  section
    "Figure 5 — Phoronix disk suite: vmsh-blk time relative to qemu-blk \
     (paper: 1.5x +- 0.6 mean)";
  (* qemu-blk environment *)
  let hq, vmmq, gq = boot_qemu ~seed:401 ~blocks:24576 () in
  let qfs, qcache = scratch_fs_qemu vmmq gq in
  let qenv =
    {
      Workloads.Phoronix.vmm = vmmq;
      fs = qfs;
      cache = qcache;
      clock = hq.H.Host.clock;
      rng = H.Rng.create ~seed:77;
    }
  in
  (* vmsh-blk environment *)
  let envv = boot_qemu ~seed:402 ~blocks:4096 () in
  let hv0, _, _ = envv in
  let _session =
    attach ~image:(vmsh_image ~clock:hv0.H.Host.clock ~extra_blocks:22528 ()) envv
  in
  let hv, vmmv, gv = envv in
  let vfs, vcache = scratch_fs_vmsh vmmv gv in
  let venv =
    {
      Workloads.Phoronix.vmm = vmmv;
      fs = vfs;
      cache = vcache;
      clock = hv.H.Host.clock;
      rng = H.Rng.create ~seed:77;
    }
  in
  Printf.printf "%-36s %12s %12s %8s\n" "test" "qemu-blk ms" "vmsh-blk ms"
    "ratio";
  let ratios =
    List.map
      (fun t ->
        let q = Workloads.Phoronix.run_one qenv t /. 1e6 in
        let v = Workloads.Phoronix.run_one venv t /. 1e6 in
        let ratio = v /. q in
        Printf.printf "%-36s %12.2f %12.2f %7.2fx\n" t.Workloads.Phoronix.tname
          q v ratio;
        ratio)
      Workloads.Phoronix.tests
  in
  let n = Float.of_int (List.length ratios) in
  let mean = List.fold_left ( +. ) 0.0 ratios /. n in
  let var =
    List.fold_left (fun a r -> a +. ((r -. mean) ** 2.0)) 0.0 ratios /. n
  in
  Printf.printf "mean slowdown: %.2fx +- %.2f (paper: 1.5x +- 0.6)\n" mean
    (sqrt var)

(* ------------------------------------------------------------------ *)
(* E5 — Figure 6: fio across configurations                             *)
(* ------------------------------------------------------------------ *)

let throughput_job =
  Fio.job Fio.Seq_read ~block_size:(256 * 1024) ~total:(16 * 1024 * 1024)

let throughput_job_w =
  Fio.job Fio.Seq_write ~block_size:(256 * 1024) ~total:(16 * 1024 * 1024)

let iops_job = Fio.job Fio.Seq_read ~block_size:4096 ~total:(4 * 1024 * 1024)
let iops_job_w = Fio.job Fio.Seq_write ~block_size:4096 ~total:(4 * 1024 * 1024)

type fio_row = { label : string; read : Fio.result; write : Fio.result }

let print_fio_rows ~metric rows =
  List.iter
    (fun r ->
      match metric with
      | `Throughput ->
          Printf.printf "%-32s read %8.0f MB/s   write %8.0f MB/s\n" r.label
            r.read.Fio.throughput_mb_s r.write.Fio.throughput_mb_s
      | `Iops ->
          Printf.printf "%-32s read %8.1f kIOPS  write %8.1f kIOPS\n" r.label
            (r.read.Fio.iops /. 1000.)
            (r.write.Fio.iops /. 1000.))
    rows

let fio_pair vmm ~clock ~rng target ~rd ~wr =
  let read = Fio.run vmm ~clock ~rng target rd in
  let write = Fio.run vmm ~clock ~rng target wr in
  (read, write)

let run_e5 () =
  section "Figure 6 — fio: throughput (best case) and IOPS (worst case)";
  let collect ~rd ~wr =
    let rows = ref [] in
    let add label read write = rows := { label; read; write } :: !rows in
    (* native *)
    let hn = H.Host.create ~seed:501 () in
    let nat = Blockdev.Backend.create ~clock:hn.H.Host.clock ~blocks:16384 () in
    let rng = H.Rng.create ~seed:5 in
    let r, w =
      fio_pair None ~clock:hn.H.Host.clock ~rng (Fio.Native nat) ~rd ~wr
    in
    add "native" r w;
    (* qemu-blk baseline (no VMSH) *)
    let h, vmm, g = boot_qemu ~seed:502 () in
    let drv = Guest.boot_blk_exn g in
    let r, w =
      fio_pair (Some vmm) ~clock:h.H.Host.clock ~rng (Fio.Guest_raw drv) ~rd ~wr
    in
    add "qemu-blk (no vmsh)" r w;
    (* wrap_syscall attached: qemu-blk under tax + vmsh-blk itself *)
    let env = boot_qemu ~seed:503 () in
    let _s =
      attach
        ~config:
          (Vmsh.Attach.Config.with_transport Vmsh.Devices.Wrap_syscall
             (Vmsh.Attach.Config.make ()))
        env
    in
    let h, vmm, g = env in
    let drv = Guest.boot_blk_exn g in
    let r, w =
      fio_pair (Some vmm) ~clock:h.H.Host.clock ~rng (Fio.Guest_raw drv) ~rd ~wr
    in
    add "wrap_syscall qemu-blk" r w;
    let vdrv = Option.get (Guest.vmsh_blk g) in
    let r, w =
      fio_pair (Some vmm) ~clock:h.H.Host.clock ~rng (Fio.Guest_raw vdrv) ~rd
        ~wr
    in
    add "wrap_syscall vmsh-blk" r w;
    (* ioregionfd attached *)
    let env = boot_qemu ~seed:504 () in
    let _s = attach env in
    let h, vmm, g = env in
    let drv = Guest.boot_blk_exn g in
    let r, w =
      fio_pair (Some vmm) ~clock:h.H.Host.clock ~rng (Fio.Guest_raw drv) ~rd ~wr
    in
    add "ioregionfd qemu-blk" r w;
    let vdrv = Option.get (Guest.vmsh_blk g) in
    let r, w =
      fio_pair (Some vmm) ~clock:h.H.Host.clock ~rng (Fio.Guest_raw vdrv) ~rd
        ~wr
    in
    add "ioregionfd vmsh-blk" r w;
    (* file IO: qemu-blk fs, qemu-9p, vmsh-blk fs *)
    let h9 = H.Host.create ~seed:505 () in
    let share_backend =
      Blockdev.Backend.create ~clock:h9.H.Host.clock ~blocks:16384 ()
    in
    let share =
      match Sfs.mkfs (Blockdev.Backend.dev share_backend) () with
      | Ok f -> f
      | Error _ -> failwith "mkfs"
    in
    let disk9 = make_disk h9 in
    let vmm = Vmm.create h9 ~profile:Profile.qemu ~disk:disk9 ~ninep_root:share () in
    let g = Vmm.boot vmm ~version:KV.V5_10 in
    let h = h9 in
    let fs, cache = scratch_fs_qemu vmm g in
    let r, w =
      fio_pair (Some vmm) ~clock:h.H.Host.clock ~rng
        (Fio.Guest_fs { fs; cache; path = "/fio"; direct = false })
        ~rd ~wr
    in
    add "file-io qemu-blk" r w;
    let ninep = Option.get (Guest.boot_ninep g) in
    let r, w =
      fio_pair (Some vmm) ~clock:h.H.Host.clock ~rng
        (Fio.Guest_ninep { drv = ninep; path = "/fio9" })
        ~rd ~wr
    in
    add "file-io qemu-9p" r w;
    let env = boot_qemu ~seed:506 ~blocks:4096 () in
    let h0, _, _ = env in
    let _s =
      attach ~image:(vmsh_image ~clock:h0.H.Host.clock ~extra_blocks:22528 ()) env
    in
    let h, vmm, g = env in
    let fs, cache = scratch_fs_vmsh vmm g in
    let r, w =
      fio_pair (Some vmm) ~clock:h.H.Host.clock ~rng
        (Fio.Guest_fs { fs; cache; path = "/fio"; direct = false })
        ~rd ~wr
    in
    add "file-io vmsh-blk" r w;
    List.rev !rows
  in
  Printf.printf "-- Figure 6a: throughput, 256 KiB sequential --\n";
  print_fio_rows ~metric:`Throughput
    (collect ~rd:throughput_job ~wr:throughput_job_w);
  Printf.printf "\n-- Figure 6b: IOPS, 4 KiB sequential --\n";
  print_fio_rows ~metric:`Iops (collect ~rd:iops_job ~wr:iops_job_w)

(* ------------------------------------------------------------------ *)
(* E6 — Figure 7: console responsiveness                                *)
(* ------------------------------------------------------------------ *)

let run_e6 () =
  section "Figure 7 — console latency (paper: vmsh ~= ssh ~= 0.9 ms)";
  let env = boot_qemu ~seed:601 () in
  let session = attach env in
  let h, _, _ = env in
  let clock = h.H.Host.clock in
  (* let the shell settle *)
  ignore (Vmsh.Attach.console_recv session);
  let results =
    [
      Workloads.Console_latency.native clock;
      Workloads.Console_latency.ssh clock;
      Workloads.Console_latency.vmsh session clock;
    ]
  in
  List.iter
    (fun m ->
      Printf.printf "%-14s %6.2f ms\n" m.Workloads.Console_latency.m_name
        m.Workloads.Console_latency.latency_ms)
    results

(* ------------------------------------------------------------------ *)
(* E7 — Figure 8: image de-bloating                                     *)
(* ------------------------------------------------------------------ *)

let run_e7 () =
  section
    "Figure 8 — VM size reduction, top-40 Docker images (paper: 60% average)";
  let reports = Debloat.Analyze.analyze_all () in
  let scale = Debloat.Dataset.size_scale in
  let mb b = Float.of_int (b * scale) /. 1048576.0 in
  Printf.printf "%-16s %10s %10s %10s %6s\n" "image" "before MB" "after MB"
    "reduction" "works";
  List.iter
    (fun (r : Debloat.Analyze.report) ->
      Printf.printf "%-16s %10.1f %10.1f %9.0f%% %6b\n" r.Debloat.Analyze.r_name
        (mb r.Debloat.Analyze.before_bytes)
        (mb r.Debloat.Analyze.after_bytes)
        r.Debloat.Analyze.reduction_pct r.Debloat.Analyze.still_works)
    reports;
  let under10 =
    List.length
      (List.filter (fun r -> r.Debloat.Analyze.reduction_pct < 10.0) reports)
  in
  Printf.printf
    "average reduction: %.1f%% (paper: 60%%); images under 10%%: %d (paper: 3, \
     static Go binaries)\n"
    (Debloat.Analyze.average_reduction reports)
    under10

(* ------------------------------------------------------------------ *)
(* E8/E9/E10 — use cases                                                *)
(* ------------------------------------------------------------------ *)

let run_e8 () =
  section "E8 — use case #1: serverless debug shell (vHive-style stack)";
  let h = H.Host.create ~seed:801 () in
  let stack =
    Usecases.Serverless.create_stack h
      ~functions:
        [
          ("thumbnailer", fun payload -> Ok ("thumb(" ^ payload ^ ")"));
          ("broken-parser", fun _ -> Error "unexpected token at line 1");
        ]
  in
  ignore (Usecases.Serverless.invoke stack ~fn:"thumbnailer" ~payload:"cat.jpg");
  ignore (Usecases.Serverless.invoke stack ~fn:"broken-parser" ~payload:"{bad");
  match Usecases.Serverless.find_faulty stack with
  | None -> Printf.printf "FAILED: faulty lambda not located\n"
  | Some lam -> (
      Printf.printf "faulty lambda: %s (firecracker pid %d)\n"
        lam.Usecases.Serverless.fn_name
        (Vmm.pid lam.Usecases.Serverless.vmm);
      match Usecases.Serverless.debug_shell h stack lam with
      | Error e -> Printf.printf "FAILED to attach: %s\n" e
      | Ok session ->
          let out = Vmsh.Attach.console_roundtrip session "hostname" in
          Printf.printf "debug shell reports instance: %s" out;
          let reclaimed = Usecases.Serverless.scale_down stack in
          Printf.printf
            "scale-down reclaimed %d instances; debugged instance pinned: %b\n"
            reclaimed
            (not lam.Usecases.Serverless.reclaimed);
          Usecases.Serverless.end_debug stack lam session)

let run_e9 () =
  section "E9 — use case #2: VM rescue (password reset, no reboot)";
  let h, vmm, g = boot_qemu ~seed:901 () in
  Vmm.in_guest vmm (fun () ->
      match Guest.rootfs g with
      | Some fs ->
          ignore
            (Sfs.write_file fs "/etc/shadow"
               (Bytes.of_string "root:$6$forgotten$xxxx:19000:0:99999:7:::\n"))
      | None -> ());
  match
    Usecases.Rescue.reset_password h ~vmm ~user:"root" ~password:"hunter2"
  with
  | Error e -> Printf.printf "FAILED: %s\n" e
  | Ok _out ->
      Printf.printf
        "chpasswd ran in the overlay; password set: %b (VM never rebooted)\n"
        (Usecases.Rescue.verify_password_set vmm g ~user:"root"
           ~password:"hunter2")

let run_e10 () =
  section "E10 — use case #3: package security scanner (Alpine guest)";
  let h, vmm, g = boot_qemu ~seed:1001 () in
  Vmm.in_guest vmm (fun () ->
      match Guest.rootfs g with
      | Some fs ->
          ignore (Sfs.mkdir_p fs "/lib/apk/db");
          ignore
            (Sfs.write_file fs "/lib/apk/db/installed"
               (Bytes.of_string
                  (Usecases.Scanner.apk_db_content
                     [
                       ("musl", "1.2.1"); ("busybox", "1.32.0");
                       ("openssl", "1.1.1j"); ("zlib", "1.2.12");
                       ("curl", "7.80.0"); ("apk-tools", "2.12.7");
                     ])))
      | None -> ());
  match Usecases.Scanner.scan h ~vmm () with
  | Error e -> Printf.printf "FAILED: %s\n" e
  | Ok vulns ->
      Printf.printf "%d vulnerable packages found:\n" (List.length vulns);
      List.iter
        (fun v ->
          Printf.printf "  %-10s %-8s (fixed in %s) %s\n"
            v.Usecases.Scanner.v_pkg v.Usecases.Scanner.installed
            v.Usecases.Scanner.fixed_in v.Usecases.Scanner.cve)
        vulns

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  section
    "Ablation — copy path: bulk process_vm_readv vs 8-byte peeking (paper \
     §5: 'doubles the performance')";
  let run_mode mode =
    let env = boot_qemu ~seed:(1100 + Hashtbl.hash mode) () in
    let _s =
      attach
        ~config:
          (Vmsh.Attach.Config.with_copy_mode mode (Vmsh.Attach.Config.make ()))
        env
    in
    let h, vmm, g = env in
    let vdrv = Option.get (Guest.vmsh_blk g) in
    let rng = H.Rng.create ~seed:11 in
    Fio.run (Some vmm) ~clock:h.H.Host.clock ~rng (Fio.Guest_raw vdrv)
      throughput_job
  in
  let bulk = run_mode Vmsh.Hyp_mem.Bulk in
  let chunked = run_mode Vmsh.Hyp_mem.Chunked_4k in
  let peek = run_mode Vmsh.Hyp_mem.Peek_u64 in
  Printf.printf "bulk process_vm (shipped):        %8.0f MB/s\n"
    bulk.Fio.throughput_mb_s;
  Printf.printf "chunked bounce-buffer (pre-opt):  %8.0f MB/s (%.2fx slower)\n"
    chunked.Fio.throughput_mb_s
    (bulk.Fio.throughput_mb_s /. chunked.Fio.throughput_mb_s);
  Printf.printf "8-byte peeking (debugger API):    %8.0f MB/s (%.1fx slower)\n"
    peek.Fio.throughput_mb_s
    (bulk.Fio.throughput_mb_s /. peek.Fio.throughput_mb_s);
  section "Ablation — wrap_syscall tax vs request count";
  List.iter
    (fun blocks ->
      let measure with_wrap =
        let env = boot_qemu ~seed:(1200 + blocks) () in
        (if with_wrap then
           ignore
             (attach
                ~config:
                  (Vmsh.Attach.Config.with_transport Vmsh.Devices.Wrap_syscall
                     (Vmsh.Attach.Config.make ()))
                env));
        let h, vmm, g = env in
        let drv = Guest.boot_blk_exn g in
        let rng = H.Rng.create ~seed:13 in
        let j = Fio.job Fio.Seq_read ~block_size:4096 ~total:(blocks * 4096) in
        (Fio.run (Some vmm) ~clock:h.H.Host.clock ~rng (Fio.Guest_raw drv) j)
          .Fio.iops
      in
      let base = measure false and taxed = measure true in
      Printf.printf
        "qemu-blk %4d reqs: %8.1f kIOPS -> %8.1f kIOPS under wrap_syscall \
         (%.1fx)\n"
        blocks (base /. 1000.) (taxed /. 1000.) (base /. taxed))
    [ 256; 512; 1024 ]

(* ------------------------------------------------------------------ *)
(* Latency — per-request distributions from the driver histograms,      *)
(* exported machine-readable to BENCH_results.json                      *)
(* ------------------------------------------------------------------ *)

let run_latency () =
  section
    "Latency — per-request distributions (virtual ns) -> BENCH_results.json";
  (* Mixed request sizes so the distribution is non-degenerate. *)
  let mixed_io vmm drv ~n =
    let sizes = [| 4096; 16384; 65536 |] in
    Vmm.in_guest vmm (fun () ->
        for i = 0 to n - 1 do
          let len = sizes.(i mod Array.length sizes) in
          let sector = i * 17 mod 512 * Virtio.Blk.sectors_per_block in
          ignore (Virtio.Blk.Driver.read drv ~sector ~len);
          if i mod 2 = 0 then
            Virtio.Blk.Driver.write drv ~sector (Bytes.make len 'b')
        done;
        Virtio.Blk.Driver.flush drv)
  in
  let hq, vmmq, gq = boot_qemu ~seed:1401 () in
  mixed_io vmmq (Guest.boot_blk_exn gq) ~n:96;
  let env = boot_qemu ~seed:1402 () in
  let _s = attach env in
  let hv, vmmv, gv = env in
  mixed_io vmmv (Option.get (Guest.vmsh_blk gv)) ~n:96;
  (* throughput/latency over the side-loaded NIC: a closed-loop echo
     workload through the RX/TX virtqueues and the simulated fabric *)
  let envn = boot_qemu ~seed:1403 () in
  let hn, vmmn, gn = envn in
  let netcfg =
    let fabric, port =
      Workloads.Traffic.make_network hn ~mode:Workloads.Traffic.Echo ()
    in
    Vmsh.Attach.Config.with_net { Vmsh.Attach.fabric; port }
      (Vmsh.Attach.Config.make ())
  in
  let _s = attach ~config:netcfg envn in
  let r =
    Workloads.Traffic.run_client vmmn gn ~requests:1000 ~payload_size:64
      ~mode:Workloads.Traffic.Echo ()
  in
  Format.printf "vmsh-net echo: %a@." Workloads.Traffic.pp_result r;
  (* recovery-path latency: attaches under seeded fault schedules vs a
     fault-free baseline, aggregated into a dedicated registry *)
  let fobs = Observe.create ~now:(fun () -> 0.0) () in
  let fm = Observe.metrics fobs in
  let timed_attach ~seed ~plan hist =
    let h = H.Host.create ~seed () in
    (match plan with Some p -> H.Host.arm_faults h p | None -> ());
    let disk = make_disk ~blocks:4096 h in
    let vmm = Vmm.create h ~profile:Profile.qemu ~disk () in
    let _g = Vmm.boot vmm ~version:KV.V5_10 in
    let t0 = Clock.now_ns h.H.Host.clock in
    (match
       Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
         ~fs_image:(vmsh_image ~clock:h.H.Host.clock ~extra_blocks:64 ())
         ~pump:(fun () -> Vmm.run_until_idle vmm)
         ()
     with
    | Error e ->
        (* a schedule hostile enough to exhaust the bounded retries: a
           clean failure, counted rather than timed *)
        Observe.Metrics.incr
          (Observe.Metrics.counter fm "faults.attach_failed");
        Printf.printf "vmsh-faults: attach failed cleanly under seed %d: %s\n"
          seed (Vmsh.Vmsh_error.to_string e)
    | Ok _ ->
        Observe.Metrics.observe
          (Observe.Metrics.histogram fm hist)
          (Clock.now_ns h.H.Host.clock -. t0));
    List.iter
      (fun c ->
        let cname = Observe.Metrics.counter_name c in
        let prefixed p =
          String.length cname >= String.length p
          && String.sub cname 0 (String.length p) = p
        in
        if prefixed "recovery." || prefixed "faults.injected." then
          Observe.Metrics.incr
            ~by:(Observe.Metrics.counter_value c)
            (Observe.Metrics.counter fm cname))
      (Observe.Metrics.counters (Observe.metrics h.H.Host.observe))
  in
  for seed = 0 to 1 do
    timed_attach ~seed:(1500 + seed) ~plan:None "attach.baseline_ns"
  done;
  (* cap 4 injections per class: fewer consecutive faults than the
     6-attempt retry bound, so every attach completes through the
     recovery path rather than aborting *)
  for seed = 0 to 7 do
    timed_attach ~seed:(1510 + seed)
      ~plan:(Some (Faults.create ~seed ~rate:0.3 ~cap:4 ()))
      "faults.attach_ns"
  done;
  let mean name = Observe.Metrics.mean (Observe.Metrics.histogram fm name) in
  Printf.printf
    "vmsh-faults: attach %.2f ms fault-free -> %.2f ms under a 0.3-rate fault \
     schedule\n"
    (mean "attach.baseline_ns" /. 1e6)
    (mean "faults.attach_ns" /. 1e6);
  (* fleet attach scaling: N concurrent sessions over virtual time with
     the shared build-id symbol cache; per-N latency histograms plus the
     cache counters land in their own registry *)
  let flobs = Observe.create ~now:(fun () -> 0.0) () in
  let flm = Observe.metrics flobs in
  let cold_reports = ref [] in
  List.iter
    (fun n ->
      let r =
        match
          Fleet.run
            (Fleet.Config.make ~vms:n () |> Fleet.Config.with_seed 1600)
        with
        | Ok r -> r
        | Error e -> failwith ("vmsh-fleet: " ^ Vmsh.Vmsh_error.to_string e)
      in
      cold_reports := (n, r) :: !cold_reports;
      Fleet.record flm ~label:(Printf.sprintf "n%d" n) r;
      let ok =
        List.length
          (List.filter
             (fun sr -> Result.is_ok sr.Fleet.s_result)
             r.Fleet.r_sessions)
      in
      Printf.printf
        "vmsh-fleet: n=%-3d %d/%d attached, %d slices, cache %d hits; p50 \
         %.2f ms p99 %.2f ms\n"
        n ok n r.Fleet.r_yields r.Fleet.r_cache_hits
        (Fleet.attach_p r 0.50 /. 1e6)
        (Fleet.attach_p r 0.99 /. 1e6))
    [ 1; 8; 64 ];
  (* copy-on-write fork scaling: bake one baseline, stand whole fleets
     up as linked clones, and hold the fork cost against the cold boots
     above. Cold references reuse the vmsh-fleet runs (same seed); the
     largest size is fork-only — 512 cold boots would hold ~16 GiB of
     private RAM images, the very cost the overlay removes. *)
  let fkobs = Observe.create ~now:(fun () -> 0.0) () in
  let fkm = Observe.metrics fkobs in
  let fork_img = Fleet.Baseline.bake ~seed:1650 () in
  List.iter
    (fun (n, r) ->
      if n > 1 then Fleet.record fkm ~label:(Printf.sprintf "cold.n%d" n) r)
    (List.rev !cold_reports);
  Printf.printf
    "vmsh-fork: cold reference at n=512 skipped (unbounded private RAM); \
     cold.n8/cold.n64 reuse the vmsh-fleet runs\n";
  List.iter
    (fun n ->
      let cfg =
        Fleet.Config.make ~vms:n ()
        |> Fleet.Config.with_seed 1600
        |> Fleet.Config.with_boot_source (Fleet.Config.Fork_of fork_img)
      in
      let r =
        match Fleet.run cfg with
        | Ok r -> r
        | Error e -> failwith ("vmsh-fork: " ^ Vmsh.Vmsh_error.to_string e)
      in
      Fleet.record fkm ~label:(Printf.sprintf "fork.n%d" n) r;
      (* overlay occupancy summed over the fleet's sessions *)
      let total name =
        List.fold_left
          (fun acc s ->
            acc
            + Observe.Metrics.counter_value
                (Observe.Metrics.counter
                   (Observe.metrics s.Fleet.s_host.H.Host.observe)
                   name))
          0 r.Fleet.r_sessions
      in
      let copied = total "overlay.pages_copied"
      and shared = total "overlay.pages_shared"
      and resident = total "overlay.resident_bytes" in
      let set name v =
        Observe.Metrics.set_counter (Observe.Metrics.counter fkm name) v
      in
      set (Printf.sprintf "overlay.pages_copied.n%d" n) copied;
      set (Printf.sprintf "overlay.pages_shared.n%d" n) shared;
      set (Printf.sprintf "overlay.resident_bytes.n%d" n) resident;
      Printf.printf
        "vmsh-fork: n=%-3d attach p50 %.2f ms p99 %.2f ms; fork p50 %.2f us \
         p99 %.2f us; %d pages copied / %d shared (%d KiB resident)\n"
        n
        (Fleet.attach_p r 0.50 /. 1e6)
        (Fleet.attach_p r 0.99 /. 1e6)
        (Fleet.fork_p r 0.50 /. 1e3)
        (Fleet.fork_p r 0.99 /. 1e3)
        copied shared (resident / 1024))
    [ 8; 64; 512 ];
  (* transactional detach: attach+detach round-trip latency with the
     journal on, the snapshot oracle re-checked per cycle, and the
     journal's fault-free overhead vs the with_journal-false ablation *)
  let dobs = Observe.create ~now:(fun () -> 0.0) () in
  let dm = Observe.metrics dobs in
  let detach_cycle ~seed ~journal =
    let h = H.Host.create ~seed () in
    let disk = make_disk ~blocks:4096 h in
    let vmm = Vmm.create h ~profile:Profile.qemu ~disk () in
    let _g = Vmm.boot vmm ~version:KV.V5_10 in
    let vm = Vmm.kvm_vm vmm in
    let before = Vmsh.Snapshot.capture vm in
    let t0 = Clock.now_ns h.H.Host.clock in
    match
      Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
        ~fs_image:(vmsh_image ~clock:h.H.Host.clock ~extra_blocks:64 ())
        ~config:
          (Vmsh.Attach.Config.with_journal journal
             (Vmsh.Attach.Config.make ()))
        ~pump:(fun () -> Vmm.run_until_idle vmm)
        ()
    with
    | Error e -> failwith ("vmsh-detach attach: " ^ Vmsh.Vmsh_error.to_string e)
    | Ok s ->
        let late =
          match Vmsh.Attach.journal s with
          | Some j -> Vmsh.Journal.late_writes j
          | None -> []
        in
        (match Vmsh.Attach.detach s with
        | Ok () -> ()
        | Error e ->
            failwith ("vmsh-detach detach: " ^ Vmsh.Vmsh_error.to_string e));
        let elapsed = Clock.now_ns h.H.Host.clock -. t0 in
        if journal then begin
          Observe.Metrics.observe
            (Observe.Metrics.histogram dm "detach.roundtrip_ns")
            elapsed;
          let exclude = Vmsh.Snapshot.dirty_since vm before @ late in
          Observe.Metrics.incr
            (Observe.Metrics.counter dm
               (if
                  Vmsh.Snapshot.check ~before
                    ~after:(Vmsh.Snapshot.capture vm) ~exclude
                then "detach.oracle_pass"
                else "detach.oracle_fail"))
        end;
        elapsed
  in
  let sum = List.fold_left ( +. ) 0.0 in
  let journaled = sum (List.init 4 (fun i -> detach_cycle ~seed:(1700 + i) ~journal:true)) in
  let bare = sum (List.init 4 (fun i -> detach_cycle ~seed:(1700 + i) ~journal:false)) in
  let overhead_permille =
    int_of_float ((journaled -. bare) /. bare *. 1000.)
  in
  Observe.Metrics.set_counter
    (Observe.Metrics.counter dm "detach.journal_overhead_permille")
    (max 0 overhead_permille);
  Printf.printf
    "vmsh-detach: attach+detach %.2f ms journaled vs %.2f ms bare (journal \
     overhead %+.1f%%)\n"
    (journaled /. 4. /. 1e6) (bare /. 4. /. 1e6)
    (float_of_int overhead_permille /. 10.);
  (* flight recorder: per-stage pipeline profile, the recording-overhead
     ablation (always-on recording vs a disabled recorder — virtual
     time, so the expected overhead is exactly zero), and the
     replay-diff oracle folded into counters *)
  let tobs = Observe.create ~now:(fun () -> 0.0) () in
  let tm = Observe.metrics tobs in
  let smoke_attach ~recording ~seed =
    let h = H.Host.create ~seed () in
    Trace.Recorder.set_enabled h.H.Host.recorder recording;
    let disk = make_disk ~blocks:4096 h in
    let vmm = Vmm.create h ~profile:Profile.qemu ~disk () in
    let _g = Vmm.boot vmm ~version:KV.V5_10 in
    let t0 = Clock.now_ns h.H.Host.clock in
    (match
       Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
         ~fs_image:(vmsh_image ~clock:h.H.Host.clock ~extra_blocks:64 ())
         ~pump:(fun () -> Vmm.run_until_idle vmm)
         ()
     with
    | Error e -> failwith ("vmsh-trace attach: " ^ Vmsh.Vmsh_error.to_string e)
    | Ok _ -> ());
    (h, Clock.now_ns h.H.Host.clock -. t0)
  in
  let p50 xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let recorded_hosts, on_ns =
    List.split (List.init 4 (fun i -> smoke_attach ~recording:true ~seed:(1800 + i)))
  in
  let off_ns =
    List.map
      (fun i -> snd (smoke_attach ~recording:false ~seed:(1800 + i)))
      [ 0; 1; 2; 3 ]
  in
  let on50 = p50 on_ns and off50 = p50 off_ns in
  Observe.Metrics.set_counter
    (Observe.Metrics.counter tm "trace.overhead_permille")
    (max 0 (int_of_float ((on50 -. off50) /. off50 *. 1000.)));
  (* the stage profile (stage.attach.*_ns histograms, stage.exit.* and
     stage.pump.* counters) from the recorded attaches *)
  List.iter
    (fun h -> Observe.Metrics.merge_into ~into:tm (Observe.metrics h.H.Host.observe))
    recorded_hosts;
  Observe.Metrics.set_counter
    (Observe.Metrics.counter tm "trace.events")
    (Trace.Recorder.total (List.hd recorded_hosts).H.Host.recorder);
  (* replay-diff oracle: two independent executions of the same recipe
     must produce identical event streams and guest digests *)
  (match
     (Replay.execute (Replay.Attach { seed = 1850 }),
      Replay.execute (Replay.Attach { seed = 1850 }))
   with
  | Ok a, Ok b ->
      let clean =
        Trace.diff a.Replay.run_events b.Replay.run_events = []
        && a.Replay.run_digest = b.Replay.run_digest
      in
      Observe.Metrics.set_counter
        (Observe.Metrics.counter tm
           (if clean then "trace.replay_match" else "trace.replay_mismatch"))
        1
  | _ ->
      Observe.Metrics.set_counter
        (Observe.Metrics.counter tm "trace.replay_mismatch")
        1);
  Printf.printf
    "vmsh-trace: attach p50 %.2f ms recording vs %.2f ms disabled (overhead \
     %d permille); replay-diff %s\n"
    (on50 /. 1e6) (off50 /. 1e6)
    (Observe.Metrics.counter_value
       (Observe.Metrics.counter tm "trace.overhead_permille"))
    (if
       Observe.Metrics.counter_value
         (Observe.Metrics.counter tm "trace.replay_match")
       = 1
     then "clean"
     else "DIVERGED");
  (* the job service under sustained open-loop load: a rate sweep to
     locate the saturation knee, plus the calibrated-point run whose
     latency distribution and admission counters the CI gates check *)
  let sobs = Observe.create ~now:(fun () -> 0.0) () in
  let sm = Observe.metrics sobs in
  let module SD = Service.Dispatch in
  let serve_at ~rate ~jobs =
    let r =
      SD.run { SD.default_config with SD.jobs; rate; seed = 2000; ram_mb = 16 }
    in
    let last_submit =
      Array.fold_left
        (fun acc jr ->
          if Float.is_finite jr.SD.jr_submit_ns then
            Float.max acc jr.SD.jr_submit_ns
          else acc)
        0. r.SD.rp_records
    in
    (* the service kept up if the backlog drained with the arrivals:
       the last completion lands within 5% of the last submission *)
    let kept_up = r.SD.rp_makespan_ns <= 1.05 *. last_submit in
    (r, kept_up)
  in
  let knee = ref 0. in
  List.iter
    (fun rate ->
      let r, kept_up = serve_at ~rate ~jobs:150 in
      if kept_up then knee := Float.max !knee rate;
      let h =
        Observe.Metrics.histogram sm (Printf.sprintf "serve.e2e_ns.r%.0f" rate)
      in
      Array.iter
        (fun jr ->
          if Float.is_finite jr.SD.jr_start_ns then
            Observe.Metrics.observe h (jr.SD.jr_end_ns -. jr.SD.jr_submit_ns))
        r.SD.rp_records;
      Printf.printf
        "vmsh-serve: rate %5.0f/s %s (completed %d, p99 %.2f ms, makespan \
         %.1f ms)\n"
        rate
        (if kept_up then "kept up" else "SATURATED")
        (SD.completed r)
        (Observe.Metrics.percentile h 99.0 /. 1e6)
        (r.SD.rp_makespan_ns /. 1e6))
    [ 400.; 800.; 1200.; 1600. ];
  Observe.Metrics.set_counter
    (Observe.Metrics.counter sm "serve.knee_rps")
    (int_of_float !knee);
  (* the calibrated point: the default tenant set at the default 600/s —
     below the knee, hot tenant over its bucket. Its full service
     registry (service.e2e_ns, queue-depth gauge, per-tenant shed
     counters, merged per-stage aggregates) IS the scenario export. *)
  let rc, _ = serve_at ~rate:600. ~jobs:200 in
  Observe.Metrics.merge_into ~into:sm
    (Observe.metrics rc.SD.rp_host.H.Host.observe);
  Observe.Metrics.set_counter
    (Observe.Metrics.counter sm "serve.calibrated_rps")
    600;
  Printf.printf
    "vmsh-serve: knee %.0f/s; calibrated 600/s: %d/%d completed, e2e p50 \
     %.2f ms p99 %.2f ms p999 %.2f ms\n"
    !knee (SD.completed rc)
    (Array.length rc.SD.rp_records)
    (Observe.Metrics.percentile
       (Observe.Metrics.histogram sm "service.e2e_ns")
       50.0
    /. 1e6)
    (Observe.Metrics.percentile
       (Observe.Metrics.histogram sm "service.e2e_ns")
       99.0
    /. 1e6)
    (Observe.Metrics.percentile
       (Observe.Metrics.histogram sm "service.e2e_ns")
       99.9
    /. 1e6);
  (* trace-mutation fuzzing: a short real campaign over a recorded
     attach. The engine's bookkeeping (mutation application, protocol
     validation, n-gram coverage hashing, corpus plumbing) must stay
     within 5% of the pure attack-execution time — the fuzzer's cost
     is the replays, not the harness around them. *)
  let fzobs = Observe.create ~now:(fun () -> 0.0) () in
  let fzm = Observe.metrics fzobs in
  let fuzz_spec = Replay.Attach { seed = 1900 } in
  let fuzz_base =
    match Replay.execute fuzz_spec with
    | Ok r -> r.Replay.run_events
    | Error e -> failwith ("vmsh-fuzz: " ^ e)
  in
  let fuzz_exec_wall = ref 0.0 in
  let fuzz_replay_hist = Observe.Metrics.histogram fzm "fuzz.replay_ns" in
  let fuzz_execute _mutant muts =
    let t0 = Unix.gettimeofday () in
    let plan = Faults.create ~seed:0 ~rate:0.0 () in
    Faults.set_script plan (Fuzz.script_of_mutations fuzz_base muts);
    let atk = Replay.execute_attack ~plan fuzz_spec in
    fuzz_exec_wall := !fuzz_exec_wall +. (Unix.gettimeofday () -. t0);
    Observe.Metrics.observe fuzz_replay_hist atk.Replay.at_virtual_ns;
    atk.Replay.at_verdict
  in
  let fuzz_t0 = Unix.gettimeofday () in
  let fuzz_rep =
    Fuzz.run_campaign ~base:fuzz_base ~seed:9 ~rounds:8 ~execute:fuzz_execute
      ()
  in
  let fuzz_total = Unix.gettimeofday () -. fuzz_t0 in
  let fuzz_bookkeeping = Float.max 0. (fuzz_total -. !fuzz_exec_wall) in
  let fuzz_overhead =
    int_of_float
      (fuzz_bookkeeping /. Float.max 1e-9 !fuzz_exec_wall *. 1000.)
  in
  let fz_set name v =
    Observe.Metrics.set_counter (Observe.Metrics.counter fzm name) v
  in
  fz_set "fuzz.mutants" fuzz_rep.Fuzz.fz_mutants_run;
  fz_set "fuzz.bugs" fuzz_rep.Fuzz.fz_bugs;
  fz_set "fuzz.corpus.kept" fuzz_rep.Fuzz.fz_corpus_kept;
  fz_set "fuzz.corpus.ngrams" (List.length fuzz_rep.Fuzz.fz_coverage);
  fz_set "fuzz.corpus_overhead_permille" fuzz_overhead;
  Printf.printf
    "vmsh-fuzz: %d mutants at %.1f/s wall (%d survived, %d clean aborts, %d \
     bugs); corpus bookkeeping %.2f ms vs %.0f ms of replays (%d permille)\n"
    fuzz_rep.Fuzz.fz_mutants_run
    (float_of_int fuzz_rep.Fuzz.fz_mutants_run /. Float.max 1e-9 fuzz_total)
    fuzz_rep.Fuzz.fz_survived fuzz_rep.Fuzz.fz_clean_aborts
    fuzz_rep.Fuzz.fz_bugs (fuzz_bookkeeping *. 1e3) (!fuzz_exec_wall *. 1e3)
    fuzz_overhead;
  (* adversarial-guest attach: the latency a hostile guest costs the
     attach path, and what the hardening itself costs a clean one. Two
     distributions (clean attach vs attach under descriptor chaos — the
     noisiest class that still completes) plus the ablation the 5% gate
     holds: use-time symbol revalidation on vs off on a clean guest. *)
  let hobs = Observe.create ~now:(fun () -> 0.0) () in
  let hm = Observe.metrics hobs in
  let hostile_attach ?hostile ?(revalidate = true) ~seed () =
    let h = H.Host.create ~seed () in
    let disk = make_disk ~blocks:4096 h in
    let vmm = Vmm.create h ~profile:Profile.qemu ~disk () in
    let _g = Vmm.boot vmm ~version:KV.V5_10 in
    let config =
      let c =
        Vmsh.Attach.Config.with_revalidate revalidate
          (Vmsh.Attach.Config.make ())
      in
      match hostile with
      | None -> c
      | Some cls ->
          let plan = Faults.create ~seed ~rate:0.0 () in
          let eng = Hostile.create ~seed ~cls vmm in
          Faults.set_on_yield plan (Some (fun _ -> Hostile.step eng));
          Vmsh.Attach.Config.with_faults plan c
    in
    let t0 = Clock.now_ns h.H.Host.clock in
    let outcome =
      Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
        ~fs_image:(vmsh_image ~clock:h.H.Host.clock ~extra_blocks:64 ())
        ~config
        ~pump:(fun () -> Vmm.run_until_idle vmm)
        ()
    in
    (outcome, Clock.now_ns h.H.Host.clock -. t0)
  in
  let h_clean = Observe.Metrics.histogram hm "hostile.clean_attach_ns" in
  let h_attacked = Observe.Metrics.histogram hm "hostile.attach_ns" in
  let hostile_survived = ref 0 in
  let samples = 5 in
  let clean_ns =
    List.init samples (fun i ->
        let outcome, dt = hostile_attach ~seed:(2100 + i) () in
        (match outcome with
        | Ok _ -> ()
        | Error e ->
            failwith ("vmsh-hostile clean: " ^ Vmsh.Vmsh_error.to_string e));
        Observe.Metrics.observe h_clean dt;
        dt)
  in
  List.iter
    (fun i ->
      let outcome, dt =
        hostile_attach ~hostile:Hostile.Desc_chaos ~seed:(2100 + i) ()
      in
      (match outcome with
      | Ok _ -> incr hostile_survived
      | Error _ ->
          (* a typed abort is a clean, acceptable outcome under attack;
             an escaped exception fails the bench by propagating *)
          ());
      Observe.Metrics.observe h_attacked dt)
    [ 0; 1; 2; 3; 4 ];
  let bare_ns =
    List.init samples (fun i ->
        snd (hostile_attach ~revalidate:false ~seed:(2100 + i) ()))
  in
  let clean50 = p50 clean_ns and bare50 = p50 bare_ns in
  let hardening_overhead =
    max 0 (int_of_float ((clean50 -. bare50) /. bare50 *. 1000.))
  in
  let hm_set name v =
    Observe.Metrics.set_counter (Observe.Metrics.counter hm name) v
  in
  hm_set "hostile.overhead_permille" hardening_overhead;
  hm_set "hostile.survived" !hostile_survived;
  Printf.printf
    "vmsh-hostile: clean attach p50 %.2f ms vs %.2f ms under desc-chaos \
     (%d/%d survived); hardening %.2f ms hardened vs %.2f ms ablated (%d \
     permille)\n"
    (clean50 /. 1e6)
    (Observe.Metrics.percentile h_attacked 50. /. 1e6)
    !hostile_survived samples (clean50 /. 1e6) (bare50 /. 1e6)
    hardening_overhead;
  let scenarios =
    [
      ("qemu-blk", hq.H.Host.observe); ("vmsh-blk", hv.H.Host.observe);
      ("vmsh-net", hn.H.Host.observe); ("vmsh-faults", fobs);
      ("vmsh-fleet", flobs); ("vmsh-fork", fkobs); ("vmsh-detach", dobs);
      ("vmsh-trace", tobs);
      ("vmsh-serve", sobs); ("vmsh-fuzz", fzobs); ("vmsh-hostile", hobs);
    ]
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc
    (Printf.sprintf "{\"scenarios\": {%s}}\n"
       (String.concat ", "
          (List.map
             (fun (label, obs) ->
               Printf.sprintf "%S: %s" label (Observe.Export.metrics_json obs))
             scenarios)));
  close_out oc;
  List.iter
    (fun (label, obs) ->
      List.iter
        (fun hist ->
          let p q = Observe.Metrics.percentile hist q in
          Printf.printf
            "%-11s %-26s n=%4d  p50 %10.0f  p95 %10.0f  p99 %10.0f ns\n" label
            (Observe.Metrics.histogram_name hist)
            (Observe.Metrics.count hist) (p 50.0) (p 95.0) (p 99.0))
        (Observe.Metrics.histograms (Observe.metrics obs)))
    scenarios;
  Printf.printf "written: BENCH_results.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks (wall-clock cost of simulator hot paths;    *)
(* one Test.make per experiment family)                                 *)
(* ------------------------------------------------------------------ *)

let run_bechamel () =
  section "Bechamel — wall-clock microbenchmarks of the harness itself";
  let open Bechamel in
  let test_e1 =
    Test.make ~name:"e1-simplefs-write-file"
      (Staged.stage (fun () ->
           let b = Blockdev.Backend.create ~blocks:256 () in
           let fs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev b) ()) in
           ignore (Sfs.write_file fs "/f" (Bytes.make 4096 'x'))))
  in
  let test_e23 =
    let env = boot_qemu ~seed:1301 ~blocks:4096 () in
    let h, _, g = env in
    Test.make ~name:"e2e3-symbol-analysis"
      (Staged.stage (fun () ->
           let vmsh = H.Host.spawn h ~name:"bench-vmsh" ~uid:1000 () in
           let slots =
             List.map
               (fun (s : Kvm.Vm.memslot) ->
                 { Vmsh.Hyp_mem.gpa = s.Kvm.Vm.gpa; size = s.size; hva = s.hva })
               (Kvm.Vm.memslots (Guest.vm g))
           in
           let mem =
             Vmsh.Hyp_mem.create h ~vmsh
               ~hypervisor_pid:(Vmm.pid (let _, v, _ = env in v))
               ~slots ()
           in
           let cr3 =
             (Kvm.Vm.vcpu_regs (List.hd (Kvm.Vm.vcpus (Guest.vm g))))
               .X86.Regs.cr3
           in
           match Vmsh.Symbol_analysis.analyze mem ~cr3 with
           | Ok _ -> ()
           | Error e -> failwith e))
  in
  let test_e5 =
    let env = boot_qemu ~seed:1302 ~blocks:4096 () in
    let _, vmm, g = env in
    let drv = Guest.boot_blk_exn g in
    Test.make ~name:"e5-virtio-blk-roundtrip"
      (Staged.stage (fun () ->
           Vmm.in_guest vmm (fun () ->
               ignore (Virtio.Blk.Driver.read drv ~sector:0 ~len:4096))))
  in
  let test_e7 =
    Test.make ~name:"e7-image-pack"
      (Staged.stage (fun () ->
           ignore (Blockdev.Image.pack [ Blockdev.Image.file "/bin/tool" 65536 ])))
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) () in
    let raw = Benchmark.all cfg [ instance ] test in
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-30s %12.0f ns/op (wall)\n" name est
          | _ -> Printf.printf "%-30s (no estimate)\n" name)
        results)
    [ test_e1; test_e23; test_e5; test_e7 ]

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("e1", run_e1);
    ("e4", run_e4);
    ("e5", run_e5);
    ("e6", run_e6);
    ("e7", run_e7);
    ("e8", run_e8);
    ("e9", run_e9);
    ("e10", run_e10);
    ("ablation", run_ablation);
    ("latency", run_latency);
    ("bechamel", run_bechamel);
  ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--list" args then
    List.iter (fun (n, _) -> print_endline n) experiments
  else begin
    let only =
      match
        List.find_map
          (fun a ->
            if String.length a > 7 && String.sub a 0 7 = "--only=" then
              Some (String.sub a 7 (String.length a - 7))
            else None)
          args
      with
      | Some spec -> String.split_on_char ',' spec
      | None ->
          if List.mem "--only" args then
            match args with
            | _ :: "--only" :: spec :: _ -> String.split_on_char ',' spec
            | _ -> List.map fst experiments
          else List.map fst experiments
    in
    List.iter
      (fun (name, f) ->
        if List.mem name only then begin
          let t0 = Unix.gettimeofday () in
          f ();
          Printf.printf "[%s finished in %.1fs wall]\n%!" name
            (Unix.gettimeofday () -. t0)
        end)
      experiments
  end
