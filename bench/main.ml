(* The evaluation harness: regenerates every table and figure of the
   paper (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
   for recorded paper-vs-measured results).

     dune exec bench/main.exe             -- everything
     dune exec bench/main.exe -- --only e5,e6
     dune exec bench/main.exe -- --list

   Wall-clock here is simulation time; all reported performance numbers
   come from the virtual clock. *)

module H = Hostos
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
      match
        Usecases.Serverless.debug_shell stack lam (fun session ->
            let out = Vmsh.Attach.console_roundtrip session "hostname" in
            Printf.printf "debug shell reports instance: %s" out;
            let reclaimed = Usecases.Serverless.scale_down stack in
            Printf.printf
              "scale-down reclaimed %d instances; debugged instance pinned: %b\n"
              reclaimed
              (not lam.Usecases.Serverless.reclaimed);
            Ok ())
      with
      | Ok () -> ()
      | Error v ->
          Printf.printf "FAILED debug shell: %s\n" (Faults.Abort.to_string v))

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
  | Error v -> Printf.printf "FAILED: %s\n" (Faults.Abort.to_string v)
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
  | Error v -> Printf.printf "FAILED: %s\n" (Faults.Abort.to_string v)
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
  (* the uncached symbol analysis of E2/E3, one layer per test: the
     page-table walk, the image copy, the strings scan, the table scan,
     and the noise fill that builds the 1.25 MiB kernel image at boot;
     then the ksymtab table a 5.10 boot encodes for its 194 exports *)
  let tests_e23 =
    let h, vmm, g = boot_qemu ~seed:1301 ~blocks:4096 () in
    let vmsh = H.Host.spawn h ~name:"bench-vmsh" ~uid:1000 () in
    let mem =
      Vmsh.Hyp_mem.create h ~vmsh ~hypervisor_pid:(Vmm.pid vmm)
        ~slots:(Kvm.Vm.memslots (Guest.vm g)) ()
    in
    let cr3 =
      (Kvm.Vm.vcpu_regs (List.hd (Kvm.Vm.vcpus (Guest.vm g)))).X86.Regs.cr3
    in
    let ok = function Ok v -> v | Error e -> failwith e in
    let kbase, len = ok (Vmsh.Symbol_analysis.find_kernel_base mem ~cr3) in
    let img = Option.get (Vmsh.Hyp_mem.read_virt mem ~cr3 ~va:kbase ~len) in
    let region = ok (Vmsh.Symbol_analysis.find_strings_region img) in
    (* a digest of the guest materialises the image's generated pages
       here, once, so the image-copy stage times the copy and not the
       noise generator *)
    ignore (Vmsh.Snapshot.digest (Vmsh.Snapshot.capture (Guest.vm g)));
    (* one buffer for every image copy, so the bench times the reads
       and not a fresh 2 MiB allocation per op *)
    let copy = Bytes.create len in
    (* the guest kernel image's content: 1.25 MiB of a 2 MiB mapping *)
    let noise = Bytes.create 0x14_0000 in
    let rng = H.Rng.create ~seed:1301 in
    let syms =
      List.map
        (fun (name, va) -> { Linux_guest.Ksymtab.name; va })
        (Guest.exports g)
    in
    let _, name_offsets = Linux_guest.Ksymtab.build_strings syms in
    let strings_va, table_va =
      match Guest.scanner_target_regions g with
      | [ (_, strings_va, _); (_, table_va, _) ] -> (strings_va, table_va)
      | _ -> failwith "unexpected ksymtab regions"
    in
    let stage name f = Test.make ~name (Staged.stage f) in
    [
      stage "e2e3-page-table-walk" (fun () ->
          ignore (Vmsh.Symbol_analysis.find_kernel_base mem ~cr3));
      stage "e2e3-image-copy" (fun () ->
          ignore
            (Vmsh.Hyp_mem.read_virt_into mem ~cr3 ~va:kbase copy ~off:0 ~len));
      stage "e2e3-strings-scan" (fun () ->
          ignore (Vmsh.Symbol_analysis.find_strings_region img));
      stage "e2e3-table-scan" (fun () ->
          ignore (Vmsh.Symbol_analysis.find_tables img ~kbase ~region));
      stage "e2e3-noise-fill" (fun () -> H.Rng.fill_bytes rng noise);
      stage "boot-ksymtab-build" (fun () ->
          ignore
            (Linux_guest.Ksymtab.build_table (KV.ksymtab_layout KV.V5_10)
               ~syms ~strings_va ~table_va ~name_offsets));
    ]
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
  (* the write SimpleFS makes to fill each fresh block: 4 KiB of zeros
     onto an untouched page of a zero-base buffer, silent every time *)
  let test_zero_block =
    let m = H.Mem.create (2 * 4096) and zeros = Bytes.make 4096 '\000' in
    Test.make ~name:"mem-zero-block-write"
      (Staged.stage (fun () -> H.Mem.write_bytes m 4096 zeros))
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
    ((test_e1 :: tests_e23) @ [ test_e5; test_e7; test_zero_block ])

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
