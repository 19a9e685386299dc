(* End-to-end VMSH attach tests: the paper's core claims as unit tests.
   E2 (hypervisor generality), E3 (kernel generality), plus the failure
   modes Table 1 documents. *)

module H = Hostos
module Sfs = Blockdev.Simplefs
module Guest = Linux_guest.Guest
module KV = Linux_guest.Kernel_version
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let populate fs files =
  List.iter
    (fun (p, c) ->
      (match Filename.dirname p with
      | "/" -> ()
      | dir -> ignore (Sfs.mkdir_p fs dir));
      match Sfs.write_file fs p (Bytes.of_string c) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "populate %s: %a" p H.Errno.pp e)
    files

(* Root disk for the guest: must contain /dev for the exec drop. *)
let make_root_disk ?(blocks = 2048) ?(extra = []) h =
  let backend = Blockdev.Backend.create ~clock:h.H.Host.clock ~blocks () in
  let fs =
    match Sfs.mkfs (Blockdev.Backend.dev backend) () with
    | Ok fs -> fs
    | Error _ -> Alcotest.fail "mkfs"
  in
  ignore (Sfs.mkdir_p fs "/dev");
  populate fs
    ([
       ("/etc/hostname", "target-vm\n");
       ("/etc/shadow", "root:$6$old$deadbeef:19000:0:99999:7:::\n");
       ("/bin/app", "the application\n");
     ]
    @ extra);
  Sfs.sync fs;
  backend

(* VMSH's tools image. *)
let make_fs_image () =
  let manifest =
    [
      Blockdev.Image.file "/bin/busybox" 820000;
      Blockdev.Image.file ~content:"#!/bin/sh\necho rescue\n" "/bin/rescue" 23;
      Blockdev.Image.file ~content:"tools image marker\n" "/etc/vmsh-release" 19;
    ]
  in
  match Blockdev.Image.pack manifest with
  | Ok (backend, _) -> backend
  | Error e -> Alcotest.failf "image pack: %a" H.Errno.pp e

let setup ?(profile = Profile.qemu) ?(version = KV.V5_10) ?(seed = 23)
    ?(host = ignore) ?root_blocks ?disable_seccomp ?extra_root () =
  let h = H.Host.create ~seed () in
  host h;
  let disk = make_root_disk ?blocks:root_blocks ?extra:extra_root h in
  let vmm = Vmm.create h ~profile ~disk ?disable_seccomp () in
  let g = Vmm.boot vmm ~version in
  check cbool "booted" true (Guest.crashed g = None);
  (h, vmm, g)

let do_attach ?config (h, vmm, _g) =
  Result.map_error Vmsh.Vmsh_error.to_string
    (Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
       ~fs_image:(make_fs_image ()) ?config
       ~pump:(fun () -> Vmm.run_until_idle vmm)
       ())

(* The rig the attach cost bounds share: a qemu guest on Linux 5.10
   with a 4096-block root disk. [host] adjusts the new host before
   anything boots. *)
let rig ?host seed = setup ?host ~seed ~root_blocks:4096 ()

(* Attach to a rig with a small tools image (packed against the host
   clock before the attach starts); returns the session and the
   attach's virtual ns. *)
let timed_attach (h, vmm, _) =
  let clock = h.H.Host.clock in
  let fs_image =
    match
      Blockdev.Image.pack ~clock ~extra_blocks:64
        [ Blockdev.Image.file "/bin/busybox" 600000 ]
    with
    | Ok (backend, _) -> backend
    | Error e -> Alcotest.failf "image pack: %a" H.Errno.pp e
  in
  let t0 = H.Clock.now_ns clock in
  match
    Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm) ~fs_image
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  with
  | Ok s -> (s, H.Clock.now_ns clock -. t0)
  | Error e -> Alcotest.failf "attach: %s" (Vmsh.Vmsh_error.to_string e)

let test_attach_ioregionfd () =
  let env = setup () in
  match do_attach env with
  | Error e -> Alcotest.failf "attach failed: %s" e
  | Ok session ->
      check cint "library reported done" Vmsh.Klib_builder.status_done
        (Vmsh.Attach.status session);
      let _, _, g = env in
      check cbool "vmsh-blk registered in guest" true (Guest.vmsh_blk g <> None);
      check cbool "vmsh-console registered" true (Guest.vmsh_console g <> None);
      check cbool "guest did not crash" true (Guest.crashed g = None)

let test_attach_wrap_syscall () =
  let env = setup () in
  let config =
    Vmsh.Attach.Config.with_transport Vmsh.Devices.Wrap_syscall
      (Vmsh.Attach.Config.make ())
  in
  match do_attach ~config env with
  | Error e -> Alcotest.failf "attach failed: %s" e
  | Ok session ->
      check cint "done" Vmsh.Klib_builder.status_done (Vmsh.Attach.status session);
      (match Vmsh.Attach.detach session with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detach: %s" (Vmsh.Vmsh_error.to_string e));
      let _, _, g = env in
      check cbool "no crash" true (Guest.crashed g = None)

let test_shell_roundtrip () =
  let env = setup () in
  match do_attach env with
  | Error e -> Alcotest.failf "attach failed: %s" e
  | Ok session ->
      let out = Vmsh.Attach.console_recv session in
      check cbool "banner seen" true
        (String.length out > 0
        &&
        try
          ignore (Str.search_forward (Str.regexp_string "vmsh shell") out 0);
          true
        with Not_found -> false)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_shell_commands () =
  let env = setup () in
  match do_attach env with
  | Error e -> Alcotest.failf "attach failed: %s" e
  | Ok session ->
      (* ls / shows the *image* root, not the guest's *)
      let out = Vmsh.Attach.console_roundtrip session "ls /" in
      check cbool "image /bin listed" true (contains out "bin");
      let out = Vmsh.Attach.console_roundtrip session "cat /etc/vmsh-release" in
      check cbool "image file readable" true (contains out "tools image marker");
      (* the original guest is under /var/lib/vmsh *)
      let out =
        Vmsh.Attach.console_roundtrip session "cat /var/lib/vmsh/etc/hostname"
      in
      check cbool "guest fs reachable under overlay prefix" true
        (contains out "target-vm");
      let out = Vmsh.Attach.console_roundtrip session "hostname" in
      check cbool "hostname command" true (contains out "target-vm");
      let out = Vmsh.Attach.console_roundtrip session "ps" in
      check cbool "ps lists init" true (contains out "init")

let test_shell_write_protects_guest () =
  let env = setup () in
  match do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      (* writing to / goes to the image, not the guest root *)
      ignore (Vmsh.Attach.console_roundtrip session "write /scratch.txt hello");
      let _, _, g = env in
      check cbool "guest root untouched" false
        (Result.is_ok
           (match Guest.rootfs g with
           | Some fs -> Sfs.lookup fs "/scratch.txt"
           | None -> Error H.Errno.ENOENT))

let test_generality_all_hypervisors () =
  (* Table 1: QEMU, kvmtool, Firecracker (seccomp off), crosvm attach;
     Cloud Hypervisor is refused. *)
  List.iter
    (fun (profile, disable_seccomp, expect_ok) ->
      let env = setup ~profile ?disable_seccomp () in
      match (do_attach env, expect_ok) with
      | Ok _, true -> ()
      | Error e, true ->
          Alcotest.failf "%s should attach: %s" profile.Profile.prof_name e
      | Ok _, false ->
          Alcotest.failf "%s should be unsupported" profile.Profile.prof_name
      | Error _, false -> ())
    [
      (Profile.qemu, None, true);
      (Profile.kvmtool, None, true);
      (Profile.crosvm, None, true);
      (Profile.firecracker, Some true, true);
      (Profile.cloud_hypervisor, None, false);
    ]

let test_firecracker_seccomp_blocks_attach () =
  (* with the stock filters on, syscall injection dies on seccomp *)
  let env = setup ~profile:Profile.firecracker ~disable_seccomp:false () in
  match do_attach env with
  | Ok _ -> Alcotest.fail "attach should fail under seccomp"
  | Error e ->
      check cbool "mentions injection" true
        (contains e "injected" || contains e "injection")

let test_firecracker_seccomp_heuristic () =
  (* the future-work heuristic: with stock filters on, probing the
     hypervisor's threads finds the API thread (laxer filter) and the
     attach completes without disabling seccomp *)
  let env = setup ~profile:Profile.firecracker ~disable_seccomp:false () in
  let config =
    Vmsh.Attach.Config.with_seccomp_heuristic true (Vmsh.Attach.Config.make ())
  in
  match do_attach ~config env with
  | Ok session ->
      check cint "done" Vmsh.Klib_builder.status_done (Vmsh.Attach.status session);
      let _, _, g = env in
      check cbool "no crash" true (Guest.crashed g = None)
  | Error e -> Alcotest.failf "heuristic attach failed: %s" e

let test_cloud_hypervisor_pci_transport () =
  (* the other future-work item: the VirtIO-over-PCI transport (config
     spaces + MSI-routed interrupts) attaches to Cloud Hypervisor's
     MSI-X-only irqchip, which refuses the MMIO transport *)
  let env = setup ~profile:Profile.cloud_hypervisor () in
  (match do_attach env with
  | Ok _ -> Alcotest.fail "MMIO transport should be refused"
  | Error _ -> ());
  let env = setup ~profile:Profile.cloud_hypervisor ~seed:29 () in
  let config = Vmsh.Attach.Config.with_pci true (Vmsh.Attach.Config.make ()) in
  match do_attach ~config env with
  | Error e -> Alcotest.failf "PCI attach failed: %s" e
  | Ok session ->
      check cint "done" Vmsh.Klib_builder.status_done (Vmsh.Attach.status session);
      let _, _, g = env in
      check cbool "devices registered over PCI" true
        (Guest.vmsh_blk g <> None && Guest.vmsh_console g <> None);
      check cbool "no crash" true (Guest.crashed g = None);
      let out = Vmsh.Attach.console_roundtrip session "dmesg" in
      check cbool "guest log mentions virtio-pci" true (contains out "virtio-pci")

let test_pci_transport_on_qemu_too () =
  (* the PCI transport is not Cloud-Hypervisor-specific *)
  let env = setup ~seed:31 () in
  let config = Vmsh.Attach.Config.with_pci true (Vmsh.Attach.Config.make ()) in
  match do_attach ~config env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      let out = Vmsh.Attach.console_roundtrip session "hostname" in
      check cbool "shell over pci" true (contains out "target-vm")

let test_generality_all_kernels () =
  List.iter
    (fun version ->
      let env = setup ~version ~seed:(37 + Hashtbl.hash version) () in
      match do_attach env with
      | Ok session ->
          let anal = Vmsh.Attach.analysis session in
          check cbool
            (KV.to_string version ^ " version detected")
            true
            (KV.equal anal.Vmsh.Symbol_analysis.version version)
      | Error e -> Alcotest.failf "attach to %s: %s" (KV.to_string version) e)
    KV.all_lts

let test_symbol_analysis_matches_ground_truth () =
  let env = setup () in
  match do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      let _, _, g = env in
      let anal = Vmsh.Attach.analysis session in
      check cint "kernel base recovered" (Guest.kernel_virt g)
        anal.Vmsh.Symbol_analysis.kernel_base;
      (* every ground-truth export was recovered at the right address *)
      let truth = Guest.exports g in
      check cint "all exports recovered" (List.length truth)
        (List.length anal.Vmsh.Symbol_analysis.symbols);
      List.iter
        (fun (name, va) ->
          match Vmsh.Symbol_analysis.resolve anal name with
          | Some va' when va' = va -> ()
          | Some va' ->
              Alcotest.failf "%s: recovered 0x%x, truth 0x%x" name va' va
          | None -> Alcotest.failf "%s not recovered" name)
        truth

let test_wrong_struct_version_fails_cleanly () =
  (* a 5.10 guest whose banner claims 4.19 gets a library built for
     4.19: version-1 device descriptors, which the kernel's tag check
     must refuse. The refusal surfaces as the first registration's
     status, not as a guest crash *)
  let h, vmm, g = setup () in
  check cint "4.19 descriptors are version 1" 1 (KV.virtio_desc_version KV.V4_19);
  check cint "5.10 expects version 2" 2 (KV.virtio_desc_version KV.V5_10);
  Guest.vwrite g
    ~va:(List.assoc "linux_banner" (Guest.exports g))
    (Bytes.of_string (KV.banner KV.V4_19));
  (match
     Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
       ~fs_image:(make_fs_image ())
       ~pump:(fun () -> Vmm.run_until_idle vmm)
       ()
   with
  | Error (Vmsh.Vmsh_error.Guest_error s) ->
      check cint "console registration status" 0x81 s
  | Error e ->
      Alcotest.failf "wrong failure: %s" (Vmsh.Vmsh_error.to_string e)
  | Ok _ -> Alcotest.fail "a mis-versioned library attached");
  check cbool "tag check logged" true
    (List.mem "virtio_mmio: bad device descriptor version 1 (kernel expects 2)"
       (Guest.dmesg g));
  check cbool "guest alive" true (Guest.crashed g = None)

let test_attach_leaves_existing_guest_files_intact () =
  let env = setup () in
  let _, vmm, g = env in
  match do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok _ ->
      let content =
        Vmm.in_guest vmm (fun () ->
            Guest.file_read g ~ns:(Guest.root_ns g) "/bin/app")
      in
      (match content with
      | Ok b -> check cstr "app intact" "the application\n" (Bytes.to_string b)
      | Error e -> Alcotest.failf "read: %a" H.Errno.pp e)

let test_ninep_side_loaded_share () =
  (* the attach also hot-plugs a virtio-9p share of the tools image:
     read a known file through the side-loaded driver's virtqueue and
     check the per-request latency histograms were recorded — and,
     with tracing on, the instants every driver meter writes *)
  let env = setup () in
  let h, vmm, g = env in
  Observe.enable h.H.Host.observe;
  match do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok _ -> (
      let drv =
        match Guest.vmsh_ninep g with
        | Some d -> d
        | None -> Alcotest.fail "no vmsh-9p driver registered"
      in
      let size =
        Vmm.in_guest vmm (fun () ->
            Virtio.Ninep.Driver.stat_size drv ~path:"/etc/vmsh-release")
      in
      (match size with
      | Ok n -> check cint "stat size" (String.length "tools image marker\n") n
      | Error e -> Alcotest.failf "stat: %a" H.Errno.pp e);
      match
        Vmm.in_guest vmm (fun () ->
            Virtio.Ninep.Driver.read drv ~path:"/etc/vmsh-release" ~off:0
              ~len:64)
      with
      | Error e -> Alcotest.failf "read: %a" H.Errno.pp e
      | Ok b ->
          check cstr "tools image served over 9p" "tools image marker\n"
            (Bytes.to_string b);
          let mx = Observe.metrics h.H.Host.observe in
          check cbool "read latency histogram recorded" true
            (Observe.Metrics.count
               (Observe.Metrics.histogram mx "vmsh-9p.read_ns")
            >= 1);
          check cbool "stat latency histogram recorded" true
            (Observe.Metrics.count
               (Observe.Metrics.histogram mx "vmsh-9p.stat_ns")
            >= 1);
          check cbool "host processed 9p requests" true
            (Observe.Metrics.counter_value
               (Observe.Metrics.counter mx "vmsh-9p.requests")
            >= 2);
          (* every driver meter under its pinned name (perf/rig.ml
             reads vmsh-console.tx_ns) *)
          List.iter
            (fun name ->
              check cbool (name ^ " recorded") true
                (Observe.Metrics.count (Observe.Metrics.histogram mx name)
                >= 1))
            [ "vmsh-blk.read_ns"; "guest-blk.read_ns"; "vmsh-console.tx_ns" ];
          let instant_args kind =
            match
              List.rev
                (List.filter_map
                   (fun (phase, (ev : Trace.event)) ->
                     if phase = Trace.Instant && ev.kind = kind then
                       Some (List.map fst ev.args)
                     else None)
                   (Trace.Recorder.stream
                      (Observe.recorder h.H.Host.observe)))
            with
            | args :: _ -> args
            | [] -> Alcotest.failf "no %s instant" kind
          in
          check (Alcotest.list cstr) "9p instants carry ns only" [ "ns" ]
            (instant_args "vmsh-9p.read");
          check (Alcotest.list cstr) "blk instants carry ns and bytes"
            [ "ns"; "bytes" ]
            (instant_args "vmsh-blk.read"))

let test_privileges_dropped_after_discovery () =
  let env = setup () in
  match do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      let p = Vmsh.Attach.vmsh_process session in
      check cbool "CAP_BPF dropped" false (H.Proc.has_cap p H.Proc.CAP_BPF)

let test_container_aware_attach () =
  let env = setup () in
  let _, vmm, g = env in
  (* create a containerised workload in the guest (guest context: its
     image files are written through the virtio stack) *)
  let container =
    Vmm.in_guest vmm (fun () ->
        Guest.spawn_container g ~name:"web"
          ~image:[ ("/etc/web.conf", "listen 80\n") ])
  in
  let config =
    Vmsh.Attach.Config.with_container_pid container.Linux_guest.Gproc.gpid
      (Vmsh.Attach.Config.make ())
  in
  match do_attach ~config env with
  | Error e -> Alcotest.failf "container attach: %s" e
  | Ok session ->
      let out = Vmsh.Attach.console_roundtrip session "id" in
      (* the shell adopted the container's restricted capability set *)
      check cbool "container caps applied" true
        (contains out
           (string_of_int (List.length Linux_guest.Gproc.container_caps)));
      check cbool "apparmor label applied" true (contains out "docker-default-web")

let test_double_attach_two_sessions () =
  (* a second attach to the same VM must fail cleanly (the tracee is
     already being traced by the first session) *)
  let env = setup () in
  match do_attach env with
  | Error e -> Alcotest.failf "first attach: %s" e
  | Ok _ -> (
      match do_attach env with
      | Ok _ -> Alcotest.fail "second attach should fail (already traced)"
      | Error e -> check cbool "mentions ptrace" true (contains e "ptrace"))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "vmsh.attach",
      [
        t "ioregionfd transport" test_attach_ioregionfd;
        t "wrap_syscall transport" test_attach_wrap_syscall;
        t "shell banner" test_shell_roundtrip;
        t "shell commands" test_shell_commands;
        t "overlay protects guest root" test_shell_write_protects_guest;
        t "guest files intact" test_attach_leaves_existing_guest_files_intact;
        t "9p tools share" test_ninep_side_loaded_share;
        t "privileges dropped" test_privileges_dropped_after_discovery;
        t "container-aware attach" test_container_aware_attach;
        t "double attach refused" test_double_attach_two_sessions;
      ] );
    ( "vmsh.generality",
      [
        t "hypervisor matrix (Table 1)" test_generality_all_hypervisors;
        t "firecracker seccomp blocks" test_firecracker_seccomp_blocks_attach;
        t "firecracker seccomp heuristic" test_firecracker_seccomp_heuristic;
        t "cloud hypervisor via pci" test_cloud_hypervisor_pci_transport;
        t "pci transport on qemu" test_pci_transport_on_qemu_too;
        t "kernel matrix (Table 1)" test_generality_all_kernels;
        t "symbol analysis vs ground truth" test_symbol_analysis_matches_ground_truth;
        t "wrong struct version" test_wrong_struct_version_fails_cleanly;
      ] );
  ]

let test_detach_then_reattach () =
  (* repeated attach to the same VM after a clean detach (the first
     session's journal replay unwinds its devices, sockets and memslot,
     so the second attach starts from a pristine guest) *)
  let env = setup ~seed:43 () in
  (match do_attach env with
  | Ok session -> (
      match Vmsh.Attach.detach session with
      | Ok () -> ()
      | Error e -> Alcotest.failf "first detach: %s" (Vmsh.Vmsh_error.to_string e))
  | Error e -> Alcotest.failf "first attach: %s" e);
  match do_attach env with
  | Ok session ->
      let out = Vmsh.Attach.console_roundtrip session "hostname" in
      check cbool "second session works" true (contains out "target-vm")
  | Error e -> Alcotest.failf "re-attach: %s" e

let test_multi_vcpu_attach () =
  let h = H.Host.create ~seed:47 () in
  let disk = make_root_disk h in
  let vmm = Vmm.create h ~profile:Profile.qemu ~disk ~vcpus:4 () in
  let g = Vmm.boot vmm ~version:KV.V5_10 in
  check cbool "booted" true (Guest.crashed g = None);
  match
    Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
      ~fs_image:(make_fs_image ())
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  with
  | Ok session ->
      check cint "done" Vmsh.Klib_builder.status_done (Vmsh.Attach.status session)
  | Error e ->
      Alcotest.failf "attach to 4-vcpu VM: %s" (Vmsh.Vmsh_error.to_string e)

let test_loader_region_never_overlaps =
  (* DESIGN.md ablation promise: the top-of-address-space placement never
     collides with hypervisor memslots, across RAM sizes and seeds *)
  QCheck.Test.make ~name:"vmsh memslot never overlaps existing slots" ~count:12
    QCheck.(pair (QCheck.make (QCheck.Gen.int_range 16 96)) small_nat)
    (fun (ram_mb, seed) ->
      let h = H.Host.create ~seed:(100 + seed) () in
      let disk = make_root_disk h in
      let vmm = Vmm.create h ~profile:Profile.qemu ~disk ~ram_mb () in
      let g = Vmm.boot vmm ~version:KV.V5_10 in
      if Guest.crashed g <> None then false
      else
        match
          Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
            ~fs_image:(make_fs_image ())
            ~pump:(fun () -> Vmm.run_until_idle vmm)
            ()
        with
        | Error _ -> false
        | Ok _ ->
            let slots = Kvm.Vm.memslots (Guest.vm g) in
            (* pairwise disjoint *)
            List.for_all
              (fun (a : Kvm.Vm.memslot) ->
                List.for_all
                  (fun (b : Kvm.Vm.memslot) ->
                    a.Kvm.Vm.slot = b.Kvm.Vm.slot
                    || a.Kvm.Vm.gpa + a.Kvm.Vm.size <= b.Kvm.Vm.gpa
                    || b.Kvm.Vm.gpa + b.Kvm.Vm.size <= a.Kvm.Vm.gpa)
                  slots)
              slots)

let test_analysis_rejects_corrupted_ksymtab () =
  (* flip bytes across the kernel image: the analyzer must either still
     answer correctly (corruption missed the sections) or fail cleanly —
     never return wrong symbol addresses for the functions VMSH calls *)
  let h = H.Host.create ~seed:53 () in
  let disk = make_root_disk h in
  let vmm = Vmm.create h ~profile:Profile.qemu ~disk () in
  let g = Vmm.boot vmm ~version:KV.V5_10 in
  let truth = Guest.exports g in
  let vm = Guest.vm g in
  let kphys = 0x40_0000 in
  (* corrupt a sweep of 64-byte stripes through the image *)
  for i = 0 to 200 do
    Kvm.Vm.write_phys vm (kphys + 0x11_0000 + (i * 97 * 64) mod 0x30000)
      (Bytes.make 8 '\xff')
  done;
  let vmsh = H.Host.spawn h ~name:"vmsh-corrupt" ~uid:1000 () in
  let slots =
    (Kvm.Vm.memslots vm)
  in
  let mem = Vmsh.Hyp_mem.create h ~vmsh ~hypervisor_pid:(Vmm.pid vmm) ~slots () in
  let cr3 = (Kvm.Vm.vcpu_regs (List.hd (Kvm.Vm.vcpus vm))).X86.Regs.cr3 in
  match Vmsh.Symbol_analysis.analyze mem ~cr3 with
  | Error _ -> () (* clean failure is acceptable *)
  | Ok anal ->
      (* whatever survived must agree with the ground truth *)
      List.iter
        (fun (name, va) ->
          match List.assoc_opt name truth with
          | Some tva ->
              if va <> tva then
                Alcotest.failf "corrupted analysis returned wrong %s" name
          | None -> ())
        anal.Vmsh.Symbol_analysis.symbols

(* Analyze a booted guest from a fresh VMSH process, returning the
   handles the revalidation tests poke. *)
let analyze_guest (h, vmm, g) =
  let vm = Guest.vm g in
  let vmsh = H.Host.spawn h ~name:"vmsh-reval" ~uid:1000 () in
  let slots =
    (Kvm.Vm.memslots vm)
  in
  let mem = Vmsh.Hyp_mem.create h ~vmsh ~hypervisor_pid:(Vmm.pid vmm) ~slots () in
  let cr3 = (Kvm.Vm.vcpu_regs (List.hd (Kvm.Vm.vcpus vm))).X86.Regs.cr3 in
  match Vmsh.Symbol_analysis.analyze mem ~cr3 with
  | Error e -> Alcotest.failf "analyze: %s" e
  | Ok anal -> (g, vm, cr3, mem, anal)

let analysis_fixture ~seed = analyze_guest (setup ~seed ())

(* Guest-physical offset of an exported name inside .ksymtab_strings,
   found the way the adversary would: by scanning its own memory. *)
let find_name_phys vm name =
  let strings_phys = 0x40_0000 + 0x11_0000 in
  let blob = Kvm.Vm.read_phys vm strings_phys 0x1_0000 in
  let needle = Bytes.of_string (name ^ "\000") in
  let nlen = Bytes.length needle in
  let rec go i =
    if i + nlen > Bytes.length blob then
      Alcotest.failf "%s not found in strings section" name
    else if
      Bytes.sub blob i nlen = needle
      && (i = 0 || Bytes.get blob (i - 1) = '\000')
    then strings_phys + i
    else go (i + 1)
  in
  go 0

let test_revalidate_clean_guest_passes () =
  let _, _, cr3, mem, anal = analysis_fixture ~seed:57 in
  (match Vmsh.Symbol_analysis.revalidate mem ~cr3 anal with
  | Ok () -> ()
  | Error e -> Alcotest.failf "full revalidate on a clean guest: %s" e);
  let some_name, _ = List.hd anal.Vmsh.Symbol_analysis.symbols in
  match Vmsh.Symbol_analysis.revalidate ~names:[ some_name ] mem ~cr3 anal with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scoped revalidate on a clean guest: %s" e

let test_revalidate_catches_mutated_symbol () =
  let g, vm, cr3, mem, anal = analysis_fixture ~seed:59 in
  (* pick two distinct ground-truth exports; clobber one's name bytes
     the way the TOCTOU engine rewrites just-scanned pages *)
  let victim, bystander =
    match Guest.exports g with
    | a :: b :: _ -> (fst a, fst b)
    | _ -> Alcotest.fail "need two exports"
  in
  Kvm.Vm.write_phys vm (find_name_phys vm victim) (Bytes.of_string "\xff");
  (match Vmsh.Symbol_analysis.revalidate ~names:[ victim ] mem ~cr3 anal with
  | Error e ->
      check cbool "error names the symbol" true
        (contains e victim && contains e "since the scan")
  | Ok () -> Alcotest.fail "mutated symbol must fail revalidation");
  (* scoping: a symbol the caller does not rely on is not re-checked *)
  match Vmsh.Symbol_analysis.revalidate ~names:[ bystander ] mem ~cr3 anal with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bystander symbol dragged in: %s" e

let test_revalidate_catches_moved_table () =
  let _, vm, cr3, mem, anal = analysis_fixture ~seed:61 in
  (* corrupt the first entries of the ksymtab table itself *)
  let table_phys = 0x40_0000 + 0x12_0000 in
  Kvm.Vm.write_phys vm table_phys (Bytes.make 16 '\xA5');
  match Vmsh.Symbol_analysis.revalidate mem ~cr3 anal with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corrupted table must fail full revalidation"

(* The use-time check every attach makes must stay cheap on a clean
   guest: on five rigs, one revalidation costs at most 5% of a clean
   attach in virtual time. *)
let test_revalidation_cost_bound () =
  let reval_ns, attach_ns =
    List.fold_left
      (fun (rv, at) seed ->
        let ((h, _, _) as env) = rig seed in
        let _, _, cr3, mem, anal = analyze_guest env in
        let clock = h.H.Host.clock in
        let t0 = H.Clock.now_ns clock in
        (match Vmsh.Symbol_analysis.revalidate mem ~cr3 anal with
        | Ok () -> ()
        | Error e -> Alcotest.failf "revalidate on a clean guest: %s" e);
        let dt = H.Clock.now_ns clock -. t0 in
        let _, attach_ns = timed_attach env in
        (rv +. dt, at +. attach_ns))
      (0., 0.)
      [ 2100; 2101; 2102; 2103; 2104 ]
  in
  if reval_ns > 0.05 *. attach_ns then
    Alcotest.failf "revalidation %.0f ns exceeds 5%% of attach %.0f ns"
      reval_ns attach_ns

let robustness_suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "vmsh.robustness",
      [
        t "detach then reattach" test_detach_then_reattach;
        t "multi-vcpu attach" test_multi_vcpu_attach;
        QCheck_alcotest.to_alcotest test_loader_region_never_overlaps;
        t "corrupted ksymtab" test_analysis_rejects_corrupted_ksymtab;
        t "revalidate: clean guest passes" test_revalidate_clean_guest_passes;
        t "revalidate: mutated symbol caught"
          test_revalidate_catches_mutated_symbol;
        t "revalidate: corrupted table caught"
          test_revalidate_catches_moved_table;
        t "revalidate: cost bound" test_revalidation_cost_bound;
      ] );
  ]
