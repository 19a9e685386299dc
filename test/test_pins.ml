(* Pins of outputs no other test fixes exactly: the side-loaded
   library's bytes for every LTS kernel over both transports, the
   virtual cost of one cold attach and detach, the guest's bytes after
   a boot and after a detach, and how many guest pages a boot leaves
   resident. A change to the library builder, to an attach-path charge
   or to how a guest's memory comes to hold its bytes moves one of
   these values, so it must update them on purpose. *)

module H = Hostos
module KV = Linux_guest.Kernel_version
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile
module Layout = X86.Layout

let check = Alcotest.check

(* --- the library image --- *)

(* The windows and GSIs the device registry hands out, in registration
   order: the drive window of device i is the i-th stride of the region
   (its PCI config window under PCI), its GSI 24 + i. *)
let placements ~pci =
  let base = if pci then Layout.vmsh_pci_base else Layout.vmsh_mmio_base in
  List.mapi
    (fun i kind ->
      {
        Vmsh.Klib_builder.kind;
        window = base + (i * Layout.virtio_mmio_stride);
        gsi = 24 + i;
      })
    [ Vmsh.Devices.Console; Blk; Net; Ninep ]

let library_digest ~pci version =
  let guest_program =
    Vmsh.Overlay.program_bytes
      { Vmsh.Overlay.container_pid = None; command = Some "hostname" }
  in
  let image, layout =
    Vmsh.Klib_builder.build ~version ~guest_program ~pci (placements ~pci)
  in
  Digest.to_hex
    (Digest.string
       (Bytes.to_string (Elfkit.Elf.to_bytes image)
       ^ Printf.sprintf "/%d/%d/%d/%d" layout.Vmsh.Klib_builder.text_len
           layout.status_off layout.blob_off layout.total_len))

(* (kernel, MMIO digest, PCI digest) *)
let pinned_libraries =
  [
    (KV.V5_10, "5a211111ea8775cc03cea8ae8013ec47", "fba8223305cb3a8ca718c87ed7408e4f");
    (KV.V5_4, "5a211111ea8775cc03cea8ae8013ec47", "fba8223305cb3a8ca718c87ed7408e4f");
    (KV.V4_19, "db84297ba1c0cd85a996f5795b0143c8", "490b56cfcdb90d47832b859c52f406c7");
    (KV.V4_14, "ef355dcd102549c19f105a904942da2c", "092c61a32c695726ffbae1fb9bfbedcb");
    (KV.V4_9, "9c80b445df1bb70e9e335cc0d9aa9fb5", "4d9f6fe3d9f4b0e656e5d4aca096ab2d");
    (KV.V4_4, "9c80b445df1bb70e9e335cc0d9aa9fb5", "4d9f6fe3d9f4b0e656e5d4aca096ab2d");
  ]

let test_library_bytes () =
  check
    Alcotest.(list string)
    "kernels pinned"
    (List.map KV.to_string KV.all_lts)
    (List.map (fun (v, _, _) -> KV.to_string v) pinned_libraries);
  List.iter
    (fun (v, mmio, pci) ->
      let name = KV.to_string v in
      check Alcotest.string (name ^ " over MMIO") mmio
        (library_digest ~pci:false v);
      check Alcotest.string (name ^ " over PCI") pci
        (library_digest ~pci:true v))
    pinned_libraries

(* --- one cold attach and detach --- *)

let attach_detach_cost ~profile ~pci =
  let h = H.Host.create ~seed:41 () in
  let vmm, _ =
    Fleet.Machine.cold_boot h ~profile ~version:KV.V5_10 ~hostname:"pin"
  in
  let clock = h.H.Host.clock in
  let fs_image = Fleet.Machine.tools_image clock in
  let config = Vmsh.Attach.Config.with_pci pci (Vmsh.Attach.Config.make ()) in
  let t0 = H.Clock.now_ns clock and c0 = H.Clock.snapshot clock in
  (match
     Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm) ~fs_image ~config
       ~pump:(fun () -> Vmm.run_until_idle vmm)
       ()
   with
  | Error e -> Alcotest.failf "attach: %s" (Vmsh.Vmsh_error.to_string e)
  | Ok s -> (
      match Vmsh.Attach.detach s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detach: %s" (Vmsh.Vmsh_error.to_string e)));
  let ns = H.Clock.now_ns clock -. t0 in
  ( Printf.sprintf "%.17g" ns,
    List.map2
      (fun (k, a) (_, b) -> (k, b - a))
      (H.Clock.to_fields c0)
      (H.Clock.to_fields (H.Clock.counters clock)) )

let check_cost what (ns, counters) (ns', counters') =
  check Alcotest.string (what ^ ": virtual ns") ns ns';
  check Alcotest.(list (pair string int)) (what ^ ": counters") counters counters'

let test_attach_cost_qemu () =
  check_cost "qemu, v5.10, MMIO"
    ( "4721352.9550007861",
      [
        ("context_switches", 386); ("syscalls", 6377); ("vmexits", 121);
        ("mmio_exits", 0); ("ptrace_stops", 73); ("bytes_copied", 8717999);
        ("bytes_copied_remote", 2610159); ("page_cache_hits", 62);
        ("page_cache_misses", 2); ("irq_injections", 3); ("socket_msgs", 238);
        ("device_ops", 66); ("fs_ops", 0);
      ] )
    (attach_detach_cost ~profile:Profile.qemu ~pci:false)

let test_attach_cost_cloud_hypervisor () =
  check_cost "cloud-hypervisor, v5.10, PCI"
    ( "4973762.2350007873",
      [
        ("context_switches", 458); ("syscalls", 6385); ("vmexits", 149);
        ("mmio_exits", 0); ("ptrace_stops", 81); ("bytes_copied", 8717999);
        ("bytes_copied_remote", 2610223); ("page_cache_hits", 62);
        ("page_cache_misses", 2); ("irq_injections", 3); ("socket_msgs", 294);
        ("device_ops", 66); ("fs_ops", 0);
      ] )
    (attach_detach_cost ~profile:Profile.cloud_hypervisor ~pci:true)

(* --- guest memory --- *)

let guest_digest vmm =
  Vmsh.Snapshot.digest (Vmsh.Snapshot.capture (Vmm.kvm_vm vmm))

let guest_ram vmm =
  let vm = Vmm.kvm_vm vmm in
  match List.find_opt (fun s -> s.Kvm.Vm.gpa = 0) (Kvm.Vm.memslots vm) with
  | Some s -> fst (Kvm.Vm.memslot_backing vm s)
  | None -> Alcotest.fail "no RAM at guest-physical 0"

(* The whole guest's digest after a cold boot, and, on a second boot
   whose memory nothing read in between, after one attach and detach:
   every byte the guest holds, kernel image included, whichever way
   its pages came to be. *)
let guest_digests ~profile ~pci =
  let boot () =
    let h = H.Host.create ~seed:41 () in
    let vmm, _ =
      Fleet.Machine.cold_boot h ~profile ~version:KV.V5_10 ~hostname:"pin"
    in
    (h, vmm)
  in
  let booted = guest_digest (snd (boot ())) in
  let h, vmm = boot () in
  let config = Vmsh.Attach.Config.with_pci pci (Vmsh.Attach.Config.make ()) in
  (match
     Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
       ~fs_image:(Fleet.Machine.tools_image h.H.Host.clock)
       ~config
       ~pump:(fun () -> Vmm.run_until_idle vmm)
       ()
   with
  | Error e -> Alcotest.failf "attach: %s" (Vmsh.Vmsh_error.to_string e)
  | Ok s -> (
      match Vmsh.Attach.detach s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detach: %s" (Vmsh.Vmsh_error.to_string e)));
  (booted, guest_digest vmm)

let test_guest_digests () =
  List.iter
    (fun (what, profile, pci, (booted, detached)) ->
      let booted', detached' = guest_digests ~profile ~pci in
      check Alcotest.string (what ^ ": after boot") booted booted';
      check Alcotest.string (what ^ ": after detach") detached detached')
    [
      ( "qemu, v5.10, MMIO", Profile.qemu, false,
        ("48175e709386c306a86440a5de73ca9f", "140b8c487c15218d250b876aeff4b90c") );
      ( "cloud-hypervisor, v5.10, PCI", Profile.cloud_hypervisor, true,
        ("48175e709386c306a86440a5de73ca9f", "140b8c487c15218d250b876aeff4b90c") );
    ]

(* Resident guest-RAM pages of a cold 16 MiB boot (329 while the boot
   wrote all 320 pages of its kernel image), and of VMs after a session
   whose symbol analysis missed the build-id cache and one that hit it.
   A miss copies the whole image, but a copy of a generated page runs
   its generator into the copy's buffer and leaves the page generated,
   so a miss leaves exactly 51 pages resident (at least 320 while a
   read materialised every page it touched). A hit reads page 0 of the
   image and the witnessed ksymtab pages (365 pages when every noise
   page existed). *)
let test_resident_pages () =
  let h = H.Host.create ~seed:41 () in
  let boot name =
    fst
      (Fleet.Machine.cold_boot ~ram_mb:16 h ~profile:Profile.qemu
         ~version:KV.V5_10 ~hostname:name)
  in
  let resident vmm = H.Mem.resident_pages (guest_ram vmm) in
  check Alcotest.int "cold boot" 15 (resident (boot "cold"));
  let cache = Vmsh.Symbol_analysis.Cache.create () in
  let session name =
    let vmm = boot name in
    let r =
      Fleet.Session.run ~host:h
        (Fleet.Session.spec ~cache (Fleet.Session.Running vmm))
    in
    check Alcotest.string (name ^ ": verdict") "survived"
      (Faults.Abort.to_string r.Fleet.Session.verdict);
    resident vmm
  in
  check Alcotest.int "cache miss" 51 (session "miss");
  let hit = session "hit" in
  if hit >= 100 then
    Alcotest.failf "a cache hit left %d guest pages resident" hit

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "vmsh.pins",
      [
        t "library bytes per kernel and transport" test_library_bytes;
        t "attach and detach cost, qemu" test_attach_cost_qemu;
        t "attach and detach cost, cloud-hypervisor over PCI"
          test_attach_cost_cloud_hypervisor;
        t "guest digest after boot and after detach" test_guest_digests;
        t "resident guest pages, cold and warm cache" test_resident_pages;
      ] );
  ]
