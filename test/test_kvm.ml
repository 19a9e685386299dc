(* Unit tests for the simulated KVM: ioctl ABI codecs, VM lifecycle,
   memslots, exits and notification plumbing. *)

module H = Hostos
module Api = Kvm.Api
module Vm = Kvm.Vm

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int

let make_vm_env () =
  let h = H.Host.create ~seed:3 () in
  let p = H.Host.spawn h ~name:"hyp" () in
  let th = H.Proc.main_thread p in
  let kvm_fd = Vm.dev_kvm h p in
  let vmfd_num =
    H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
      ~args:[| kvm_fd.H.Fd.num; Api.create_vm; 0 |]
  in
  let vm_fd = Result.get_ok (H.Proc.fd p vmfd_num) in
  let vm = Option.get (Vm.vm_of_fd vm_fd) in
  (h, p, th, vm_fd, vm)

let add_ram h p th vm_fd ~mb =
  let scratch = H.Syscall.call h p th ~nr:H.Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  let size = mb * 1024 * 1024 in
  let hva = H.Syscall.call h p th ~nr:H.Syscall.Nr.mmap ~args:[| 0; size |] in
  Api.write_memory_region p.H.Proc.aspace ~ptr:scratch
    { Api.slot = 0; flags = 0; guest_phys_addr = 0; memory_size = size;
      userspace_addr = hva };
  let ret =
    H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
      ~args:[| vm_fd.H.Fd.num; Api.set_user_memory_region; scratch |]
  in
  check cint "memslot registered" 0 ret;
  hva

let test_vm_creation_labels () =
  let h, p, th, vm_fd, _vm = make_vm_env () in
  check Alcotest.string "vm label" "anon_inode:kvm-vm" vm_fd.H.Fd.label;
  let vcpu_num =
    H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
      ~args:[| vm_fd.H.Fd.num; Api.create_vcpu; 0 |]
  in
  let vcpu_fd = Result.get_ok (H.Proc.fd p vcpu_num) in
  check Alcotest.string "vcpu label" "anon_inode:kvm-vcpu:0" vcpu_fd.H.Fd.label;
  (* the kvm_run page appears in /proc/pid/maps with its tag *)
  let maps = H.Host.proc_maps h ~pid:p.H.Proc.pid in
  check cbool "run page mapped" true
    (List.exists (fun (_, _, tag) -> tag = "kvm-vcpu-run:0") maps)

let test_memslot_phys_access () =
  let h, p, th, vm_fd, vm = make_vm_env () in
  let hva = add_ram h p th vm_fd ~mb:1 in
  Vm.write_phys vm 0x1234 (Bytes.of_string "guest-data");
  (* the same bytes are visible through the hypervisor's mapping *)
  let through_hva = H.Mem.Addr_space.read p.H.Proc.aspace (hva + 0x1234) 10 in
  check Alcotest.string "one memory" "guest-data" (Bytes.to_string through_hva);
  check cbool "is_ram" true (Vm.is_ram vm 0x1234);
  check cbool "beyond ram" false (Vm.is_ram vm (2 * 1024 * 1024))

(* KVM takes only a page-aligned memslot inside one buffer: the
   rollback oracle reads each slot through its buffer's write log, page
   for page. *)
let test_memslot_must_be_logged_pages () =
  let h, p, th, vm_fd, vm = make_vm_env () in
  let scratch = H.Syscall.call h p th ~nr:H.Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  let hva = H.Syscall.call h p th ~nr:H.Syscall.Nr.mmap ~args:[| 0; 65536 |] in
  (* a second buffer right after the mmapped one *)
  let next = hva + 65536 in
  H.Mem.Addr_space.map p.H.Proc.aspace
    {
      base = next;
      len = 65536;
      backing = H.Mem.create 65536;
      backing_off = 0;
      tag = "next";
    };
  let register ~gpa ~size ~addr =
    Api.write_memory_region p.H.Proc.aspace ~ptr:scratch
      { Api.slot = 0; flags = 0; guest_phys_addr = gpa; memory_size = size;
        userspace_addr = addr };
    H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
      ~args:[| vm_fd.H.Fd.num; Api.set_user_memory_region; scratch |]
  in
  let einval = -22 in
  check cint "unaligned userspace address" einval
    (register ~gpa:0 ~size:4096 ~addr:(hva + 8));
  check cint "unaligned guest address" einval
    (register ~gpa:0x800 ~size:4096 ~addr:hva);
  check cint "partial page" einval (register ~gpa:0 ~size:100 ~addr:hva);
  check cint "past the end of the mapping" einval
    (register ~gpa:0 ~size:(2 * 65536) ~addr:hva);
  check cint "across two buffers" einval
    (register ~gpa:0 ~size:8192 ~addr:(next - 4096));
  check cint "nothing registered" 0 (List.length (Vm.memslots vm));
  check cint "an mmapped window" 0 (register ~gpa:0 ~size:8192 ~addr:(hva + 4096));
  let slot = List.hd (Vm.memslots vm) in
  let backing, off = Vm.memslot_backing vm slot in
  check cint "offset into the mapping" 4096 off;
  check cint "the mapping's buffer" 65536 (H.Mem.length backing)

(* KVM takes user memslot ids below KVM_USER_MEM_SLOTS only. *)
let test_memslot_id_ceiling () =
  let h, p, th, vm_fd, vm = make_vm_env () in
  let scratch = H.Syscall.call h p th ~nr:H.Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  let hva = H.Syscall.call h p th ~nr:H.Syscall.Nr.mmap ~args:[| 0; 8192 |] in
  let register ~slot ~gpa =
    Api.write_memory_region p.H.Proc.aspace ~ptr:scratch
      { Api.slot; flags = 0; guest_phys_addr = gpa; memory_size = 4096;
        userspace_addr = hva + gpa };
    H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
      ~args:[| vm_fd.H.Fd.num; Api.set_user_memory_region; scratch |]
  in
  check cint "the ceiling is x86's" 509 Api.user_mem_slots;
  check cint "id 508 accepted" 0 (register ~slot:508 ~gpa:0);
  check cint "id 509 rejected" (-22) (register ~slot:509 ~gpa:4096);
  check (Alcotest.list cint) "only slot 508 added" [ 508 ]
    (List.map (fun s -> s.Vm.slot) (Vm.memslots vm))

let test_regs_struct_roundtrip () =
  let h, p, th, _vm_fd, _ = make_vm_env () in
  ignore th;
  ignore h;
  let regs = X86.Regs.zero () in
  regs.X86.Regs.rip <- 0xdead000;
  regs.rdi <- 42;
  regs.cr3 <- 0x1000;
  let b = Api.regs_to_bytes regs in
  check cint "blob size" Api.regs_size (Bytes.length b);
  let back = Api.regs_of_bytes b in
  check cbool "roundtrip" true (X86.Regs.equal regs back);
  (* through process memory too *)
  let scratch =
    H.Syscall.call h p (H.Proc.main_thread p) ~nr:H.Syscall.Nr.mmap
      ~args:[| 0; 4096 |]
  in
  Api.write_regs p.H.Proc.aspace ~ptr:scratch regs;
  check cbool "aspace roundtrip" true
    (X86.Regs.equal regs (Api.read_regs p.H.Proc.aspace ~ptr:scratch))

let test_exit_codec () =
  let page = H.Mem.create Api.run_page_size in
  Api.write_exit page
    (Api.Exit_mmio { phys_addr = 0xd0000050; len = 4; is_write = true;
                     data = Bytes.of_string "\x01\x00\x00\x00" });
  let decode () = Api.decode_exit (H.Mem.read_bytes page 0 Api.exit_size) in
  (match decode () with
  | Api.Exit_mmio { phys_addr; len; is_write; data } ->
      check cint "addr" 0xd0000050 phys_addr;
      check cint "len" 4 len;
      check cbool "write" true is_write;
      check cint "data" 1 (Int32.to_int (Bytes.get_int32_le data 0))
  | _ -> Alcotest.fail "wrong exit");
  Api.write_exit page Api.Exit_hlt;
  check cbool "hlt" true (decode () = Api.Exit_hlt)

let test_guest_execution_mmio_exit () =
  let h, p, th, vm_fd, vm = make_vm_env () in
  ignore (add_ram h p th vm_fd ~mb:1);
  let vcpu_num =
    H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
      ~args:[| vm_fd.H.Fd.num; Api.create_vcpu; 0 |]
  in
  let vcpu_fd = Result.get_ok (H.Proc.fd p vcpu_num) in
  Vm.set_runtime vm
    { Vm.on_irq = (fun ~gsi:_ -> ()); resolve_rip = (fun _ -> None) };
  (* guest task performs an MMIO read to an unclaimed address: must exit,
     and resume with the data the VMM provides *)
  let got = ref (-1) in
  Vm.enqueue_task vm ~name:"mmio" (fun () ->
      let b = Effect.perform (Vm.Mmio (Vm.Mmio_read { addr = 0xd0000000; len = 4 })) in
      got := Int32.to_int (Bytes.get_int32_le b 0));
  (match Vm.run_vcpu h p th ~vcpu_fd with
  | Api.Exit_mmio { phys_addr; is_write; _ } ->
      check cint "exit addr" 0xd0000000 phys_addr;
      check cbool "read exit" false is_write
  | _ -> Alcotest.fail "expected mmio exit");
  (* respond and re-enter *)
  let vcpu = Option.get (Vm.vcpu_of_fd vcpu_fd) in
  let resp = Bytes.create 4 in
  Bytes.set_int32_le resp 0 0x5555l;
  Api.write_mmio_response (Vm.vcpu_run_page vcpu) resp;
  (match Vm.run_vcpu h p th ~vcpu_fd with
  | Api.Exit_hlt -> ()
  | _ -> Alcotest.fail "expected hlt after completion");
  check cint "guest saw response" 0x5555 !got

let test_ioeventfd_fast_path () =
  let h, p, th, vm_fd, vm = make_vm_env () in
  ignore (add_ram h p th vm_fd ~mb:1);
  ignore
    (H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
       ~args:[| vm_fd.H.Fd.num; Api.create_vcpu; 0 |]);
  let vcpu_fd =
    Result.get_ok (H.Proc.fd p (p.H.Proc.next_fd - 1))
  in
  Vm.set_runtime vm
    { Vm.on_irq = (fun ~gsi:_ -> ()); resolve_rip = (fun _ -> None) };
  (* register an ioeventfd at a doorbell address *)
  let ev_num = H.Syscall.call h p th ~nr:H.Syscall.Nr.eventfd2 ~args:[||] in
  let scratch = H.Syscall.call h p th ~nr:H.Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  Api.write_ioeventfd_req p.H.Proc.aspace ~ptr:scratch
    { Api.datamatch = 0; ioev_addr = 0xd0000050; ioev_len = 4; ioev_fd = ev_num;
      ioev_flags = 0 };
  check cint "ioeventfd ok" 0
    (H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
       ~args:[| vm_fd.H.Fd.num; Api.ioeventfd; scratch |]);
  let woken = ref 0 in
  let ev_fd = Result.get_ok (H.Proc.fd p ev_num) in
  Vm.add_eventfd_waiter vm ~fd:ev_fd (fun () -> incr woken);
  Vm.enqueue_task vm ~name:"doorbell" (fun () ->
      ignore
        (Effect.perform
           (Vm.Mmio (Vm.Mmio_write { addr = 0xd0000050; data = Bytes.make 4 '\001' }))));
  (match Vm.run_vcpu h p th ~vcpu_fd with
  | Api.Exit_hlt -> () (* no userspace MMIO exit: handled by ioeventfd *)
  | _ -> Alcotest.fail "doorbell must not reach userspace");
  check cint "iothread woken" 1 !woken

let test_irqfd_delivery () =
  let h, p, th, vm_fd, vm = make_vm_env () in
  ignore (add_ram h p th vm_fd ~mb:1);
  ignore
    (H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
       ~args:[| vm_fd.H.Fd.num; Api.create_vcpu; 0 |]);
  let vcpu_fd = Result.get_ok (H.Proc.fd p (p.H.Proc.next_fd - 1)) in
  let delivered = ref [] in
  Vm.set_runtime vm
    {
      Vm.on_irq = (fun ~gsi -> delivered := gsi :: !delivered);
      resolve_rip = (fun _ -> None);
    };
  let ev_num = H.Syscall.call h p th ~nr:H.Syscall.Nr.eventfd2 ~args:[||] in
  let scratch = H.Syscall.call h p th ~nr:H.Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  Api.write_irqfd_req p.H.Proc.aspace ~ptr:scratch
    { Api.irqfd_fd = ev_num; gsi = 17; irqfd_flags = 0 };
  check cint "irqfd ok" 0
    (H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
       ~args:[| vm_fd.H.Fd.num; Api.irqfd; scratch |]);
  H.Fd.eventfd_signal (Result.get_ok (H.Proc.fd p ev_num));
  ignore (Vm.run_vcpu h p th ~vcpu_fd);
  check (Alcotest.list cint) "gsi delivered" [ 17 ] !delivered

let test_irqfd_rejected_without_gsi_support () =
  let h, p, th, vm_fd, vm = make_vm_env () in
  Vm.set_gsi_irqfd_support vm false;
  let ev_num = H.Syscall.call h p th ~nr:H.Syscall.Nr.eventfd2 ~args:[||] in
  let scratch = H.Syscall.call h p th ~nr:H.Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  Api.write_irqfd_req p.H.Proc.aspace ~ptr:scratch
    { Api.irqfd_fd = ev_num; gsi = 17; irqfd_flags = 0 };
  let ret =
    H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
      ~args:[| vm_fd.H.Fd.num; Api.irqfd; scratch |]
  in
  check cbool "EINVAL" true (H.Errno.of_syscall_ret ret = Error H.Errno.EINVAL)

let test_yield_until_parks_and_resumes () =
  let h, p, th, vm_fd, vm = make_vm_env () in
  ignore (add_ram h p th vm_fd ~mb:1);
  ignore
    (H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
       ~args:[| vm_fd.H.Fd.num; Api.create_vcpu; 0 |]);
  let vcpu_fd = Result.get_ok (H.Proc.fd p (p.H.Proc.next_fd - 1)) in
  Vm.set_runtime vm
    { Vm.on_irq = (fun ~gsi:_ -> ()); resolve_rip = (fun _ -> None) };
  let flag = ref false and finished = ref false in
  Vm.enqueue_task vm ~name:"waiter" (fun () ->
      Effect.perform (Vm.Yield_until (fun () -> !flag));
      finished := true);
  ignore (Vm.run_vcpu h p th ~vcpu_fd);
  check cbool "parked, not finished" false !finished;
  check cbool "has parked work" true (Vm.has_work vm);
  check cbool "but nothing runnable" false (Vm.has_runnable vm);
  flag := true;
  ignore (Vm.run_vcpu h p th ~vcpu_fd);
  check cbool "resumed" true !finished

let test_ebpf_hook_fires_on_vm_ioctl () =
  let h, p, th, vm_fd, _vm = make_vm_env () in
  let seen = ref None in
  let prog =
    {
      H.Ebpf.name = "watch";
      insn_count = 4;
      run =
        (fun ctx ->
          match ctx.H.Ebpf.kdata with
          | Vm.Kvm_memslots slots -> seen := Some (List.length slots)
          | _ -> ());
    }
  in
  let root = H.Host.spawn h ~name:"admin" ~caps:[ H.Proc.CAP_BPF ] () in
  (match H.Host.attach_ebpf h ~caller:root ~hook:"kvm_vm_ioctl" prog with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "attach");
  ignore (add_ram h p th vm_fd ~mb:1);
  (* the SET_USER_MEMORY_REGION ioctl itself fired the hook (with the
     slot list as it was on entry); fire once more to observe one slot *)
  ignore
    (H.Syscall.call h p th ~nr:H.Syscall.Nr.ioctl
       ~args:[| vm_fd.H.Fd.num; 0xAE00; 0 |]);
  check (Alcotest.option cint) "hook saw one slot" (Some 1) !seen

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "kvm",
      [
        t "creation + labels" test_vm_creation_labels;
        t "memslot phys access" test_memslot_phys_access;
        t "memslot must be logged pages" test_memslot_must_be_logged_pages;
        t "memslot id ceiling" test_memslot_id_ceiling;
        t "regs codec" test_regs_struct_roundtrip;
        t "exit codec" test_exit_codec;
        t "mmio exit + resume" test_guest_execution_mmio_exit;
        t "ioeventfd fast path" test_ioeventfd_fast_path;
        t "irqfd delivery" test_irqfd_delivery;
        t "irqfd without gsi support" test_irqfd_rejected_without_gsi_support;
        t "yield parks/resumes" test_yield_until_parks_and_resumes;
        t "ebpf hook on vm ioctl" test_ebpf_hook_fires_on_vm_ioctl;
      ] );
  ]
