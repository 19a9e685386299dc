(* Unit and property tests for the simulated host OS substrate. *)

module H = Hostos
open H

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let errno : Errno.t Alcotest.testable = Alcotest.testable Errno.pp Errno.equal

let result_int = Alcotest.result cint errno

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check cint "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check cbool "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:9 in
  let b = Rng.split a in
  check cbool "split streams differ" true (Rng.next a <> Rng.next b)

(* --- Clock --- *)

let test_clock_charges () =
  let c = Clock.create () in
  check cbool "starts at zero" true (Clock.now_ns c = 0.0);
  Clock.syscall c;
  Clock.context_switch c;
  let counters = Clock.counters c in
  check cint "one syscall" 1 counters.Clock.syscalls;
  check cint "one ctx switch" 1 counters.Clock.context_switches;
  check cbool "time advanced" true (Clock.now_ns c > 0.0)

let test_clock_copy_scales () =
  let c = Clock.create () in
  Clock.copy_bytes c 1000;
  let t1 = Clock.now_ns c in
  Clock.copy_bytes c 10000;
  let t2 = Clock.now_ns c -. t1 in
  check cbool "10x bytes cost ~10x" true (t2 > 9.0 *. t1 && t2 < 11.0 *. t1)

let test_clock_snapshot_independent () =
  let c = Clock.create () in
  Clock.syscall c;
  let snap = Clock.snapshot c in
  Clock.syscall c;
  check cint "snapshot frozen" 1 snap.Clock.syscalls;
  check cint "live counter moved" 2 (Clock.counters c).Clock.syscalls

(* --- Mem --- *)

let test_mem_u64_roundtrip () =
  let m = Mem.create 64 in
  Mem.write_u64 m 8 0x1234_5678_9abc;
  check cint "u64 roundtrip" 0x1234_5678_9abc (Mem.read_u64 m 8)

let test_mem_u64_rejects_63bit () =
  let m = Mem.create 16 in
  Bytes.set_int64_le (Mem.read_bytes m 0 16 |> fun _ -> Bytes.create 8) 0 0L;
  (* write a raw value with the top bits set, then read *)
  Mem.write_bytes m 0 (Bytes.init 8 (fun _ -> '\xff'));
  Alcotest.check_raises "rejects >62-bit" (Invalid_argument "x") (fun () ->
      try ignore (Mem.read_u64 m 0)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_mem_cstr () =
  let m = Mem.create 32 in
  Mem.write_cstr m 4 "hello";
  check (Alcotest.option cstr) "cstr" (Some "hello") (Mem.read_cstr m 4 ~max:16);
  check (Alcotest.option cstr) "no terminator" None
    (Mem.read_cstr m 4 ~max:3)

let test_aspace_mapping () =
  let open Mem.Addr_space in
  let sp = create () in
  let buf = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = buf; backing_off = 0; tag = "a" };
  Mem.write_u64 buf 16 77;
  check cint "read through mapping" 77 (read_u64 sp 0x1010);
  write_u64 sp 0x1018 99;
  check cint "write through mapping" 99 (Mem.read_u64 buf 24)

let test_aspace_overlap_rejected () =
  let open Mem.Addr_space in
  let sp = create () in
  let buf = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = buf; backing_off = 0; tag = "a" };
  Alcotest.check_raises "overlap" (Invalid_argument "x") (fun () ->
      try
        map sp
          { base = 0x1800; len = 4096; backing = buf; backing_off = 0; tag = "b" }
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_aspace_find_free () =
  let open Mem.Addr_space in
  let sp = create () in
  let buf = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = buf; backing_off = 0; tag = "a" };
  let free = find_free sp ~hint:0x1000 ~len:4096 in
  check cbool "free range does not overlap" true (free >= 0x2000)

let test_aspace_cross_mapping_read () =
  let open Mem.Addr_space in
  let sp = create () in
  let a = Mem.create 4096 and b = Mem.create 4096 in
  map sp { base = 0x1000; len = 4096; backing = a; backing_off = 0; tag = "a" };
  map sp { base = 0x2000; len = 4096; backing = b; backing_off = 0; tag = "b" };
  Mem.write_u8 a 4095 0xaa;
  Mem.write_u8 b 0 0xbb;
  let data = read sp 0x1fff 2 in
  check cint "byte from a" 0xaa (Char.code (Bytes.get data 0));
  check cint "byte from b" 0xbb (Char.code (Bytes.get data 1))

(* --- sparse (zero-base) overlays --- *)

let raises_invalid name f =
  Alcotest.check_raises name (Invalid_argument "x") (fun () ->
      try ignore (f ()) with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_mem_zero_base_overlay () =
  let len = (3 * 4096) + 100 in
  let m = Mem.create len in
  check cint "nothing resident at creation" 0 (Mem.resident_pages m);
  check cint "untouched page reads zero" 0 (Mem.read_u64 m 5000);
  check cbool "untouched range reads zeros" true
    (Bytes.equal (Mem.read_bytes m 4000 200) (Bytes.make 200 '\000'));
  (* zeros onto untouched pages stay silent, whatever the path *)
  Mem.write_bytes m 4096 (Bytes.make 4096 '\000');
  Mem.write_u64 m 8192 0;
  Mem.fill m 0 len '\000';
  check cint "zero writes stay silent" 0 (Mem.resident_pages m);
  (* the first differing write materialises exactly its page *)
  Mem.write_u8 m 5000 7;
  check cint "one page materialised" 1 (Mem.resident_pages m);
  check cint "writer reads its byte" 7 (Mem.read_u8 m 5000);
  check cint "rest of the page still zero" 0 (Mem.read_u8 m 5001);
  (* a scalar straddling a page boundary lands in both pages *)
  Mem.write_u64 m (8192 - 3) 0x0102_0304_0506_0708;
  check cint "straddling scalar roundtrips" 0x0102_0304_0506_0708
    (Mem.read_u64 m (8192 - 3));
  check cint "low bytes in the first page" 0x08 (Mem.read_u8 m (8192 - 3));
  check cint "high bytes in the second page" 0x01 (Mem.read_u8 m (8192 + 4));
  check cint "straddle materialised the second page" 2 (Mem.resident_pages m);
  (* the partial last page ends at the buffer's length, not the page's *)
  Mem.write_u8 m (len - 1) 9;
  check cint "last byte" 9 (Mem.read_u8 m (len - 1));
  raises_invalid "read past the end" (fun () -> Mem.read_u8 m len);
  raises_invalid "scalar write past the end" (fun () -> Mem.write_u64 m (len - 4) 1);
  raises_invalid "negative offset" (fun () -> Mem.read_bytes m (-1) 2);
  (* an allocation strategy, not a fork: the overlay API stays quiet *)
  check cbool "not a CoW buffer" false (Mem.is_cow m);
  check cbool "no CoW stats" true (Mem.cow_stats m = None);
  check cint "reclaim is a no-op" 0 (Mem.cow_reclaim m)

let test_mem_zero_base_matches_flat () =
  (* the same seeded mix of scalar, range, fill and blit writes — a
     third of them zeros — on a sparse buffer and on a flat zeroed one;
     reads and the frozen image must agree throughout *)
  let len = (5 * 4096) + 1000 in
  let sparse = Mem.create len
  and flat = Mem.of_bytes (Bytes.make len '\000') in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 2000 do
    let v = if Random.State.int rng 3 = 0 then 0 else Random.State.bits rng in
    let n = 1 + Random.State.int rng 6000 in
    let off = Random.State.int rng (len - 8) in
    let op =
      match Random.State.int rng 6 with
      | 0 -> fun m -> Mem.write_u8 m off v
      | 1 -> fun m -> Mem.write_u32 m off v
      | 2 -> fun m -> Mem.write_u64 m off (v land 0xffff_ffff_ffff)
      | 3 ->
          let n = min n (len - off) in
          let b = Bytes.init n (fun i -> Char.chr ((v + i) land 0xff)) in
          fun m -> Mem.write_bytes m off b
      | 4 -> fun m -> Mem.fill m off (min n (len - off)) (Char.chr (v land 0xff))
      | _ ->
          let src = Random.State.int rng (len - 8) in
          let n = min n (min (len - off) (len - src)) in
          fun m -> Mem.blit ~src:m ~src_off:src ~dst:m ~dst_off:off ~len:n
    in
    op sparse;
    op flat;
    let probe = Random.State.int rng (len - 8) in
    check cint "reads agree" (Mem.read_u32 flat probe)
      (Mem.read_u32 sparse probe)
  done;
  check cbool "freeze equals the flat equivalent" true
    (Bytes.equal (Mem.freeze flat) (Mem.freeze sparse))

let test_mem_page_digest () =
  let len = (3 * 4096) + 100 in
  let m = Mem.create len in
  Mem.write_u8 m 4096 1;
  (* materialised, then zero again: still hashed, still correct *)
  Mem.write_u8 m ((2 * 4096) + 5) 1;
  Mem.write_u8 m ((2 * 4096) + 5) 0;
  let base = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
  let cow = Mem.cow base in
  Mem.write_u8 cow 4096 0xff;
  let flat = Mem.of_bytes (Bytes.copy base) in
  let same name m off n =
    check cstr name
      (Digest.to_hex (Digest.bytes (Mem.read_bytes m off n)))
      (Digest.to_hex (Mem.page_digest m off n))
  in
  same "untouched zero page" m 0 4096;
  same "materialised page" m 4096 4096;
  same "materialised page holding zeros again" m (2 * 4096) 4096;
  same "untouched partial last page" m (3 * 4096) 100;
  Mem.write_u8 m ((3 * 4096) + 99) 3;
  same "materialised partial last page" m (3 * 4096) 100;
  same "range inside a page" m 4000 96;
  same "range across pages" m 4000 200;
  same "CoW base page" cow 0 4096;
  same "CoW private page" cow 4096 4096;
  same "CoW partial last page" cow (3 * 4096) 100;
  same "flat buffer" flat 4096 4096;
  (* two forks of one image share its digest memo: a still-shared page
     answers from it, a materialised page is hashed, and a page
     reclaimed back to the base answers from the memo again *)
  let digests = Mem.page_digests base in
  let fork_a = Mem.cow ~digests base and fork_b = Mem.cow ~digests base in
  same "memo filled by the first fork" fork_b 4096 4096;
  Mem.write_u8 fork_a 4096 0xee;
  same "materialised page over the memo" fork_a 4096 4096;
  same "second fork still reads the base" fork_b 4096 4096;
  Mem.write_u8 fork_a 4096 (Char.code (Bytes.get base 4096));
  check cint "re-converged page reclaimed" 1 (Mem.cow_reclaim fork_a);
  same "reclaimed page" fork_a 4096 4096;
  same "partial last page with a memo" fork_a (3 * 4096) 100;
  raises_invalid "memo of another base" (fun () ->
      Mem.cow ~digests (Bytes.copy base));
  raises_invalid "digest past the end" (fun () -> Mem.page_digest m (3 * 4096) 4096)

(* --- Chan --- *)

let test_chan_fifo () =
  let c = Chan.create () in
  ignore (Chan.write c (Bytes.of_string "abc"));
  ignore (Chan.write c (Bytes.of_string "def"));
  check cstr "fifo order" "abcd"
    (match Chan.read c 4 with Ok b -> Bytes.to_string b | Error _ -> "");
  check cstr "rest" "ef"
    (match Chan.read c 10 with Ok b -> Bytes.to_string b | Error _ -> "")

let test_chan_eagain_empty () =
  let c = Chan.create () in
  (match Chan.read c 1 with
  | Error Errno.EAGAIN -> ()
  | _ -> Alcotest.fail "expected EAGAIN");
  ignore (Chan.write c (Bytes.of_string "x"));
  ignore (Chan.read c 1);
  match Chan.read c 1 with
  | Error Errno.EAGAIN -> ()
  | _ -> Alcotest.fail "expected EAGAIN after drain"

let test_chan_capacity () =
  let c = Chan.create ~capacity:4 () in
  (match Chan.write c (Bytes.of_string "abcdef") with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "partial write expected");
  match Chan.write c (Bytes.of_string "x") with
  | Error Errno.EAGAIN -> ()
  | _ -> Alcotest.fail "expected EAGAIN when full"

(* --- processes, fds, syscalls --- *)

let make_host () = Host.create ~seed:1 ()

let test_proc_fd_lifecycle () =
  let host = make_host () in
  let p = Host.spawn host ~name:"test" () in
  let fd = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  check cbool "fd num >= 3" true (fd.Fd.num >= 3);
  (match Proc.fd p fd.Fd.num with
  | Ok f -> check cstr "label" "anon_inode:[eventfd]" f.Fd.label
  | Error _ -> Alcotest.fail "fd lookup");
  (match Proc.close_fd p fd.Fd.num with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "close");
  match Proc.fd p fd.Fd.num with
  | Error Errno.EBADF -> ()
  | _ -> Alcotest.fail "expected EBADF after close"

let test_eventfd_semantics () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let fd = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  Fd.eventfd_signal fd;
  Fd.eventfd_signal fd;
  check (Alcotest.option cint) "count" (Some 2) (Fd.eventfd_count fd);
  (match fd.Fd.ops.read ~len:8 with
  | Ok b -> check cint "drained value" 2 (Int64.to_int (Bytes.get_int64_le b 0))
  | Error _ -> Alcotest.fail "read");
  check (Alcotest.option cint) "drained" (Some 0) (Fd.eventfd_count fd)

let test_syscall_mmap_and_memory () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let th = Proc.main_thread p in
  let base = Syscall.call host p th ~nr:Syscall.Nr.mmap ~args:[| 0; 8192 |] in
  check cbool "mmap returns address" true (base >= Syscall.mmap_area_base);
  Mem.Addr_space.write_u64 p.Proc.aspace base 4242;
  check cint "memory readable" 4242 (Mem.Addr_space.read_u64 p.Proc.aspace base)

let test_syscall_bad_fd () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let th = Proc.main_thread p in
  let ret = Syscall.call host p th ~nr:Syscall.Nr.close ~args:[| 99 |] in
  check result_int "EBADF" (Error Errno.EBADF) (Errno.of_syscall_ret ret)

let test_syscall_seccomp_blocks () =
  let host = make_host () in
  let p = Host.spawn host ~name:"t" () in
  let th = Proc.main_thread p in
  th.Proc.seccomp <-
    Some { Proc.filter_name = "no-mmap"; allows = (fun nr -> nr <> Syscall.Nr.mmap) };
  let ret = Syscall.call host p th ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  check result_int "seccomp EPERM" (Error Errno.EPERM) (Errno.of_syscall_ret ret);
  let ret = Syscall.call host p th ~nr:Syscall.Nr.eventfd2 ~args:[||] in
  check cbool "other syscalls pass" true (ret >= 0)

let test_process_vm_rw () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let vmsh = Host.spawn host ~name:"vmsh" ~uid:1000 () in
  let th = Proc.main_thread hyp in
  let base = Syscall.call host hyp th ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] in
  (match
     Host.process_vm_write host ~caller:vmsh ~pid:hyp.Proc.pid ~addr:base
       (Bytes.of_string "sideload")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write");
  match
    Host.process_vm_read host ~caller:vmsh ~pid:hyp.Proc.pid ~addr:base ~len:8
  with
  | Ok b -> check cstr "roundtrip" "sideload" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "read"

let test_process_vm_permissions () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let other = Host.spawn host ~name:"other" ~uid:2000 () in
  (match
     Host.process_vm_read host ~caller:other ~pid:hyp.Proc.pid ~addr:0 ~len:8
   with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM across uids");
  other.Proc.caps <- [ Proc.CAP_SYS_PTRACE ];
  match
    Host.process_vm_read host ~caller:other ~pid:hyp.Proc.pid ~addr:0 ~len:8
  with
  | Error Errno.EFAULT -> () (* allowed, but address unmapped *)
  | Error e -> Alcotest.failf "expected EFAULT, got %a" Errno.pp e
  | Ok _ -> Alcotest.fail "expected EFAULT"

(* --- /proc --- *)

let test_proc_fd_labels () =
  let host = make_host () in
  let p = Host.spawn host ~name:"qemu" () in
  let _e = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
  let listing = Host.proc_fd_listing host ~pid:p.Proc.pid in
  check cbool "eventfd visible" true
    (List.exists (fun (_, l) -> l = "anon_inode:[eventfd]") listing);
  check cstr "comm" "qemu"
    (match Host.proc_comm host ~pid:p.Proc.pid with Ok s -> s | Error _ -> "")

(* --- ptrace --- *)

let test_ptrace_attach_permissions () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" ~uid:1000 () in
  let stranger = Host.spawn host ~name:"x" ~uid:2000 () in
  (match Ptrace.attach host ~tracer:stranger ~pid:hyp.Proc.pid with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM");
  let vmsh = Host.spawn host ~name:"vmsh" ~uid:1000 () in
  match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach failed: %a" Errno.pp e

let test_ptrace_double_attach_refused () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let a = Host.spawn host ~name:"a" () in
  let b = Host.spawn host ~name:"b" () in
  (match Ptrace.attach host ~tracer:a ~pid:hyp.Proc.pid with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first attach");
  match Ptrace.attach host ~tracer:b ~pid:hyp.Proc.pid with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "second attach should fail"

let test_ptrace_inject_syscall () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let s =
    match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
    | Ok s -> s
    | Error _ -> Alcotest.fail "attach"
  in
  let before = X86.Regs.copy (Proc.main_thread hyp).Proc.regs in
  let ret =
    Ptrace.inject_syscall host s ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] ()
  in
  (match ret with
  | Ok base ->
      check cbool "injected mmap worked" true (base > 0);
      (* The memory exists in the tracee's address space. *)
      check cbool "mapping is in tracee" true
        (Mem.Addr_space.resolve hyp.Proc.aspace base <> None)
  | Error e -> Alcotest.failf "inject: %a" Errno.pp e);
  let after = (Proc.main_thread hyp).Proc.regs in
  check cbool "registers restored" true (X86.Regs.equal before after)

let test_ptrace_inject_respects_seccomp () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"firecracker" () in
  (Proc.main_thread hyp).Proc.seccomp <-
    Some
      {
        Proc.filter_name = "firecracker-vcpu";
        allows = (fun nr -> nr = Syscall.Nr.ioctl || nr = Syscall.Nr.read);
      };
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let s =
    match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
    | Ok s -> s
    | Error _ -> Alcotest.fail "attach"
  in
  match Ptrace.inject_syscall host s ~nr:Syscall.Nr.mmap ~args:[| 0; 4096 |] () with
  | Ok ret -> check result_int "EPERM" (Error Errno.EPERM) (Errno.of_syscall_ret ret)
  | Error e -> Alcotest.failf "inject transport failed: %a" Errno.pp e

let test_ptrace_hooks_fire_and_charge () =
  let host = make_host () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let s =
    match Ptrace.attach host ~tracer:vmsh ~pid:hyp.Proc.pid with
    | Ok s -> s
    | Error _ -> Alcotest.fail "attach"
  in
  let entries = ref 0 and exits = ref 0 in
  Ptrace.hook_syscalls host s
    ~on_entry:(fun _ -> incr entries)
    ~on_exit:(fun _ -> incr exits; Proc.Deliver);
  let th = Proc.main_thread hyp in
  let stops_before = (Clock.counters host.Host.clock).Clock.ptrace_stops in
  ignore (Syscall.call host hyp th ~nr:Syscall.Nr.eventfd2 ~args:[||]);
  check cint "entry hook fired" 1 !entries;
  check cint "exit hook fired" 1 !exits;
  let stops_after = (Clock.counters host.Host.clock).Clock.ptrace_stops in
  check cint "two ptrace stops charged" 2 (stops_after - stops_before);
  Ptrace.unhook_syscalls host s;
  ignore (Syscall.call host hyp th ~nr:Syscall.Nr.eventfd2 ~args:[||]);
  check cint "no hooks after unhook" 1 !entries

(* --- eBPF --- *)

let test_ebpf_requires_privilege () =
  let host = make_host () in
  let p = Host.spawn host ~name:"vmsh" () in
  let prog = { Ebpf.name = "memslots"; insn_count = 64; run = (fun _ -> ()) } in
  (match Host.attach_ebpf host ~caller:p ~hook:"kvm_vm_ioctl" prog with
  | Error Errno.EPERM -> ()
  | _ -> Alcotest.fail "expected EPERM without CAP_BPF");
  p.Proc.caps <- [ Proc.CAP_BPF ];
  match Host.attach_ebpf host ~caller:p ~hook:"kvm_vm_ioctl" prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attach: %a" Errno.pp e

let test_ebpf_verifier_rejects_huge () =
  let host = make_host () in
  let p = Host.spawn host ~name:"vmsh" ~caps:[ Proc.CAP_BPF ] () in
  let prog = { Ebpf.name = "huge"; insn_count = 100000; run = (fun _ -> ()) } in
  match Host.attach_ebpf host ~caller:p ~hook:"h" prog with
  | Error Errno.EINVAL -> ()
  | _ -> Alcotest.fail "expected EINVAL"

let test_ebpf_fires_with_output () =
  let host = make_host () in
  let p = Host.spawn host ~name:"vmsh" ~caps:[ Proc.CAP_BPF ] () in
  let prog =
    {
      Ebpf.name = "echo";
      insn_count = 8;
      run = (fun ctx -> ctx.Ebpf.output <- Some (Bytes.of_string "hit"));
    }
  in
  (match Host.attach_ebpf host ~caller:p ~hook:"kvm_vm_ioctl" prog with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "attach");
  match Host.fire_ebpf host ~hook:"kvm_vm_ioctl" ~args:[| 1 |] Ebpf.No_data with
  | Some b -> check cstr "output" "hit" (Bytes.to_string b)
  | None -> Alcotest.fail "no output"

(* --- unix sockets with fd passing --- *)

let test_unix_socket_fd_passing () =
  let host = make_host () in
  let vmsh = Host.spawn host ~name:"vmsh" () in
  let hyp = Host.spawn host ~name:"hyp" () in
  let listener =
    match Host.unix_bind host vmsh ~path:"/tmp/vmsh.sock" with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "bind"
  in
  let hyp_sock =
    match Host.unix_connect host hyp ~path:"/tmp/vmsh.sock" with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "connect"
  in
  let vmsh_sock =
    match Host.unix_accept host vmsh ~listener with
    | Ok fd -> fd
    | Error _ -> Alcotest.fail "accept"
  in
  (* pass an eventfd from hypervisor to vmsh *)
  let ev = Proc.install_fd hyp (fun ~num -> Fd.eventfd ~num) in
  (match Host.send_fd host ~sock:hyp_sock ev with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send_fd");
  match Host.recv_fd host vmsh ~sock:vmsh_sock with
  | Ok received ->
      Fd.eventfd_signal ev;
      check (Alcotest.option cint) "same open file description" (Some 1)
        (Fd.eventfd_count received)
  | Error _ -> Alcotest.fail "recv_fd"

let test_unix_socket_data () =
  let host = make_host () in
  let a = Host.spawn host ~name:"a" () in
  let b = Host.spawn host ~name:"b" () in
  ignore (Host.unix_bind host a ~path:"/s");
  let bsock =
    match Host.unix_connect host b ~path:"/s" with Ok f -> f | Error _ -> assert false
  in
  let listener =
    match Proc.fd a 3 with Ok f -> f | Error _ -> assert false
  in
  let asock =
    match Host.unix_accept host a ~listener with Ok f -> f | Error _ -> assert false
  in
  ignore (bsock.Fd.ops.write (Bytes.of_string "ping"));
  match asock.Fd.ops.read ~len:16 with
  | Ok data -> check cstr "data" "ping" (Bytes.to_string data)
  | Error _ -> Alcotest.fail "read"

(* --- property tests --- *)

let prop_chan_preserves_bytes =
  QCheck.Test.make ~name:"chan writes then reads preserve content" ~count:100
    QCheck.(list (string_of_size Gen.(int_bound 200)))
    (fun chunks ->
      let c = Chan.create ~capacity:max_int ()
      and expected = Buffer.create 64 in
      List.iter
        (fun s ->
          Buffer.add_string expected s;
          match Chan.write c (Bytes.of_string s) with
          | Ok n -> assert (n = String.length s)
          | Error _ -> assert (String.length s = 0))
        chunks;
      let got = Buffer.create 64 in
      let rec drain () =
        match Chan.read c 64 with
        | Ok b when Bytes.length b > 0 ->
            Buffer.add_bytes got b;
            drain ()
        | _ -> ()
      in
      drain ();
      Buffer.contents got = Buffer.contents expected)

let prop_aspace_find_free_never_overlaps =
  QCheck.Test.make ~name:"find_free result never overlaps mappings" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 10) (pair (int_bound 100) (int_range 1 16)))
    (fun specs ->
      let open Mem.Addr_space in
      let sp = create () in
      List.iter
        (fun (hint, pages) ->
          let len = pages * 4096 in
          let base = find_free sp ~hint:(hint * 4096) ~len in
          map sp
            { base; len; backing = Mem.create len; backing_off = 0; tag = "x" })
        specs;
      (* map never raised, so no overlap occurred *)
      true)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "hostos.rng",
      [
        t "determinism" test_rng_determinism;
        t "bounds" test_rng_bounds;
        t "split" test_rng_split_independent;
      ] );
    ( "hostos.clock",
      [
        t "charges" test_clock_charges;
        t "copy scales" test_clock_copy_scales;
        t "snapshot" test_clock_snapshot_independent;
      ] );
    ( "hostos.mem",
      [
        t "u64 roundtrip" test_mem_u64_roundtrip;
        t "u64 rejects 63-bit" test_mem_u64_rejects_63bit;
        t "cstr" test_mem_cstr;
        t "aspace mapping" test_aspace_mapping;
        t "aspace overlap rejected" test_aspace_overlap_rejected;
        t "aspace find_free" test_aspace_find_free;
        t "aspace cross-mapping read" test_aspace_cross_mapping_read;
        t "zero-base overlay semantics" test_mem_zero_base_overlay;
        t "zero-base overlay matches flat" test_mem_zero_base_matches_flat;
        t "page digest per page kind" test_mem_page_digest;
        QCheck_alcotest.to_alcotest prop_aspace_find_free_never_overlaps;
      ] );
    ( "hostos.chan",
      [
        t "fifo" test_chan_fifo;
        t "eagain" test_chan_eagain_empty;
        t "capacity" test_chan_capacity;
        QCheck_alcotest.to_alcotest prop_chan_preserves_bytes;
      ] );
    ( "hostos.proc",
      [
        t "fd lifecycle" test_proc_fd_lifecycle;
        t "eventfd" test_eventfd_semantics;
        t "fd labels" test_proc_fd_labels;
      ] );
    ( "hostos.syscall",
      [
        t "mmap" test_syscall_mmap_and_memory;
        t "bad fd" test_syscall_bad_fd;
        t "seccomp" test_syscall_seccomp_blocks;
        t "process_vm rw" test_process_vm_rw;
        t "process_vm perms" test_process_vm_permissions;
      ] );
    ( "hostos.ptrace",
      [
        t "attach perms" test_ptrace_attach_permissions;
        t "double attach" test_ptrace_double_attach_refused;
        t "inject syscall" test_ptrace_inject_syscall;
        t "inject respects seccomp" test_ptrace_inject_respects_seccomp;
        t "hooks fire and charge" test_ptrace_hooks_fire_and_charge;
      ] );
    ( "hostos.ebpf",
      [
        t "privilege" test_ebpf_requires_privilege;
        t "verifier" test_ebpf_verifier_rejects_huge;
        t "fires" test_ebpf_fires_with_output;
      ] );
    ( "hostos.unix",
      [
        t "fd passing" test_unix_socket_fd_passing;
        t "data" test_unix_socket_data;
      ] );
  ]
