(* Unit tests for the VirtIO layer: virtqueues over raw memory, the MMIO
   register machine, and the blk request codec — all without a VM (the
   gmem accessors go straight to a byte buffer). *)

module Mem = Hostos.Mem
module Q = Virtio.Queue
module Gmem = Virtio.Gmem
module Mmio = Virtio.Mmio

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int

let raw_gmem size =
  let m = Mem.create size in
  ( m,
    {
      Gmem.read_into =
        (fun ~addr buf ~off ~len ->
          Mem.blit ~src:m ~src_off:addr ~dst:(Mem.of_bytes buf) ~dst_off:off ~len);
      write_from =
        (fun ~addr buf ~off ~len ->
          Mem.blit ~src:(Mem.of_bytes buf) ~src_off:off ~dst:m ~dst_off:addr ~len);
    } )

let make_queue ?(qsz = 8) () =
  let _, g = raw_gmem 65536 in
  let desc, avail, used, _total = Q.bytes_needed ~qsz in
  let driver = Q.Driver.create g ~qsz ~desc:(0x100 + desc) ~avail:(0x100 + avail) ~used:(0x100 + used) in
  let device = Q.Device.create g ~qsz ~desc:(0x100 + desc) ~avail:(0x100 + avail) ~used:(0x100 + used) in
  (g, driver, device)

let test_queue_add_pop () =
  let _, driver, device = make_queue () in
  let head =
    match Q.Driver.add driver ~out:[ (0x1000, 16) ] ~in_:[ (0x2000, 64) ] with
    | Some h -> h
    | None -> Alcotest.fail "add"
  in
  match Q.Device.pop device with
  | None -> Alcotest.fail "pop"
  | Some (h, bufs) ->
      check cint "same head" head h;
      check cint "chain length" 2 (List.length bufs);
      let b1 = List.nth bufs 0 and b2 = List.nth bufs 1 in
      check cint "out addr" 0x1000 b1.Q.Device.addr;
      check cbool "out readable" false b1.Q.Device.writable;
      check cint "in len" 64 b2.Q.Device.len;
      check cbool "in writable" true b2.Q.Device.writable

let test_queue_used_flow () =
  let _, driver, device = make_queue () in
  let head = Option.get (Q.Driver.add driver ~out:[ (0x1000, 8) ] ~in_:[]) in
  check cbool "nothing used yet" false (Q.Driver.used_pending driver);
  (match Q.Device.pop device with
  | Some (h, _) -> Q.Device.push_used device ~head:h ~written:5
  | None -> Alcotest.fail "pop");
  check cbool "used pending" true (Q.Driver.used_pending driver);
  (match Q.Driver.poll_used driver with
  | Some (h, written) ->
      check cint "head" head h;
      check cint "written" 5 written
  | None -> Alcotest.fail "poll_used");
  check cbool "drained" false (Q.Driver.used_pending driver)

let test_queue_exhaustion_and_reuse () =
  let _, driver, device = make_queue ~qsz:4 () in
  (* 2 descriptors per chain: the 4-entry table fits 2 chains *)
  let h1 = Q.Driver.add driver ~out:[ (0, 8) ] ~in_:[ (8, 8) ] in
  let h2 = Q.Driver.add driver ~out:[ (16, 8) ] ~in_:[ (24, 8) ] in
  let h3 = Q.Driver.add driver ~out:[ (32, 8) ] ~in_:[ (40, 8) ] in
  check cbool "first two fit" true (h1 <> None && h2 <> None);
  check cbool "third rejected" true (h3 = None);
  (* complete one chain; descriptors become reusable *)
  (match Q.Device.pop device with
  | Some (h, _) -> Q.Device.push_used device ~head:h ~written:0
  | None -> Alcotest.fail "pop");
  ignore (Q.Driver.poll_used driver);
  check cbool "space again" true
    (Q.Driver.add driver ~out:[ (48, 8) ] ~in_:[ (56, 8) ] <> None)

let test_queue_fifo_order () =
  let _, driver, device = make_queue ~qsz:16 () in
  let heads =
    List.init 5 (fun i -> Option.get (Q.Driver.add driver ~out:[ (i * 64, 8) ] ~in_:[]))
  in
  let popped =
    List.init 5 (fun _ ->
        match Q.Device.pop device with
        | Some (h, bufs) -> (h, (List.hd bufs).Q.Device.addr)
        | None -> Alcotest.fail "pop")
  in
  List.iteri
    (fun i (h, addr) ->
      check cint "head order" (List.nth heads i) h;
      check cint "addr order" (i * 64) addr)
    popped

(* --- MMIO register machine --- *)

let dev_read32 regs off =
  let b = Mmio.Device.read regs ~off ~len:4 in
  Int32.to_int (Bytes.get_int32_le b 0) land 0xffffffff

let dev_write32 regs off v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Mmio.Device.write regs ~off b

let test_mmio_identity_regs () =
  let regs =
    Mmio.Device.create ~device_id:2 ~num_queues:1 ~config:(Bytes.make 8 '\x07') ()
  in
  check cint "magic" Mmio.magic_value (dev_read32 regs Mmio.reg_magic);
  check cint "version" 2 (dev_read32 regs Mmio.reg_version);
  check cint "device id" 2 (dev_read32 regs Mmio.reg_device_id);
  check cint "config byte" 0x07070707 (dev_read32 regs Mmio.reg_config)

let test_mmio_queue_setup_and_notify () =
  let regs =
    Mmio.Device.create ~device_id:2 ~num_queues:2 ~config:Bytes.empty ()
  in
  let notified = ref (-1) in
  Mmio.Device.set_notify regs (fun ~queue -> notified := queue);
  dev_write32 regs Mmio.reg_queue_sel 1;
  dev_write32 regs Mmio.reg_queue_num 64;
  dev_write32 regs Mmio.reg_queue_desc_lo 0x3000;
  dev_write32 regs Mmio.reg_queue_avail_lo 0x4000;
  dev_write32 regs Mmio.reg_queue_used_lo 0x5000;
  dev_write32 regs Mmio.reg_queue_ready 1;
  let q = Mmio.Device.queue regs 1 in
  check cint "num" 64 q.Mmio.Device.num;
  check cint "desc" 0x3000 q.Mmio.Device.desc;
  check cbool "ready" true q.Mmio.Device.ready;
  dev_write32 regs Mmio.reg_queue_notify 1;
  check cint "notify fired with queue" 1 !notified

let test_mmio_interrupt_latch () =
  let regs = Mmio.Device.create ~device_id:3 ~num_queues:1 ~config:Bytes.empty () in
  check cbool "no irq initially" false (Mmio.Device.irq_pending regs);
  Mmio.Device.assert_irq regs;
  check cbool "latched" true (Mmio.Device.irq_pending regs);
  check cint "guest reads status" 1 (dev_read32 regs Mmio.reg_int_status);
  dev_write32 regs Mmio.reg_int_ack 1;
  check cbool "acked" false (Mmio.Device.irq_pending regs)

(* --- blk device processing over raw memory --- *)

let test_blk_device_serves_requests () =
  let m, g = raw_gmem 262144 in
  let qsz = 8 in
  let desc, avail, used, _ = Q.bytes_needed ~qsz in
  let base = 0x8000 in
  let driver = Q.Driver.create g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used) in
  let device = Q.Device.create g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used) in
  let backend_store = Blockdev.Backend.create ~blocks:16 () in
  let backend = Virtio.Blk.Device.backend_of_blockdev (Blockdev.Backend.dev backend_store) in
  (* put recognisable data on the disk *)
  (Blockdev.Backend.dev backend_store).Blockdev.Dev.write_block 1
    (Bytes.make 4096 'Z');
  (* build a read request for sector 8 (block 1): header @0x100,
     data @0x1000, status @0x2000 *)
  let hdr = Bytes.make 16 '\000' in
  Bytes.set_int32_le hdr 0 (Int32.of_int Virtio.Blk.t_in);
  Bytes.set_int64_le hdr 8 8L;
  Mem.write_bytes m 0x100 hdr;
  ignore
    (Q.Driver.add driver
       ~out:[ (0x100, 16) ]
       ~in_:[ (0x1000, 4096); (0x2000, 1) ]);
  let n = Virtio.Blk.Device.process device g (Virtio.Blk.Device.create backend) in
  check cint "one request served" 1 n;
  check cint "status ok" Virtio.Blk.status_ok (Mem.read_u8 m 0x2000);
  check cbool "data landed" true
    (Bytes.for_all (fun c -> c = 'Z') (Mem.read_bytes m 0x1000 4096));
  match Q.Driver.poll_used driver with
  | Some (_, written) -> check cint "written len" 4097 written
  | None -> Alcotest.fail "no used entry"

let test_blk_device_rejects_out_of_range () =
  let m, g = raw_gmem 65536 in
  let qsz = 4 in
  let desc, avail, used, _ = Q.bytes_needed ~qsz in
  let base = 0x8000 in
  let driver = Q.Driver.create g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used) in
  let device = Q.Device.create g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used) in
  let store = Blockdev.Backend.create ~blocks:2 () in
  let backend = Virtio.Blk.Device.backend_of_blockdev (Blockdev.Backend.dev store) in
  let hdr = Bytes.make 16 '\000' in
  Bytes.set_int32_le hdr 0 (Int32.of_int Virtio.Blk.t_out);
  Bytes.set_int64_le hdr 8 4096L (* far beyond a 2-block device *);
  Mem.write_bytes m 0x100 hdr;
  Mem.write_bytes m 0x1000 (Bytes.make 512 'w');
  ignore (Q.Driver.add driver ~out:[ (0x100, 16); (0x1000, 512) ] ~in_:[ (0x2000, 1) ]);
  ignore (Virtio.Blk.Device.process device g (Virtio.Blk.Device.create backend));
  check cint "status ioerr" Virtio.Blk.status_ioerr (Mem.read_u8 m 0x2000)

let test_blk_device_unknown_type () =
  let m, g = raw_gmem 65536 in
  let qsz = 4 in
  let desc, avail, used, _ = Q.bytes_needed ~qsz in
  let base = 0x8000 in
  let driver = Q.Driver.create g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used) in
  let device = Q.Device.create g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used) in
  let store = Blockdev.Backend.create ~blocks:2 () in
  let backend = Virtio.Blk.Device.backend_of_blockdev (Blockdev.Backend.dev store) in
  let hdr = Bytes.make 16 '\000' in
  Bytes.set_int32_le hdr 0 99l;
  Mem.write_bytes m 0x100 hdr;
  ignore (Q.Driver.add driver ~out:[ (0x100, 16) ] ~in_:[ (0x2000, 1) ]);
  ignore (Virtio.Blk.Device.process device g (Virtio.Blk.Device.create backend));
  check cint "status unsupported" Virtio.Blk.status_unsupp (Mem.read_u8 m 0x2000)

(* --- 9p codec --- *)

let test_ninep_codec () =
  let reqs =
    [
      Virtio.Ninep.Read { path = "/x"; off = 123; len = 456 };
      Virtio.Ninep.Write { path = "/long/path/name"; off = 0; data = Bytes.of_string "payload" };
      Virtio.Ninep.Create "/new";
      Virtio.Ninep.Stat "/s";
    ]
  in
  List.iter
    (fun r ->
      match Virtio.Ninep.decode_request (Virtio.Ninep.encode_request r) with
      | Some r' -> check cbool "roundtrip" true (r = r')
      | None -> Alcotest.fail "decode failed")
    reqs;
  let resp = { Virtio.Ninep.status = 0; payload = Bytes.of_string "data!" } in
  match Virtio.Ninep.decode_response (Virtio.Ninep.encode_response resp) with
  | Some r -> check cbool "response roundtrip" true (r = resp)
  | None -> Alcotest.fail "response decode"

(* A full 9p exchange through a virtqueue: encoded request in the
   out-buffers, response written back through the in-buffers, exactly
   how Devices.process_ninep serves the side-loaded driver. *)
let test_ninep_through_virtqueue () =
  let m, g = raw_gmem 65536 in
  let qsz = 8 in
  let desc, avail, used, _ = Q.bytes_needed ~qsz in
  let base = 0x4000 in
  let driver = Q.Driver.create g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used) in
  let device = Q.Device.create g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used) in
  let store = Hashtbl.create 4 in
  let backend =
    {
      Virtio.Ninep.Device.handle =
        (fun req ->
          match req with
          | Virtio.Ninep.Write { path; data; _ } ->
              Hashtbl.replace store path data;
              { Virtio.Ninep.status = 0; payload = Bytes.empty }
          | Virtio.Ninep.Read { path; off; len } -> (
              match Hashtbl.find_opt store path with
              | None -> { Virtio.Ninep.status = 2; payload = Bytes.empty }
              | Some b ->
                  let n = min len (Bytes.length b - off) in
                  { Virtio.Ninep.status = 0; payload = Bytes.sub b off n })
          | _ -> { Virtio.Ninep.status = 38; payload = Bytes.empty });
    }
  in
  let roundtrip req =
    let raw = Virtio.Ninep.encode_request req in
    Mem.write_bytes m 0x100 raw;
    let head =
      Option.get
        (Q.Driver.add driver
           ~out:[ (0x100, Bytes.length raw) ]
           ~in_:[ (0x2000, 512) ])
    in
    check cint "device served one request" 1
      (Virtio.Ninep.Device.process device g backend);
    match Q.Driver.poll_used driver with
    | None -> Alcotest.fail "no used entry"
    | Some (h, written) ->
        check cint "same head" head h;
        check cbool "response written" true (written > 0);
        ignore (Q.Driver.completed driver ~head:h);
        (match
           Virtio.Ninep.decode_response (Mem.read_bytes m 0x2000 written)
         with
        | Some r -> r
        | None -> Alcotest.fail "response decode")
  in
  let w =
    roundtrip
      (Virtio.Ninep.Write
         { path = "/msg"; off = 0; data = Bytes.of_string "hello 9p" })
  in
  check cint "write ok" 0 w.Virtio.Ninep.status;
  let r = roundtrip (Virtio.Ninep.Read { path = "/msg"; off = 6; len = 2 }) in
  check cint "read ok" 0 r.Virtio.Ninep.status;
  check Alcotest.string "read payload" "9p"
    (Bytes.to_string r.Virtio.Ninep.payload);
  let miss = roundtrip (Virtio.Ninep.Read { path = "/nope"; off = 0; len = 1 }) in
  check cint "missing file errors" 2 miss.Virtio.Ninep.status

(* The SimpleFS-backed server qemu-9p and vmsh-9p both run: payloads,
   status codes, and the exact host charges of every message. *)
let test_ninep_simplefs_server () =
  let module N = Virtio.Ninep in
  let module C = Hostos.Clock in
  let fs =
    match
      Blockdev.Simplefs.mkfs
        (Blockdev.Backend.dev (Blockdev.Backend.create ~blocks:256 ()))
        ()
    with
    | Ok fs -> fs
    | Error _ -> Alcotest.fail "mkfs"
  in
  let clock = C.create () in
  let server = N.Device.backend_of_simplefs ~clock fs in
  (* every message: 2 context switches, 4 syscalls, 4 fs ops, plus
     [pages] page-cache hits *)
  let send req ~pages =
    let before = C.snapshot clock in
    let r = server.N.Device.handle req in
    let after = C.snapshot clock in
    let expected =
      {
        before with
        C.context_switches = before.C.context_switches + 2;
        syscalls = before.C.syscalls + 4;
        fs_ops = before.C.fs_ops + 4;
        page_cache_hits = before.C.page_cache_hits + pages;
      }
    in
    check cbool "counter deltas" true (after = expected);
    r
  in
  let u64 b = Int64.to_int (Bytes.get_int64_le b 0) in
  let ok what r = check cint (what ^ " status") 0 r.N.status in
  let r = send (N.Create "/a") ~pages:0 in
  ok "create" r;
  check cint "create payload" 0 (Bytes.length r.N.payload);
  let data = Bytes.init 5000 (fun i -> Char.chr (i land 0xff)) in
  (* writing a missing path creates it *)
  let r = send (N.Write { path = "/b"; off = 0; data }) ~pages:2 in
  ok "write" r;
  check cint "write payload size" 8 (Bytes.length r.N.payload);
  check cint "bytes written" 5000 (u64 r.N.payload);
  let r = send (N.Write { path = "/a"; off = 0; data = Bytes.of_string "hi" }) ~pages:1 in
  ok "small write" r;
  check cint "small write count" 2 (u64 r.N.payload);
  (* an empty transfer still touches one page *)
  let r = send (N.Write { path = "/a"; off = 2; data = Bytes.empty }) ~pages:1 in
  check cint "empty write count" 0 (u64 r.N.payload);
  let r = send (N.Read { path = "/a"; off = 0; len = 0 }) ~pages:1 in
  ok "empty read" r;
  check cint "empty read payload" 0 (Bytes.length r.N.payload);
  let r = send (N.Read { path = "/b"; off = 0; len = 6000 }) ~pages:2 in
  ok "read" r;
  check cbool "read payload" true (Bytes.equal r.N.payload data);
  let r = send (N.Read { path = "/b"; off = 4096; len = 100 }) ~pages:1 in
  ok "offset read" r;
  check cbool "offset read payload" true
    (Bytes.equal r.N.payload (Bytes.sub data 4096 100));
  let r = send (N.Stat "/b") ~pages:0 in
  ok "stat" r;
  check cint "stat payload size" 16 (Bytes.length r.N.payload);
  check cint "stat size" 5000 (u64 r.N.payload);
  let r = send (N.Read { path = "/missing"; off = 0; len = 10 }) ~pages:1 in
  check cint "missing read is ENOENT"
    (Hostos.Errno.to_code Hostos.Errno.ENOENT)
    r.N.status;
  check cint "error payload" 0 (Bytes.length r.N.payload);
  ok "create existing" (send (N.Create "/a") ~pages:0)

(* --- the shared device-side gather/scatter --- *)

(* A Gmem over raw memory that logs every call: the guest range, the
   caller's buffer and offset, and (for writes) the bytes handed over. *)
type gmem_call =
  | Read of { addr : int; buf : bytes; off : int; len : int }
  | Write of { addr : int; buf : bytes; off : int; data : bytes }

let logging_gmem size =
  let m, g = raw_gmem size in
  let log = ref [] in
  ( m,
    {
      Gmem.read_into =
        (fun ~addr buf ~off ~len ->
          log := Read { addr; buf; off; len } :: !log;
          g.Gmem.read_into ~addr buf ~off ~len);
      write_from =
        (fun ~addr buf ~off ~len ->
          log := Write { addr; buf; off; data = Bytes.sub buf off len } :: !log;
          g.Gmem.write_from ~addr buf ~off ~len);
    },
    fun () -> List.rev !log )

(* Chains of 1-6 buffers laid out back to back, with mixed writability
   and lengths 1-5000; [seed] fills guest memory, [dlen] sizes the data
   to scatter. *)
let prop_gather_scatter =
  QCheck.Test.make ~name:"gather/scatter follow the chain" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 6) (pair bool (int_range 1 5000)))
        (int_range 0 1_000_000) (int_range 0 12_000))
    (fun (shape, seed, dlen) ->
      let size = 6 * 5000 + 4096 in
      let m, g, calls = logging_gmem size in
      let rng = Random.State.make [| seed |] in
      Mem.write_bytes m 0 (Bytes.init size (fun _ -> Char.chr (Random.State.int rng 256)));
      let chain, _ =
        List.fold_left
          (fun (acc, addr) (writable, len) ->
            ({ Q.Device.addr; len; writable } :: acc, addr + len))
          ([], 0) shape
      in
      let chain = List.rev chain in
      let readable = List.filter (fun b -> not b.Q.Device.writable) chain in
      let expected_gather =
        Bytes.concat Bytes.empty
          (List.map
             (fun b -> Mem.read_bytes m b.Q.Device.addr b.Q.Device.len)
             readable)
      in
      (* gather: the readable buffers in order, one read each, straight
         into consecutive bytes of the caller's buffer *)
      let dst = Bytes.make (Bytes.length expected_gather + 7) '#' in
      let n = Virtio.Plumbing.Device.gather_into g chain dst in
      let gather_calls = calls () in
      let rec reads_follow off calls bufs =
        match (calls, bufs) with
        | [], [] -> true
        | Read r :: calls, b :: bufs ->
            r.addr = b.Q.Device.addr && r.len = b.Q.Device.len && r.buf == dst
            && r.off = off
            && reads_follow (off + r.len) calls bufs
        | _ -> false
      in
      let gather_ok =
        n = Bytes.length expected_gather
        && n = Virtio.Plumbing.Device.readable_len chain
        && Bytes.equal (Bytes.sub dst 0 n) expected_gather
        && Bytes.sub_string dst n 7 = "#######"
        && reads_follow 0 gather_calls readable
        && Bytes.equal (Virtio.Plumbing.Device.gather g chain) expected_gather
      in
      let before_scatter = List.length (calls ()) in
      (* scatter: [min len remaining] at each writable buffer, in order,
         each straight from the caller's buffer *)
      let data = Bytes.init (dlen + 5) (fun _ -> Char.chr (Random.State.int rng 256)) in
      let written = Virtio.Plumbing.Device.scatter g chain data ~len:dlen in
      let scatter_calls =
        List.filteri (fun i _ -> i >= before_scatter) (calls ())
      in
      let rec expect off = function
        | [] -> []
        | b :: rest when (not b.Q.Device.writable) || off >= dlen -> expect off rest
        | b :: rest ->
            let n = min b.Q.Device.len (dlen - off) in
            (b.Q.Device.addr, off, n) :: expect (off + n) rest
      in
      let expected = expect 0 chain in
      let scatter_ok =
        written = List.fold_left (fun a (_, _, n) -> a + n) 0 expected
        && List.length scatter_calls = List.length expected
        && List.for_all2
             (fun call (addr, off, n) ->
               match call with
               | Write w ->
                   w.addr = addr && w.buf == data && w.off = off
                   && Bytes.equal w.data (Bytes.sub data off n)
                   && Bytes.equal (Mem.read_bytes m addr n) (Bytes.sub data off n)
               | Read _ -> false)
             scatter_calls expected
      in
      gather_ok && scatter_ok)

(* --- hostile-guest hardening: forged rings and malformed chains ---

   These own both ring halves directly, which lets them mount the
   ring-index attacks the in-VM hostile engine deliberately avoids
   (forging shared indices also desyncs the attacker's own driver, so
   end-to-end they are indistinguishable from a guest hanging itself). *)

let make_hostile_queue ?torn ?on_requeue ?validate ?on_quarantine
    ?on_ring_reset ?quarantine_limit ?(qsz = 8) () =
  let m, g = raw_gmem 65536 in
  let desc, avail, used, _total = Q.bytes_needed ~qsz in
  let base = 0x100 in
  let driver =
    Q.Driver.create g ~qsz ~desc:(base + desc) ~avail:(base + avail)
      ~used:(base + used)
  in
  let device =
    Q.Device.create ?torn ?on_requeue ?validate ?on_quarantine ?on_ring_reset
      ?quarantine_limit g ~qsz ~desc:(base + desc) ~avail:(base + avail)
      ~used:(base + used)
  in
  (m, driver, device, (base + desc, base + avail, base + used))

(* A used element whose id was never posted must be dropped — freeing it
   would push a descriptor we do not own onto the free list. *)
let test_forged_used_id_dropped () =
  let _, driver, device, _ = make_hostile_queue () in
  let head = Option.get (Q.Driver.add driver ~out:[ (0x1000, 8) ] ~in_:[]) in
  Q.Device.push_used device ~head:((head + 3) mod 8) ~written:99;
  check cbool "forged completion ignored" true
    (Q.Driver.poll_used driver = None);
  check cint "request still in flight" 1 (Q.Driver.in_flight driver);
  (match Q.Device.pop device with
  | Some (h, _) -> Q.Device.push_used device ~head:h ~written:4
  | None -> Alcotest.fail "pop");
  (match Q.Driver.poll_used driver with
  | Some (h, w) ->
      check cint "real head" head h;
      check cint "real written" 4 w
  | None -> Alcotest.fail "real completion lost");
  check cint "drained" 0 (Q.Driver.in_flight driver)

(* An avail-ring slot rewritten to an out-of-range index after publish:
   pop must re-read once, then skip — never build a chain from it. *)
let test_corrupt_avail_head_skipped () =
  let requeues = ref 0 in
  let m, driver, device, (_, avail, _) =
    make_hostile_queue ~on_requeue:(fun () -> incr requeues) ()
  in
  ignore (Option.get (Q.Driver.add driver ~out:[ (0x1000, 8) ] ~in_:[]));
  Mem.write_u16 m (avail + 4) 0xbeef;
  check cbool "corrupt head skipped" true (Q.Device.pop device = None);
  check cint "requeue observed" 1 !requeues;
  check cint "nothing quarantined" 0 (Q.Device.quarantined device)

(* A self-looping chain (flags/next mutated after the driver published
   it) is quarantined: completed with written = 0 so the driver never
   hangs on a descriptor the device ate. *)
let test_looping_chain_quarantined () =
  let quarantined_head = ref (-1) in
  let m, driver, device, (desc, _, _) =
    make_hostile_queue ~on_quarantine:(fun h -> quarantined_head := h) ()
  in
  let head =
    Option.get (Q.Driver.add driver ~out:[ (0x1000, 8); (0x2000, 8) ] ~in_:[])
  in
  (* make the head descriptor chain to itself *)
  Mem.write_u16 m (desc + (head * 16) + 12) Q.desc_f_next;
  Mem.write_u16 m (desc + (head * 16) + 14) head;
  check cbool "looping chain never served" true (Q.Device.pop device = None);
  check cint "quarantine hook saw the head" head !quarantined_head;
  check cint "counted" 1 (Q.Device.quarantined device);
  (match Q.Driver.poll_used driver with
  | Some (h, w) ->
      check cint "rejected chain returned" head h;
      check cint "nothing written" 0 w
  | None -> Alcotest.fail "quarantined chain must still complete");
  check cint "nothing in flight" 0 (Q.Driver.in_flight driver)

(* A buffer whose address fails the device's bounds check (OOB guest
   physical) is quarantined the same way. *)
let test_oob_buffer_quarantined () =
  let _, driver, device, _ =
    make_hostile_queue
      ~validate:(fun b -> b.Q.Device.addr + b.Q.Device.len <= 65536)
      ()
  in
  let head =
    Option.get (Q.Driver.add driver ~out:[ (0x7fff_f000, 16) ] ~in_:[])
  in
  check cbool "oob chain never served" true (Q.Device.pop device = None);
  check cint "counted" 1 (Q.Device.quarantined device);
  match Q.Driver.poll_used driver with
  | Some (h, w) ->
      check cint "rejected chain returned" head h;
      check cint "nothing written" 0 w
  | None -> Alcotest.fail "quarantined chain must still complete"

(* Past the quarantine limit the ring is gracefully reset: every pending
   entry — including innocent ones — drained and completed empty, and
   the device keeps running. *)
let test_ring_reset_after_quarantine_storm () =
  let resets = ref 0 in
  let _, driver, device, _ =
    make_hostile_queue ~qsz:16 ~quarantine_limit:2
      ~validate:(fun b -> b.Q.Device.addr + b.Q.Device.len <= 65536)
      ~on_ring_reset:(fun () -> incr resets)
      ()
  in
  for _ = 1 to 3 do
    ignore (Option.get (Q.Driver.add driver ~out:[ (0x7fff_f000, 16) ] ~in_:[]))
  done;
  ignore (Option.get (Q.Driver.add driver ~out:[ (0x1000, 16) ] ~in_:[]));
  check cbool "storm never serves a chain" true (Q.Device.pop device = None);
  check cint "reset fired once" 1 !resets;
  check cint "reset visible on device" 1 (Q.Device.ring_resets device);
  check cint "limit quarantines before reset" 2 (Q.Device.quarantined device);
  (* all four chains come back (two quarantined, two drained by the
     reset), each empty, and the free list survives intact *)
  let rec drain n =
    match Q.Driver.poll_used driver with
    | Some (_, w) ->
        check cint "drained empty" 0 w;
        drain (n + 1)
    | None -> n
  in
  check cint "every chain returned" 4 (drain 0);
  check cint "nothing in flight" 0 (Q.Driver.in_flight driver)

(* Completing a chain whose [next] was redirected at a free descriptor
   must not double-free it: the free list never hands out one index to
   two chains. *)
let test_free_list_survives_corrupt_next () =
  let m, driver, device, (desc, _, _) = make_hostile_queue ~qsz:4 () in
  let head =
    Option.get (Q.Driver.add driver ~out:[ (0x1000, 8); (0x2000, 8) ] ~in_:[])
  in
  (match Q.Device.pop device with
  | Some (h, _) -> Q.Device.push_used device ~head:h ~written:0
  | None -> Alcotest.fail "pop");
  (* redirect the head's next at a descriptor that is still free *)
  Mem.write_u16 m (desc + (head * 16) + 14) 2;
  ignore (Q.Driver.poll_used driver);
  (* 2 never-used + 1 recovered head = 3 free entries; the truncated
     chain's tail leaks rather than risking a duplicate free *)
  let singles =
    List.init 4 (fun i -> Q.Driver.add driver ~out:[ (i * 64, 8) ] ~in_:[])
  in
  check cint "three singles fit" 3
    (List.length (List.filter Option.is_some singles));
  let heads = List.filter_map Fun.id singles in
  check cint "all distinct" (List.length heads)
    (List.length (List.sort_uniq compare heads))

(* --- the chain walks against Hashtbl references ---

   The references are the walks as first written, with a Hashtbl per
   chain: [ref_read_chain] from the device half, [ref_free_chain] from
   the driver's completion path. They read the descriptor table
   straight from memory. *)

let desc_entry m ~desc i =
  let e = desc + (i * 16) in
  ( Mem.read_u64 m e,
    Mem.read_u32 m (e + 8),
    Mem.read_u16 m (e + 12),
    Mem.read_u16 m (e + 14) )

let ref_read_chain m ~desc ~qsz head =
  let visited = Hashtbl.create 8 in
  let rec go d acc guard =
    if d < 0 || d >= qsz || Hashtbl.mem visited d || guard > qsz then
      (List.rev acc, true)
    else begin
      Hashtbl.replace visited d ();
      let addr, len, flags, next = desc_entry m ~desc d in
      let buf = { Q.Device.addr; len; writable = flags land Q.desc_f_write <> 0 } in
      if flags land Q.desc_f_next <> 0 then go next (buf :: acc) (guard + 1)
      else (List.rev (buf :: acc), false)
    end
  in
  go head [] 0

let ref_free_chain m ~desc ~qsz free head =
  let seen = Hashtbl.create 8 in
  List.iter (fun d -> Hashtbl.replace seen d ()) free;
  let rec go d acc guard =
    if guard > qsz || d >= qsz || d < 0 || Hashtbl.mem seen d then acc
    else begin
      Hashtbl.replace seen d ();
      let _, _, flags, next = desc_entry m ~desc d in
      let acc = d :: acc in
      if flags land Q.desc_f_next <> 0 then go next acc (guard + 1) else acc
    end
  in
  go head [] 0 @ free

(* Random rounds on one queue: post chains, corrupt descriptors
   ([next] inside or past the table, random flags), complete posted
   and forged heads. After every step the driver's free list must
   equal the reference's, and the device's walk from every head must
   equal the reference walk. *)
let prop_chain_walks_match_reference =
  QCheck.Test.make ~name:"chain walks match the Hashtbl references" ~count:300
    QCheck.(pair (int_range 0 2) (int_range 0 1_000_000))
    (fun (qi, seed) ->
      let qsz = [| 4; 8; 16 |].(qi) in
      let rng = Random.State.make [| seed |] in
      let m, driver, device, (desc, _, _) = make_hostile_queue ~qsz () in
      let ref_free = ref (List.init qsz Fun.id) in
      let ref_out = Hashtbl.create 8 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      for _ = 1 to 40 do
        (match Random.State.int rng 4 with
        | 0 -> (
            let n = 1 + Random.State.int rng 3 in
            let out = List.init n (fun i -> (0x1000 + (i * 64), 8)) in
            match Q.Driver.add driver ~out ~in_:[] with
            | Some head ->
                expect (List.length !ref_free >= n && List.hd !ref_free = head);
                ref_free := List.filteri (fun i _ -> i >= n) !ref_free;
                Hashtbl.replace ref_out head ()
            | None -> expect (List.length !ref_free < n))
        | 1 ->
            let e = desc + (Random.State.int rng qsz * 16) in
            Mem.write_u16 m (e + 14) (Random.State.int rng (qsz + 3));
            Mem.write_u16 m (e + 12) (Random.State.int rng 4)
        | _ -> (
            (* complete a posted head, or forge one *)
            let posted = Hashtbl.fold (fun h () acc -> h :: acc) ref_out [] in
            let head =
              if posted <> [] && Random.State.int rng 4 > 0 then
                List.nth posted (Random.State.int rng (List.length posted))
              else Random.State.int rng (qsz + 2)
            in
            Q.Device.push_used device ~head ~written:0;
            match Q.Driver.poll_used driver with
            | Some (h, _) ->
                expect (h = head && Hashtbl.mem ref_out head);
                Hashtbl.remove ref_out head;
                ref_free := ref_free_chain m ~desc ~qsz !ref_free head
            | None -> expect (not (Hashtbl.mem ref_out head))));
        expect (Q.Driver.free_list driver = !ref_free);
        for head = 0 to qsz - 1 do
          expect
            (Q.Device.read_chain_checked device head
            = ref_read_chain m ~desc ~qsz head)
        done
      done;
      !ok)

(* A header or discard segment in the last bytes of guest memory,
   shorter than the 16 bytes the codec reads: the descriptor itself is
   in bounds, so validation passes it, and the device must not read
   past it. *)
let blk_rig () =
  let m, g = raw_gmem 65536 in
  let qsz = 4 in
  let desc, avail, used, _ = Q.bytes_needed ~qsz in
  let base = 0x8000 in
  let driver = Q.Driver.create g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used) in
  let device =
    Q.Device.create
      ~validate:(fun b -> b.Q.Device.addr + b.Q.Device.len <= 65536)
      g ~qsz ~desc:(base + desc) ~avail:(base + avail) ~used:(base + used)
  in
  let store = Blockdev.Backend.create ~blocks:4 () in
  let dev =
    Virtio.Blk.Device.create
      (Virtio.Blk.Device.backend_of_blockdev (Blockdev.Backend.dev store))
  in
  (m, driver, fun () -> Virtio.Blk.Device.process device g dev), store

let test_blk_short_header () =
  let (m, driver, process), _ = blk_rig () in
  Mem.write_u8 m 0x2000 0xaa;
  let head =
    Option.get (Q.Driver.add driver ~out:[ (65532, 4) ] ~in_:[ (0x2000, 1) ])
  in
  check cint "completed" 1 (process ());
  (match Q.Driver.poll_used driver with
  | Some (h, w) ->
      check cint "same head" head h;
      check cint "nothing written" 0 w
  | None -> Alcotest.fail "short header never completed");
  check cint "status untouched" 0xaa (Mem.read_u8 m 0x2000)

let test_blk_short_discard () =
  let (m, driver, process), store = blk_rig () in
  let hdr = Bytes.make 16 '\000' in
  Bytes.set_int32_le hdr 0 (Int32.of_int Virtio.Blk.t_discard);
  Mem.write_bytes m 0x100 hdr;
  ignore
    (Option.get
       (Q.Driver.add driver
          ~out:[ (0x100, 16); (65532, 4) ]
          ~in_:[ (0x2000, 1) ]));
  check cint "completed" 1 (process ());
  check cint "status ioerr" Virtio.Blk.status_ioerr (Mem.read_u8 m 0x2000);
  check cint "nothing trimmed" 0 (Blockdev.Backend.stats store).Blockdev.Backend.trims;
  (* a whole segment still discards *)
  let seg = Bytes.make 16 '\000' in
  Bytes.set_int64_le seg 0 8L;
  Bytes.set_int32_le seg 8 8l;
  Mem.write_bytes m 0x200 seg;
  ignore (Q.Driver.poll_used driver);
  ignore
    (Option.get
       (Q.Driver.add driver ~out:[ (0x100, 16); (0x200, 16) ] ~in_:[ (0x2000, 1) ]));
  check cint "completed" 1 (process ());
  check cint "status ok" Virtio.Blk.status_ok (Mem.read_u8 m 0x2000);
  check cint "trimmed once" 1 (Blockdev.Backend.stats store).Blockdev.Backend.trims

let prop_queue_chains_roundtrip =
  QCheck.Test.make ~name:"descriptor chains survive add/pop" ~count:100
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 6)
            (pair (int_range 0 3) (int_range 0 3))))
    (fun chains ->
      let _, driver, device = make_queue ~qsz:64 () in
      List.for_all
        (fun (nout, nin) ->
          let nout = max nout 1 in
          let out = List.init nout (fun i -> (0x1000 + (i * 64), 32)) in
          let in_ = List.init nin (fun i -> (0x8000 + (i * 64), 32)) in
          match Q.Driver.add driver ~out ~in_ with
          | None -> true (* full is acceptable *)
          | Some h -> (
              match Q.Device.pop device with
              | Some (h', bufs) ->
                  Q.Device.push_used device ~head:h' ~written:0;
                  ignore (Q.Driver.poll_used driver);
                  h = h'
                  && List.length bufs = nout + nin
                  && List.for_all2
                       (fun (a, l) b ->
                         b.Q.Device.addr = a && b.Q.Device.len = l)
                       (out @ in_) bufs
              | None -> false))
        chains)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "virtio.queue",
      [
        t "add/pop" test_queue_add_pop;
        t "used flow" test_queue_used_flow;
        t "exhaustion + reuse" test_queue_exhaustion_and_reuse;
        t "fifo order" test_queue_fifo_order;
        QCheck_alcotest.to_alcotest prop_queue_chains_roundtrip;
      ] );
    ( "virtio.hostile",
      [
        t "forged used id dropped" test_forged_used_id_dropped;
        t "corrupt avail head skipped" test_corrupt_avail_head_skipped;
        t "looping chain quarantined" test_looping_chain_quarantined;
        t "oob buffer quarantined" test_oob_buffer_quarantined;
        t "ring reset after quarantine storm"
          test_ring_reset_after_quarantine_storm;
        t "free list survives corrupt next" test_free_list_survives_corrupt_next;
        t "short blk header is malformed" test_blk_short_header;
        t "short discard segment fails" test_blk_short_discard;
        QCheck_alcotest.to_alcotest prop_chain_walks_match_reference;
      ] );
    ( "virtio.mmio",
      [
        t "identity regs" test_mmio_identity_regs;
        t "queue setup + notify" test_mmio_queue_setup_and_notify;
        t "interrupt latch" test_mmio_interrupt_latch;
      ] );
    ( "virtio.blk",
      [
        t "serves requests" test_blk_device_serves_requests;
        t "rejects out of range" test_blk_device_rejects_out_of_range;
        t "unknown type" test_blk_device_unknown_type;
      ] );
    ( "virtio.ninep",
      [
        t "codec" test_ninep_codec;
        t "end-to-end through a virtqueue" test_ninep_through_virtqueue;
        t "the SimpleFS server" test_ninep_simplefs_server;
      ] );
    ( "virtio.plumbing",
      [ QCheck_alcotest.to_alcotest prop_gather_scatter ] );
  ]
