(* The virtio-blk data path end to end, on an attached guest: what one
   request allocates on the host, and the exact virtual cost of a fixed
   request mix on vmsh-blk and qemu-blk. *)

module H = Hostos
module Drv = Virtio.Blk.Driver
module Guest = Linux_guest.Guest
module Vmm = Hypervisor.Vmm

let check = Alcotest.check
let spb = Virtio.Blk.sectors_per_block

(* A qemu guest with a 4096-block root disk, attached with a tools image
   packed with [extra] free blocks at its end; the raw requests use that
   tail on vmsh-blk and the root disk's last quarter on qemu-blk. *)
type rig = {
  host : H.Host.t;
  vmm : Vmm.t;
  vmsh : Drv.t;
  qemu : Drv.t;
  vmsh_first : int;  (** first free block on vmsh-blk *)
  qemu_first : int;  (** first unused block on qemu-blk *)
}

let extra = 128

let attached ?(recorder = true) seed =
  let h, vmm, g = Test_attach.setup ~seed ~root_blocks:4096 () in
  Trace.Recorder.set_enabled h.H.Host.recorder recorder;
  let fs_image =
    match
      Blockdev.Image.pack ~clock:h.H.Host.clock ~extra_blocks:extra
        [ Blockdev.Image.file "/bin/busybox" 600000 ]
    with
    | Ok (backend, _) -> backend
    | Error e -> Alcotest.failf "image pack: %a" H.Errno.pp e
  in
  (match
     Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm) ~fs_image
       ~pump:(fun () -> Vmm.run_until_idle vmm)
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" (Vmsh.Vmsh_error.to_string e));
  let vmsh =
    match Guest.vmsh_blk g with
    | Some d -> d
    | None -> Alcotest.fail "vmsh-blk did not probe"
  in
  {
    host = h;
    vmm;
    vmsh;
    qemu = Guest.boot_blk_exn g;
    vmsh_first = (Drv.capacity_sectors vmsh / spb) - extra;
    qemu_first = 3072;
  }

(* --- per-request allocation --- *)

(* KiB allocated per request on both heaps, averaged over 20 requests
   after 3 warm-ups, with the event recorder off. Each request is
   counted alone on a settled heap ([Alloc.words]): a 256 KiB buffer
   goes straight to the major heap and can start a collection, and one
   inside the window inflates the count (by up to 600 KiB for one
   request on OCaml 5.1). *)
let kib_per_request r f =
  Vmm.in_guest r.vmm (fun () ->
      for _ = 1 to 3 do
        f ()
      done);
  let total = ref 0. in
  for _ = 1 to 20 do
    let (), words = Alloc.words (fun () -> Vmm.in_guest r.vmm f) in
    total := !total +. words
  done;
  !total *. float_of_int (Sys.word_size / 8) /. 1024. /. 20.

let rig = lazy (attached ~recorder:false 61)

let bound name ~kib f =
  let r = Lazy.force rig in
  let got = kib_per_request r (f r) in
  if got >= float_of_int kib then
    Alcotest.failf "%s allocates %.1f KiB per request (bound %d KiB)" name got
      kib

(* Each bound is a request's measured KiB plus 25%, rounded down: a
   256 KiB vmsh-blk write allocates 25.6 KiB, a 256 KiB read 281.2, a
   4 KiB read 13.4, a 4 KiB write 9.4 and a 256 KiB qemu-blk read
   539.4. *)
let big = 256 * 1024

let test_vmsh_write_256k () =
  let data = Bytes.make big 'w' in
  bound "a 256 KiB vmsh-blk write" ~kib:32 (fun r () ->
      Drv.write r.vmsh ~sector:(r.vmsh_first * spb) data)

let test_vmsh_read_256k () =
  (* the 256 KiB the driver returns is the floor *)
  bound "a 256 KiB vmsh-blk read" ~kib:351 (fun r () ->
      ignore (Drv.read r.vmsh ~sector:(r.vmsh_first * spb) ~len:big))

let test_vmsh_read_4k () =
  bound "a 4 KiB vmsh-blk read" ~kib:16 (fun r () ->
      ignore (Drv.read r.vmsh ~sector:((r.vmsh_first + 70) * spb) ~len:4096))

let test_vmsh_write_4k () =
  let data = Bytes.make 4096 'w' in
  bound "a 4 KiB vmsh-blk write" ~kib:11 (fun r () ->
      Drv.write r.vmsh ~sector:((r.vmsh_first + 70) * spb) data)

let test_qemu_read_256k () =
  bound "a 256 KiB qemu-blk read" ~kib:674 (fun r () ->
      ignore (Drv.read r.qemu ~sector:(r.qemu_first * spb) ~len:big))

(* --- the pinned virtual cost --- *)

(* On each of vmsh-blk and qemu-blk: four 256 KiB write+read pairs,
   sixteen seeded 4 KiB requests (reads and writes), one flush and one
   discard. *)
let request_mix r =
  let rng = H.Rng.create ~seed:4242 in
  let pattern = Bytes.init big (fun _ -> Char.chr (H.Rng.int rng 256)) in
  Vmm.in_guest r.vmm (fun () ->
      List.iter
        (fun (drv, first) ->
          for k = 0 to 3 do
            let sector = (first + (k mod 2 * 64)) * spb in
            Drv.write drv ~sector pattern;
            if not (Bytes.equal (Drv.read drv ~sector ~len:big) pattern) then
              Alcotest.fail "read back different bytes than written"
          done;
          for _ = 1 to 16 do
            let sector = (first + H.Rng.int rng extra) * spb in
            if H.Rng.int rng 2 = 0 then ignore (Drv.read drv ~sector ~len:4096)
            else Drv.write drv ~sector (Bytes.sub pattern (H.Rng.int rng 64 * 4096) 4096)
          done;
          Drv.flush drv;
          Drv.discard drv ~sector:(first * spb) ~count:(8 * spb))
        [ (r.vmsh, r.vmsh_first); (r.qemu, r.qemu_first) ])

(* The mix's exact virtual cost. Any change to a data-path charge moves
   one of these numbers, so it must update them on purpose. *)
let pinned_ns = "5514072.1899997611"
let pinned_counters =
  [
    ("context_switches", 102); ("syscalls", 618); ("vmexits", 53);
    ("mmio_exits", 0); ("ptrace_stops", 0); ("bytes_copied", 4327846);
    ("bytes_copied_remote", 2164742); ("page_cache_hits", 0);
    ("page_cache_misses", 0); ("irq_injections", 2); ("socket_msgs", 52);
    ("device_ops", 1082); ("fs_ops", 0);
  ]

let test_pinned_virtual_cost () =
  let r = attached 67 in
  let clock = r.host.H.Host.clock in
  let t0 = H.Clock.now_ns clock and c0 = H.Clock.snapshot clock in
  request_mix r;
  let ns = H.Clock.now_ns clock -. t0 in
  let delta =
    List.map2
      (fun (k, a) (_, b) -> (k, b - a))
      (H.Clock.to_fields c0)
      (H.Clock.to_fields (H.Clock.counters clock))
  in
  check Alcotest.string "virtual ns of the mix" pinned_ns (Printf.sprintf "%.17g" ns);
  check
    Alcotest.(list (pair string int))
    "counter deltas of the mix" pinned_counters delta

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "virtio.datapath",
      [
        t "256 KiB vmsh-blk write allocation" test_vmsh_write_256k;
        t "256 KiB vmsh-blk read allocation" test_vmsh_read_256k;
        t "4 KiB vmsh-blk read allocation" test_vmsh_read_4k;
        t "4 KiB vmsh-blk write allocation" test_vmsh_write_4k;
        t "256 KiB qemu-blk read allocation" test_qemu_read_256k;
        t "pinned virtual cost of a request mix" test_pinned_virtual_cost;
      ] );
  ]
