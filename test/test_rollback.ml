(* Transactional attach: the guest-mutation journal, rollback on
   abort/detach, the snapshot oracle, and the crash-point sweep gate. *)

module H = Hostos
module Vmm = Hypervisor.Vmm
module J = Vmsh.Journal
module E = Vmsh.Vmsh_error

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let open_fds = Fleet.Machine.open_fds

(* --- the journal itself --- *)

let test_journal_replays_newest_first () =
  let j = J.create () in
  let order = Buffer.create 16 in
  List.iter
    (fun name ->
      J.record j ~what:name (fun () -> Buffer.add_string order (name ^ ";")))
    [ "a"; "b"; "c" ];
  check cint "three entries" 3 (J.length j);
  check cbool "labels newest first" true (J.labels j = [ "c"; "b"; "a" ]);
  (match J.replay j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay: %s" (E.to_string e));
  check cstr "undone in reverse mutation order" "c;b;a;"
    (Buffer.contents order);
  check cint "log consumed" 0 (J.length j);
  (* a consumed entry must never replay twice *)
  (match J.replay j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "re-replay: %s" (E.to_string e));
  check cstr "no double undo" "c;b;a;" (Buffer.contents order)

let test_journal_seal_owned_late_writes () =
  let j = J.create () in
  J.record j ~what:"kept" (fun () -> ());
  J.note_owned j ~gpa:0x1000 ~len:0x2000;
  check cbool "write inside an owned range is exempt" true
    (J.owns j ~gpa:0x1800 ~len:0x100);
  check cbool "straddling write is not" false
    (J.owns j ~gpa:0x2800 ~len:0x1000);
  check cbool "not sealed yet" false (J.sealed j);
  J.seal j;
  check cbool "sealed" true (J.sealed j);
  J.record j ~what:"dropped" (fun () ->
      Alcotest.fail "post-seal undo must never run");
  check cint "post-seal record is a no-op" 1 (J.length j);
  J.note_late_write j ~gpa:0x5000 ~len:16;
  J.note_late_write j ~gpa:0x6000 ~len:8;
  J.note_late_write j ~gpa:0x5ff0 ~len:0x20;
  check cbool "late writes collect their pages, ascending" true
    (J.late_writes j = [ (0x5000, 4096); (0x6000, 4096) ]);
  match J.replay j with
  | Ok () -> check cint "sealed log still replays" 0 (J.length j)
  | Error e -> Alcotest.failf "replay: %s" (E.to_string e)

let test_journal_failing_undo_continues () =
  let j = J.create () in
  let ran = ref [] in
  J.record j ~what:"oldest" (fun () -> ran := "oldest" :: !ran);
  J.record j ~what:"broken" (fun () -> E.fail (E.Msg "undo boom"));
  J.record j ~what:"newest" (fun () -> ran := "newest" :: !ran);
  match J.replay j with
  | Ok () -> Alcotest.fail "the broken undo must surface"
  | Error e ->
      (* the first failure, wrapped in a Context naming the entry *)
      check cstr "failure names the entry" "broken: undo boom" (E.to_string e);
      check cbool "older entries still restored" true
        (!ran = [ "oldest"; "newest" ]);
      check cint "log consumed despite the failure" 0 (J.length j)

let test_journal_metrics_register_lazily () =
  let mx = Observe.Metrics.create () in
  let j = J.create () in
  (match J.replay ~metrics:mx j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty replay: %s" (E.to_string e));
  check cbool "empty replay registers no counters" false
    (contains (Observe.Export.metrics_json mx) "rollback.");
  J.record j ~what:"x" (fun () -> ());
  (match J.replay ~metrics:mx j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay: %s" (E.to_string e));
  let after = Observe.Export.metrics_json mx in
  check cbool "replays counted" true (contains after "rollback.replays");
  check cbool "entries counted" true (contains after "rollback.entries")

(* --- a full-hash reference for the oracle ---

   The oracle before the write log: copy every page out with
   [read_phys], hash the copy, and compare every page. [Snapshot.diff]
   must report exactly what this reports, so the oracle never rests on
   the log it checks alone. *)

let page = Vmsh.Snapshot.page_size

let reference_capture vm =
  let slots =
    Kvm.Vm.memslots vm
    |> List.map (fun (s : Kvm.Vm.memslot) ->
           ( (s.slot, s.gpa, s.size),
             Array.init (s.size / page) (fun p ->
                 Digest.bytes (Kvm.Vm.read_phys vm (s.gpa + (p * page)) page)) ))
    |> List.sort compare
  in
  let regs =
    Kvm.Vm.vcpus vm
    |> List.map (fun v ->
           ( Kvm.Vm.vcpu_index v,
             Digest.bytes (Kvm.Api.regs_to_bytes (Kvm.Vm.vcpu_regs v)) ))
    |> List.sort compare
  in
  (slots, regs)

let reference_diff (bslots, bregs) (aslots, aregs) ~exclude =
  let out = ref [] in
  let note fmt = Printf.ksprintf (fun m -> out := m :: !out) fmt in
  List.iter
    (fun ((slot, gpa, size), _) ->
      if not (List.mem_assoc (slot, gpa, size) aslots) then
        note "memslot %d (gpa 0x%x, %d bytes) vanished" slot gpa size)
    bslots;
  List.iter
    (fun ((slot, gpa, size), _) ->
      if not (List.mem_assoc (slot, gpa, size) bslots) then
        note "memslot %d (gpa 0x%x, %d bytes) leaked" slot gpa size)
    aslots;
  List.iter
    (fun (((slot, gpa, _) as k), bpages) ->
      match List.assoc_opt k aslots with
      | None -> ()
      | Some apages ->
          Array.iteri
            (fun p bd ->
              let lo = gpa + (p * page) in
              let excluded =
                List.exists
                  (fun (base, len) -> len > 0 && base < lo + page && base + len > lo)
                  exclude
              in
              if (not excluded) && apages.(p) <> bd then
                note "memslot %d page %d (gpa 0x%x) differs" slot p lo)
            bpages)
    bslots;
  List.iter
    (fun (idx, bd) ->
      match List.assoc_opt idx aregs with
      | None -> note "vCPU %d vanished" idx
      | Some ad -> if ad <> bd then note "vCPU %d registers differ" idx)
    bregs;
  List.rev !out

(* The digest the oracle computed before guest memory went sparse:
   every page copied out and hashed. *)
let reference_digest vm =
  let slots, regs = reference_capture vm in
  let b = Buffer.create 4096 in
  List.iter
    (fun ((slot, gpa, size), pages) ->
      Buffer.add_string b (Printf.sprintf "%d:%x:%d;" slot gpa size);
      Array.iter (Buffer.add_string b) pages)
    slots;
  List.iter
    (fun (idx, d) ->
      Buffer.add_string b (string_of_int idx);
      Buffer.add_string b d)
    regs;
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))

let lines = Alcotest.(list string)

(* [Snapshot.diff] of [before] against a capture taken now, checked
   against the full-hash reference over the same two points. The
   reference skips the guest's pages as [dirty_since] lists them; the
   property below checks that list against guest writes the test
   records itself. *)
let oracle_diff vm (before, ref_before) ~exclude =
  let got =
    Vmsh.Snapshot.diff ~before ~after:(Vmsh.Snapshot.capture vm) ~exclude
  in
  check lines "log diff equals the full-hash diff"
    (reference_diff ref_before (reference_capture vm)
       ~exclude:(Vmsh.Snapshot.dirty_since vm before @ exclude))
    got;
  got

let capture_both vm = (Vmsh.Snapshot.capture vm, reference_capture vm)

(* --- attach as a transaction --- *)

let test_detach_restores_guest_byte_for_byte () =
  let ((_, vmm, _) as env) = Test_attach.setup ~seed:61 () in
  let vm = Vmm.kvm_vm vmm in
  let snap = capture_both vm in
  match Test_attach.do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      ignore (Vmsh.Attach.console_roundtrip session "hostname");
      let late =
        match Vmsh.Attach.journal session with
        | Some j -> J.late_writes j
        | None -> Alcotest.fail "every session carries a journal"
      in
      (match Vmsh.Attach.detach session with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detach: %s" (E.to_string e));
      (match oracle_diff vm snap ~exclude:late with
      | [] -> ()
      | d :: _ as all ->
          Alcotest.failf "oracle: %s (%d discrepancies)" d (List.length all))

let test_crash_point_aborts_and_rolls_back () =
  let h, vmm, _ = Test_attach.setup ~seed:67 () in
  let vm = Vmm.kvm_vm vmm in
  let plan = Faults.create ~seed:1 ~rate:0.0 () in
  Faults.set_abort_at_yield plan (Some 3);
  let snap = capture_both vm in
  let fds = open_fds h in
  let config = Vmsh.Attach.Config.(with_faults plan (make ())) in
  match
    Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
      ~fs_image:(Test_attach.make_fs_image ()) ~config
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  with
  | Ok _ -> Alcotest.fail "an armed crash point must abort the attach"
  | Error e ->
      check cbool "typed crash point at yield 3" true
        (e = E.Attach_aborted (E.Crash_point 3));
      check cstr "rendered crash point" "attach aborted: crash point at yield 3"
        (E.to_string e);
      check cint "no descriptors leaked host-wide" fds (open_fds h);
      check lines "guest restored byte-for-byte" []
        (oracle_diff vm snap ~exclude:[])

(* An abort releases ptrace like a detach does: the next attach to the
   same VM succeeds (a leaked tracer refuses it with EPERM) and its
   detach leaves the guest as the first attach found it. *)
let test_abort_then_reattach () =
  let h, vmm, _ = Test_attach.setup ~seed:71 () in
  let vm = Vmm.kvm_vm vmm in
  let snap = capture_both vm in
  let attach config =
    Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm)
      ~fs_image:(Test_attach.make_fs_image ()) ~config
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  in
  let plan = Faults.create ~seed:1 ~rate:0.0 () in
  Faults.set_abort_at_yield plan (Some 5);
  (match attach Vmsh.Attach.Config.(with_faults plan (make ())) with
  | Ok _ -> Alcotest.fail "an armed crash point must abort the attach"
  | Error e ->
      check cbool "aborted at yield 5" true
        (e = E.Attach_aborted (E.Crash_point 5)));
  let traced () = (H.Host.proc_exn h ~pid:(Vmm.pid vmm)).H.Proc.tracer in
  check cbool "the abort released ptrace" true (traced () = None);
  match attach (Vmsh.Attach.Config.make ()) with
  | Error e -> Alcotest.failf "attach after an abort: %s" (E.to_string e)
  | Ok session ->
      check cbool "console answers" true
        (contains (Vmsh.Attach.console_roundtrip session "hostname") "target-vm");
      let late =
        match Vmsh.Attach.journal session with
        | Some j -> J.late_writes j
        | None -> Alcotest.fail "every session carries a journal"
      in
      (match Vmsh.Attach.detach session with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detach: %s" (E.to_string e));
      check cbool "the detach released ptrace" true (traced () = None);
      check lines "guest restored byte-for-byte" []
        (oracle_diff vm snap ~exclude:late)

(* Discovery failing after ptrace-attach (here: the target runs no VM)
   hands the attach no session, so Tracee.attach releases ptrace. *)
let test_failed_discovery_releases_ptrace () =
  let h = H.Host.create ~seed:3 () in
  let p = H.Host.spawn h ~name:"not-a-vmm" ~uid:1000 ~caps:[] () in
  (match
     Vmsh.Attach.attach h ~hypervisor_pid:p.H.Proc.pid
       ~fs_image:(Test_attach.make_fs_image ()) ~pump:ignore ()
   with
  | Ok _ -> Alcotest.fail "attached to a process without KVM descriptors"
  | Error _ -> ());
  check cbool "ptrace released" true (p.H.Proc.tracer = None)

(* Detach is cheap next to the attach it undoes: over four rigs it
   takes at most 5% of attach + detach in virtual time, and every round
   trip leaves the guest as it found it. *)
let test_detach_cost_bound () =
  let detach_ns, total_ns =
    List.fold_left
      (fun (dn, tn) seed ->
        let ((h, vmm, _) as env) = Test_attach.rig seed in
        let vm = Vmm.kvm_vm vmm in
        let before = Vmsh.Snapshot.capture vm in
        let session, attach_ns = Test_attach.timed_attach env in
        let late =
          Option.fold ~none:[] ~some:J.late_writes (Vmsh.Attach.journal session)
        in
        let clock = h.H.Host.clock in
        let t0 = H.Clock.now_ns clock in
        (match Vmsh.Attach.detach session with
        | Ok () -> ()
        | Error e -> Alcotest.failf "detach: %s" (E.to_string e));
        let dt = H.Clock.now_ns clock -. t0 in
        check lines
          (Printf.sprintf "seed %d: guest restored" seed)
          []
          (Vmsh.Snapshot.diff ~before ~after:(Vmsh.Snapshot.capture vm)
             ~exclude:late);
        (dn +. dt, tn +. attach_ns +. dt))
      (0., 0.) [ 1700; 1701; 1702; 1703 ]
  in
  if detach_ns > 0.05 *. total_ns then
    Alcotest.failf "detach %.0f ns exceeds 5%% of attach + detach %.0f ns"
      detach_ns total_ns

let test_rollback_counters_stay_lazy () =
  (* a fault-free attach must not even register the rollback/watchdog
     counters (the recovery.* laziness pattern); the detach replay is
     the first thing allowed to *)
  let ((h, _, _) as env) = Test_attach.setup ~seed:73 () in
  match Test_attach.do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      let m = Observe.Export.metrics_json (Observe.metrics h.H.Host.observe) in
      check cbool "no rollback counters after a clean attach" false
        (contains m "rollback.");
      check cbool "no watchdog counters either" false (contains m "watchdog.");
      (match Vmsh.Attach.detach session with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detach: %s" (E.to_string e));
      let m = Observe.Export.metrics_json (Observe.metrics h.H.Host.observe) in
      check cbool "detach replay ticks rollback.replays" true
        (contains m "rollback.replays")

let test_snapshot_digest_matches_reference () =
  let ((_, vmm, _) as env) = Test_attach.setup ~seed:83 () in
  let vm = Vmm.kvm_vm vmm in
  let same name =
    check cstr name (reference_digest vm)
      (Vmsh.Snapshot.digest (Vmsh.Snapshot.capture vm))
  in
  same "seeded cold boot";
  match Test_attach.do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      same "attached";
      (match Vmsh.Attach.detach session with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detach: %s" (E.to_string e));
      same "after attach + detach"

(* The oracle must be able to fail. A byte written through the
   hypervisor's own mapping of guest RAM (VMSH's path, which the write
   log never attributes to the guest) must show up as exactly its
   page — one the boot wrote and one it never touched — unless the
   caller excludes it, and writing the old byte back is clean again. *)
let test_oracle_reports_a_hypervisor_write () =
  let _, vmm, _ = Test_attach.setup ~seed:89 () in
  let vm = Vmm.kvm_vm vmm in
  let ram = List.find (fun s -> s.Kvm.Vm.slot = 0) (Kvm.Vm.memslots vm) in
  let aspace = (Kvm.Vm.owner vm).H.Proc.aspace in
  let zero = Bytes.make page '\000' in
  let written p = Kvm.Vm.read_phys vm (p * page) page <> zero in
  let rec first_written p = if written p then p else first_written (p + 1) in
  let bp = first_written 0 and last = (ram.Kvm.Vm.size / page) - 1 in
  check cbool "the boot never touched the last page" false (written last);
  let boot_page = (bp * page) + 0x123 and untouched = ram.Kvm.Vm.size - 7 in
  let old gpa = Bytes.get (Kvm.Vm.read_phys vm gpa 1) 0 in
  let olds = List.map (fun gpa -> (gpa, old gpa)) [ boot_page; untouched ] in
  let poke gpa c =
    H.Mem.Addr_space.write aspace (ram.Kvm.Vm.hva + gpa) (Bytes.make 1 c)
  in
  let snap = capture_both vm in
  List.iter (fun (gpa, c) -> poke gpa (Char.chr (Char.code c lxor 0x5a))) olds;
  check lines "both pages differ, in page order"
    [
      Printf.sprintf "memslot 0 page %d (gpa 0x%x) differs" bp (bp * page);
      Printf.sprintf "memslot 0 page %d (gpa 0x%x) differs" last (last * page);
    ]
    (oracle_diff vm snap ~exclude:[]);
  check lines "excluded intervals are not blamed" []
    (oracle_diff vm snap ~exclude:[ (boot_page, 1); (untouched, 1) ]);
  List.iter (fun (gpa, c) -> poke gpa c) olds;
  check lines "the old bytes restore the guest" []
    (oracle_diff vm snap ~exclude:[])

(* Two captures on different guests compare every page. *)
let test_oracle_across_guests () =
  let vm_of seed =
    let _, vmm, _ = Test_attach.setup ~seed () in
    Vmm.kvm_vm vmm
  in
  let a = vm_of 97 and b = vm_of 97 in
  let before = Vmsh.Snapshot.capture a in
  check lines "identical boots agree" []
    (Vmsh.Snapshot.diff ~before ~after:(Vmsh.Snapshot.capture b) ~exclude:[]);
  Kvm.Vm.write_phys b 0x3000 (Bytes.of_string "x");
  check lines "one page of the second guest differs"
    [ "memslot 0 page 3 (gpa 0x3000) differs" ]
    (Vmsh.Snapshot.diff ~before ~after:(Vmsh.Snapshot.capture b) ~exclude:[])

(* The oracle's cost follows the pages written, not guest RAM: a
   capture hashed every materialised page (about 75 k minor words on
   this guest) before the write log. Counted on both heaps
   ([Alloc.words]), the first capture allocates 8,413 words, 8,193 of
   them the page-stamp array of this 32 MiB guest's RAM (a major
   block), and the capture and diff after a session 772; each bound is
   that plus 25%. *)
let test_oracle_allocation_bound () =
  let h = H.Host.create ~seed:101 () in
  let disk = Test_attach.make_root_disk h in
  let vmm = Vmm.create h ~profile:Hypervisor.Profile.qemu ~disk ~ram_mb:32 () in
  ignore (Vmm.boot vmm ~version:Linux_guest.Kernel_version.V5_10);
  let env = (h, vmm, ()) in
  let vm = Vmm.kvm_vm vmm in
  let before, capture_words =
    Alloc.words (fun () -> Vmsh.Snapshot.capture vm)
  in
  if capture_words > 1.25 *. 8_413. then
    Alcotest.failf "a capture allocated %.0f words" capture_words;
  (match Test_attach.do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session -> (
      ignore (Vmsh.Attach.console_roundtrip session "hostname");
      let late =
        match Vmsh.Attach.journal session with
        | Some j -> J.late_writes j
        | None -> []
      in
      match Vmsh.Attach.detach session with
      | Error e -> Alcotest.failf "detach: %s" (E.to_string e)
      | Ok () ->
          let problems, diff_words =
            Alloc.words (fun () ->
                Vmsh.Snapshot.diff ~before
                  ~after:(Vmsh.Snapshot.capture vm)
                  ~exclude:late)
          in
          check lines "clean" [] problems;
          if diff_words > 1.25 *. 772. then
            Alcotest.failf "capture + diff allocated %.0f words" diff_words))

(* --- the oracle against guest writes the test records itself ---

   On a bare VM with one 1 MiB slot, interleave guest writes
   ([Kvm.Vm.write_phys], which the write log attributes), writes
   through the hypervisor's mapping (which it does not) and captures.
   For every pair of captures, [Snapshot.diff ~exclude:[]] must equal
   the full-hash reference told to skip the guest writes the test
   recorded between the two, and [dirty_since] must list the pages of
   the guest writes since each capture. Silent writes (bytes RAM
   already holds) are drawn often. *)

type oracle_op = Guest of int * int * int | Poke of int * int * int | Capture

let oracle_op_to_string = function
  | Guest (g, n, v) -> Printf.sprintf "guest 0x%x+%d=%d" g n v
  | Poke (g, n, v) -> Printf.sprintf "poke 0x%x+%d=%d" g n v
  | Capture -> "capture"

(* writes stay in the first 8 pages, so they collide often *)
let window = 8 * page

let gen_oracle_ops =
  let open QCheck.Gen in
  let write mk =
    map3
      (fun g n v -> mk g (min n (window - g)) v)
      (int_bound (window - 1)) (int_range 1 6000) (int_bound 2)
  in
  list_size (int_bound 24)
    (frequency
       [
         (3, write (fun g n v -> Guest (g, n, v)));
         (3, write (fun g n v -> Poke (g, n, v)));
         (1, return Capture);
       ])

(* The pages of [intervals], as ascending [(page_gpa, page)]. *)
let pages_of intervals =
  List.concat_map
    (fun (gpa, n) ->
      List.init (((gpa + n - 1) / page) - (gpa / page) + 1) (fun i ->
          (((gpa / page) + i) * page, page)))
    intervals
  |> List.sort_uniq compare

let prop_oracle_matches_recorded_guest_writes =
  QCheck.Test.make
    ~name:"diff skips exactly the guest writes the test recorded" ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map oracle_op_to_string ops))
       gen_oracle_ops)
    (fun ops ->
      let h, p, th, vm_fd, vm = Test_kvm.make_vm_env () in
      let hva = Test_kvm.add_ram h p th vm_fd ~mb:1 in
      let caps = ref [] and guest = ref [] in
      let capture () = caps := capture_both vm :: !caps in
      capture ();
      List.iter
        (function
          | Guest (gpa, n, v) ->
              Kvm.Vm.write_phys vm gpa (Bytes.make n (Char.chr v));
              (* tagged with the number of captures taken before it *)
              guest := (List.length !caps, (gpa, n)) :: !guest
          | Poke (gpa, n, v) ->
              H.Mem.Addr_space.write p.H.Proc.aspace (hva + gpa)
                (Bytes.make n (Char.chr v))
          | Capture -> capture ())
        ops;
      capture ();
      let caps = Array.of_list (List.rev !caps) in
      (* guest writes after capture [i] and before capture [j] *)
      let between i j =
        List.filter_map
          (fun (t, iv) -> if t > i && t <= j then Some iv else None)
          !guest
      in
      let last = Array.length caps - 1 in
      List.for_all
        (fun i ->
          let before, ref_before = caps.(i) in
          Vmsh.Snapshot.dirty_since vm before = pages_of (between i last)
          && List.for_all
               (fun j ->
                 let after, ref_after = caps.(j) in
                 Vmsh.Snapshot.diff ~before ~after ~exclude:[]
                 = reference_diff ref_before ref_after ~exclude:(between i j))
               (List.init (last - i) (fun k -> i + 1 + k)))
        (List.init (last + 1) Fun.id))

(* A long attach must not grow the heap with its guest's writes: each
   vmsh-blk request has the guest write its ring and the device
   complete into guest memory, and the write log keeps that in
   per-page state. The event recorder is off, so its ring does not
   fill up inside the measured window. *)
let test_guest_writes_keep_heap_flat () =
  let ((h, vmm, g) as env) = Test_attach.setup ~seed:103 () in
  Trace.Recorder.set_enabled h.H.Host.recorder false;
  let _before = Vmsh.Snapshot.capture (Vmm.kvm_vm vmm) in
  match Test_attach.do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok _session ->
      let module Drv = Virtio.Blk.Driver in
      let drv =
        match Linux_guest.Guest.vmsh_blk g with
        | Some d -> d
        | None -> Alcotest.fail "vmsh-blk did not probe"
      in
      (* the last 8 blocks of the tools image are free headroom *)
      let spb = Virtio.Blk.sectors_per_block in
      let first = (Drv.capacity_sectors drv / spb) - 8 in
      let block = Bytes.make 4096 'w' in
      let requests n =
        Vmm.in_guest vmm (fun () ->
            for i = 0 to n - 1 do
              let sector = (first + (i mod 8)) * spb in
              if i mod 2 = 0 then Drv.write drv ~sector block
              else ignore (Drv.read drv ~sector ~len:4096)
            done)
      in
      let live () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let n = 2000 in
      requests n;
      let w0 = live () in
      requests n;
      let grown = live () - w0 in
      if grown > 2_000 then
        Alcotest.failf "%d more 4 KiB requests grew the live heap by %d words"
          n grown

(* --- the sweep gate --- *)

let test_sweep_gate_subset () =
  (* CI runs the full class matrix; the unit gate sweeps a subset with
     a capped yield range so runtest stays fast *)
  let r =
    Fleet.Sweep.run ~seed:5
      ~classes:[ None; Some Faults.Inject_eintr ]
      ~max_yields:6 ()
  in
  check cint "two classes swept" 2 r.Fleet.Sweep.sw_classes;
  check cint "every point restores the guest" 0 r.Fleet.Sweep.sw_oracle_fail;
  check cint "no leaked descriptors" 0 r.Fleet.Sweep.sw_leaked_fds;
  check cint "no escaped exceptions" 0 r.Fleet.Sweep.sw_unclean;
  check cbool "gate passes" true (Fleet.Sweep.ok r);
  check cbool "crash points actually fired" true
    (List.exists
       (fun p -> Fleet.Sweep.outcome p = "aborted")
       r.Fleet.Sweep.sw_points);
  check cbool "both probes completed" true
    (List.for_all
       (fun p -> Fleet.Sweep.outcome p = "completed")
       (List.filter
          (fun p -> p.Fleet.Sweep.pt_yield < 0)
          r.Fleet.Sweep.sw_points))

let test_sweep_covers_forked_sessions () =
  (* the crash matrix must hold through the CoW overlay too: sweep one
     class against sessions forked from a baked baseline and require
     the rollback oracle to prove restoration of the overlay *)
  let baseline = Fleet.Baseline.bake () in
  let r =
    Fleet.Sweep.run ~seed:5 ~classes:[ None ] ~max_yields:4 ~baseline ()
  in
  check cbool "forked gate passes" true (Fleet.Sweep.ok r);
  check cbool "forked crash points fired" true
    (List.exists
       (fun p -> Fleet.Sweep.outcome p = "aborted")
       r.Fleet.Sweep.sw_points)

let test_sweep_interleaves_on_scheduler () =
  (* vms > 1 runs the points as fibers on the virtual-time scheduler;
     the post-conditions must hold under interleaving too *)
  let r = Fleet.Sweep.run ~seed:9 ~classes:[ None ] ~max_yields:4 ~vms:2 () in
  check cbool "gate passes interleaved" true (Fleet.Sweep.ok r);
  check cint "probe + swept points" 5 (List.length r.Fleet.Sweep.sw_points)

let test_sweep_hang_fails_gate () =
  (* a 200 s skew at the first yield runs the session past its budget:
     the point is a hang however the attach ends, and the gate counts
     it *)
  let plan = Faults.create ~seed:1 ~rate:0.0 () in
  Faults.set_skew_script plan [ (0, 200_000_000) ];
  let pt = Fleet.Sweep.run_point ~plan ~seed:5 ~cls:None ~k:None () in
  (match pt.Fleet.Sweep.pt_report.Fleet.Session.verdict with
  | Faults.Abort.Bug (Hang _) -> ()
  | v -> Alcotest.failf "want a hang, got %s" (Faults.Abort.to_string v));
  let r = Fleet.Sweep.tally ~classes:1 [ pt ] in
  check cint "the hang is unclean" 1 r.Fleet.Sweep.sw_unclean;
  check cbool "gate fails" false (Fleet.Sweep.ok r);
  let mx = Observe.Metrics.create () in
  Fleet.Sweep.record mx r;
  check cint "sweep.unclean counts it" 1
    (Observe.Metrics.counter_value (Observe.Metrics.counter mx "sweep.unclean"))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "rollback.journal",
      [
        t "replays newest-first and consumes" test_journal_replays_newest_first;
        t "seal / owned ranges / late writes" test_journal_seal_owned_late_writes;
        t "failing undo continues, reports first" test_journal_failing_undo_continues;
        t "counters register lazily" test_journal_metrics_register_lazily;
      ] );
    ( "rollback.attach",
      [
        t "detach restores guest byte-for-byte"
          test_detach_restores_guest_byte_for_byte;
        t "crash point aborts and rolls back"
          test_crash_point_aborts_and_rolls_back;
        t "abort releases ptrace for the next attach" test_abort_then_reattach;
        t "failed discovery releases ptrace"
          test_failed_discovery_releases_ptrace;
        t "detach cost bound" test_detach_cost_bound;
        t "rollback counters stay lazy" test_rollback_counters_stay_lazy;
        t "snapshot digest matches read-and-hash"
          test_snapshot_digest_matches_reference;
        t "oracle reports a hypervisor write"
          test_oracle_reports_a_hypervisor_write;
        t "oracle compares captures across guests" test_oracle_across_guests;
        t "oracle allocation bound" test_oracle_allocation_bound;
        QCheck_alcotest.to_alcotest prop_oracle_matches_recorded_guest_writes;
        t "guest writes keep the heap flat" test_guest_writes_keep_heap_flat;
      ] );
    ( "rollback.sweep",
      [
        t "crash-point sweep gate (subset)" test_sweep_gate_subset;
        t "sweep covers forked sessions" test_sweep_covers_forked_sessions;
        t "sweep interleaves on the scheduler" test_sweep_interleaves_on_scheduler;
        t "a hung point fails the gate" test_sweep_hang_fails_gate;
      ] );
  ]
