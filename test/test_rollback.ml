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
  check cbool "late writes accumulate for the oracle" true
    (J.late_writes j = [ (0x6000, 8); (0x5000, 16) ]);
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
  let obs = Observe.create ~now:(fun () -> 0.0) () in
  let mx = Observe.metrics obs in
  let j = J.create () in
  (match J.replay ~metrics:mx j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty replay: %s" (E.to_string e));
  check cbool "empty replay registers no counters" false
    (contains (Observe.Export.metrics_json obs) "rollback.");
  J.record j ~what:"x" (fun () -> ());
  (match J.replay ~metrics:mx j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay: %s" (E.to_string e));
  let after = Observe.Export.metrics_json obs in
  check cbool "replays counted" true (contains after "rollback.replays");
  check cbool "entries counted" true (contains after "rollback.entries")

(* --- attach as a transaction --- *)

let test_detach_restores_guest_byte_for_byte () =
  let ((_, vmm, _) as env) = Test_attach.setup ~seed:61 () in
  let vm = Vmm.kvm_vm vmm in
  let before = Vmsh.Snapshot.capture vm in
  match Test_attach.do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      ignore (Vmsh.Attach.console_roundtrip session "hostname");
      let late =
        match Vmsh.Attach.journal session with
        | Some j -> J.late_writes j
        | None -> Alcotest.fail "journal must be on by default"
      in
      (match Vmsh.Attach.detach session with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detach: %s" (E.to_string e));
      let exclude = Vmsh.Snapshot.dirty_since vm before @ late in
      (match
         Vmsh.Snapshot.diff ~before ~after:(Vmsh.Snapshot.capture vm) ~exclude
       with
      | [] -> ()
      | d :: _ as all ->
          Alcotest.failf "oracle: %s (%d discrepancies)" d (List.length all))

let test_crash_point_aborts_and_rolls_back () =
  let h, vmm, _ = Test_attach.setup ~seed:67 () in
  let vm = Vmm.kvm_vm vmm in
  let plan = Faults.create ~seed:1 ~rate:0.0 () in
  Faults.set_abort_at_yield plan (Some 3);
  let before = Vmsh.Snapshot.capture vm in
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
      let exclude = Vmsh.Snapshot.dirty_since vm before in
      check cbool "guest restored byte-for-byte" true
        (Vmsh.Snapshot.check ~before ~after:(Vmsh.Snapshot.capture vm) ~exclude)

let test_journal_off_reverts_to_legacy_detach () =
  let env = Test_attach.setup ~seed:71 () in
  let config = Vmsh.Attach.Config.(with_journal false (make ())) in
  match Test_attach.do_attach ~config env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      check cbool "no journal carried" true
        (Vmsh.Attach.journal session = None);
      (match Vmsh.Attach.detach session with
      | Ok () -> ()
      | Error e -> Alcotest.failf "legacy detach: %s" (E.to_string e))

let test_rollback_counters_stay_lazy () =
  (* a fault-free attach must not even register the rollback/watchdog
     counters (the recovery.* laziness pattern); the detach replay is
     the first thing allowed to *)
  let ((h, _, _) as env) = Test_attach.setup ~seed:73 () in
  match Test_attach.do_attach env with
  | Error e -> Alcotest.failf "attach: %s" e
  | Ok session ->
      let m = Observe.Export.metrics_json h.H.Host.observe in
      check cbool "no rollback counters after a clean attach" false
        (contains m "rollback.");
      check cbool "no watchdog counters either" false (contains m "watchdog.");
      (match Vmsh.Attach.detach session with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detach: %s" (E.to_string e));
      let m = Observe.Export.metrics_json h.H.Host.observe in
      check cbool "detach replay ticks rollback.replays" true
        (contains m "rollback.replays")

(* The digest the oracle computed before guest memory went sparse:
   copy every page out and hash the copy. *)
let reference_digest vm =
  let page = Vmsh.Snapshot.page_size in
  let b = Buffer.create 4096 in
  Kvm.Vm.memslots vm
  |> List.map (fun (s : Kvm.Vm.memslot) -> (s.slot, s.gpa, s.size))
  |> List.sort compare
  |> List.iter (fun (slot, gpa, size) ->
         Buffer.add_string b (Printf.sprintf "%d:%x:%d;" slot gpa size);
         for p = 0 to ((size + page - 1) / page) - 1 do
           let off = p * page in
           Buffer.add_string b
             (Digest.bytes (Kvm.Vm.read_phys vm (gpa + off) (min page (size - off))))
         done);
  Kvm.Vm.vcpus vm
  |> List.map (fun v ->
         ( Kvm.Vm.vcpu_index v,
           Digest.bytes (Kvm.Api.regs_to_bytes (Kvm.Vm.vcpu_regs v)) ))
  |> List.sort compare
  |> List.iter (fun (idx, d) ->
         Buffer.add_string b (string_of_int idx);
         Buffer.add_string b d);
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))

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
       (fun p -> p.Fleet.Sweep.pt_outcome = "aborted")
       r.Fleet.Sweep.sw_points);
  check cbool "both probes completed" true
    (List.for_all
       (fun p -> p.Fleet.Sweep.pt_outcome = "completed")
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
       (fun p -> p.Fleet.Sweep.pt_outcome = "aborted")
       r.Fleet.Sweep.sw_points)

let test_sweep_interleaves_on_scheduler () =
  (* vms > 1 runs the points as fibers on the virtual-time scheduler;
     the post-conditions must hold under interleaving too *)
  let r = Fleet.Sweep.run ~seed:9 ~classes:[ None ] ~max_yields:4 ~vms:2 () in
  check cbool "gate passes interleaved" true (Fleet.Sweep.ok r);
  check cint "probe + swept points" 5 (List.length r.Fleet.Sweep.sw_points)

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
        t "journal off reverts to legacy detach"
          test_journal_off_reverts_to_legacy_detach;
        t "rollback counters stay lazy" test_rollback_counters_stay_lazy;
        t "snapshot digest matches read-and-hash"
          test_snapshot_digest_matches_reference;
      ] );
    ( "rollback.sweep",
      [
        t "crash-point sweep gate (subset)" test_sweep_gate_subset;
        t "sweep covers forked sessions" test_sweep_covers_forked_sessions;
        t "sweep interleaves on the scheduler" test_sweep_interleaves_on_scheduler;
      ] );
  ]
