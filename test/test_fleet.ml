(* The fleet attach engine and the redesigned session API: scheduler
   determinism, config-builder validation, the error taxonomy's
   round-trips, and the cache-accelerated concurrent attach itself. *)

module H = Hostos
module E = Vmsh.Vmsh_error
module Vmm = Hypervisor.Vmm
module B = Fleet.Baseline

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let run_ok cfg =
  match Fleet.run cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "fleet run rejected: %s" (E.to_string e)

let cold ~seed ~vms =
  run_ok (Fleet.Config.make ~vms () |> Fleet.Config.with_seed seed)

(* one baked baseline shared by every fork test (baking is the
   expensive boot-once step the whole design amortizes) *)
let baked = lazy (B.bake ())

let fork_ok ?(seed = 111) ~name img =
  let host = H.Host.create ~seed () in
  match B.fork img ~host ~profile:Hypervisor.Profile.qemu ~name with
  | Ok f -> (host, f)
  | Error e -> Alcotest.failf "fork: %s" (E.to_string e)

(* --- scheduler --- *)

let test_sched_orders_by_virtual_time () =
  (* three fibers burning different per-slice costs: the trace must
     always resume the fiber whose clock is furthest behind *)
  let sched = Sched.create () in
  let order = Buffer.create 64 in
  Sched.set_tracer sched
    (Some (fun ~name ~now_ns:_ -> Buffer.add_string order (name ^ ";")));
  let fiber name cost =
    let clock = H.Clock.create () in
    Sched.spawn sched ~name ~clock (fun () ->
        for _ = 1 to 3 do
          H.Clock.advance clock cost;
          Sched.yield ()
        done)
  in
  fiber "slow" 300.;
  fiber "fast" 100.;
  let outcomes = Sched.run sched in
  List.iter
    (fun (n, o) -> check cbool (n ^ " done") true (o = Sched.Done))
    outcomes;
  (* both start at t=0 (spawn order breaks the tie), then fast runs
     three slices for every one of slow's *)
  (* the final "slow;slow;" is the run-to-completion pair: once fast
     finishes at t=300, slow owns the tail of the schedule *)
  check cstr "interleave"
    "slow;fast;fast;fast;slow;fast;slow;slow;" (Buffer.contents order);
  check cint "yields counted" 6 (Sched.yields sched)

let test_sched_captures_fiber_failure () =
  let sched = Sched.create () in
  let clock = H.Clock.create () in
  Sched.spawn sched ~name:"ok" ~clock (fun () -> Sched.yield ());
  Sched.spawn sched ~name:"bad" ~clock:(H.Clock.create ()) (fun () ->
      failwith "boom");
  match Sched.run sched with
  | [ ("ok", Sched.Done); ("bad", Sched.Failed e) ] ->
      check cstr "failure preserved" "boom"
        (match e with Failure m -> m | _ -> Printexc.to_string e)
  | outcomes ->
      Alcotest.failf "unexpected outcomes (%d fibers)" (List.length outcomes)

let test_yield_outside_run_is_noop () =
  Sched.yield ();
  Sched.yield ()

(* --- config builder --- *)

let validate c =
  match Vmsh.Attach.Config.validate c with
  | Ok _ -> Ok ()
  | Error m -> Error m

let test_config_defaults_valid () =
  check cbool "defaults validate" true
    (Result.is_ok (validate (Vmsh.Attach.Config.make ())))

let test_config_rejects_pci_wrap_conflict () =
  let c =
    Vmsh.Attach.Config.with_pci true
      (Vmsh.Attach.Config.with_transport Vmsh.Devices.Wrap_syscall
         (Vmsh.Attach.Config.make ()))
  in
  match validate c with
  | Ok () -> Alcotest.fail "pci + wrap_syscall must be rejected"
  | Error m -> check cbool "names the conflict" true (String.length m > 0)

let test_config_rejects_miscabled_net () =
  let h = H.Host.create ~seed:3 () in
  let fabric_a = Net.Fabric.of_host h in
  let h2 = H.Host.create ~seed:4 () in
  let fabric_b = Net.Fabric.of_host h2 in
  let link = Net.Link.create fabric_b ~name:"wrong" () in
  let c =
    Vmsh.Attach.Config.with_net
      { Vmsh.Attach.fabric = fabric_a; port = Net.Link.a link }
      (Vmsh.Attach.Config.make ())
  in
  (match validate c with
  | Ok () -> Alcotest.fail "port on another fabric must be rejected"
  | Error _ -> ());
  (* correctly cabled passes *)
  let good =
    Vmsh.Attach.Config.with_net
      { Vmsh.Attach.fabric = fabric_b; port = Net.Link.a link }
      (Vmsh.Attach.Config.make ())
  in
  check cbool "same fabric validates" true (Result.is_ok (validate good))

let test_config_rejects_bad_pid_and_command () =
  let bad_pid =
    Vmsh.Attach.Config.with_container_pid 0 (Vmsh.Attach.Config.make ())
  in
  check cbool "pid 0 rejected" true (Result.is_error (validate bad_pid));
  let bad_cmd =
    Vmsh.Attach.Config.with_command "" (Vmsh.Attach.Config.make ())
  in
  check cbool "empty command rejected" true (Result.is_error (validate bad_cmd))

let test_invalid_config_surfaces_through_attach () =
  let env = Test_attach.setup ~seed:51 () in
  let config =
    Vmsh.Attach.Config.with_pci true
      (Vmsh.Attach.Config.with_transport Vmsh.Devices.Wrap_syscall
         (Vmsh.Attach.Config.make ()))
  in
  match Test_attach.do_attach ~config env with
  | Ok _ -> Alcotest.fail "invalid config must not attach"
  | Error e ->
      check cbool "rendered as invalid attach config" true
        (String.length e >= 21 && String.sub e 0 21 = "invalid attach config")

(* --- error taxonomy --- *)

let test_error_golden_renderings () =
  (* one case per variant: the rendered form is what result logs, CI
     artifacts and the CLI print, so it must not drift *)
  List.iter
    (fun (e, want) -> check cstr want want (E.to_string e))
    [
      (E.Attach_aborted (E.Msg "tracee has no threads"),
       "attach aborted: tracee has no threads");
      (E.Guest_error (Vmsh.Klib_builder.device Blk).err_status,
       "guest library failed with status 0x82 (block device registration)");
      (E.Guest_fault "bad opcode", "guest error: bad opcode");
      (E.Substrate H.Errno.EPERM, "Errno.EPERM");
      (E.Injection ("ptrace attach", H.Errno.EACCES),
       "ptrace attach: errno Errno.EACCES");
      (E.Timeout 1, "guest library did not complete (status 1)");
      (E.Invalid_config "container_pid must be positive",
       "invalid attach config: container_pid must be positive");
      (E.Unsupported "no KVM_CAP_IOREGIONFD", "no KVM_CAP_IOREGIONFD");
      (E.Context ("guest-ready poll", E.Deadline_exceeded 2_000_000_000),
       "guest-ready poll: virtual-time deadline exceeded after 2000000000 ns");
      (E.Msg "symbol not found", "symbol not found");
      (E.Rollback_failed (E.Context ("remote eventfd", E.Substrate H.Errno.EBADF)),
       "rollback failed: remote eventfd: Errno.EBADF");
      (E.Deadline_exceeded 1_000_000_001,
       "virtual-time deadline exceeded after 1000000001 ns");
      (E.Baseline_stale "build id drifted", "stale baseline image: build id drifted");
      (E.Overlay_fault "ram region is 1 MiB, want 32 MiB",
       "overlay fault: ram region is 1 MiB, want 32 MiB");
      (E.Guest_misbehavior "symbol moved", "guest misbehavior: symbol moved");
      (E.Attach_aborted (E.Crash_point 3), "attach aborted: crash point at yield 3");
    ]

let test_error_strings_preserve_legacy_messages () =
  check cstr "guest status note"
    "guest library failed with status 0x82 (block device registration)"
    (E.to_string (E.Guest_error (Vmsh.Klib_builder.device Blk).err_status));
  check cstr "attach aborted prefix" "attach aborted: guest error: boom"
    (E.to_string (E.Attach_aborted (E.Guest_fault "boom")));
  check cstr "injection style"
    ("ptrace attach: errno " ^ H.Errno.show H.Errno.EPERM)
    (E.to_string (E.Injection ("ptrace attach", H.Errno.EPERM)));
  check cstr "substrate context"
    ("bind /run/x.sock: " ^ H.Errno.show H.Errno.EACCES)
    (E.to_string (E.substrate "bind /run/x.sock" H.Errno.EACCES))

(* --- device registry --- *)

let test_gsi_plan_matches_legacy_assignment () =
  match
    Vmsh.Devices.gsi_plan
      [ Vmsh.Devices.Console; Vmsh.Devices.Blk; Vmsh.Devices.Net;
        Vmsh.Devices.Ninep ]
  with
  | [ (Vmsh.Devices.Console, 24); (Vmsh.Devices.Blk, 25);
      (Vmsh.Devices.Net, 26); (Vmsh.Devices.Ninep, 27) ] ->
      ()
  | plan -> Alcotest.failf "unexpected plan (%d entries)" (List.length plan)

(* --- fleet config builder --- *)

let test_fleet_config_defaults () =
  let c = Fleet.Config.make () in
  check cint "one vm" 1 (Fleet.Config.vms c);
  check cint "seed 7" 7 (Fleet.Config.seed c);
  check cbool "cold boot by default" false (Fleet.Config.is_fork c);
  check cbool "defaults validate" true
    (Result.is_ok (Fleet.Config.validate c))

let test_fleet_config_rejects_bad_values () =
  (match Fleet.Config.validate (Fleet.Config.make ~vms:0 ()) with
  | Error (E.Invalid_config _) -> ()
  | Error e -> Alcotest.failf "wrong error for vms=0: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "vms=0 must be rejected");
  match
    Fleet.Config.validate
      (Fleet.Config.make ~vms:1 () |> Fleet.Config.with_fault_rate 1.5)
  with
  | Error (E.Invalid_config _) -> ()
  | Error e -> Alcotest.failf "wrong error for fault_rate: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "fault_rate outside [0,1] must be rejected"

let test_fleet_config_rejects_stale_baseline () =
  let img = Lazy.force baked in
  let c =
    Fleet.Config.make ~vms:1 ()
    |> Fleet.Config.with_boot_source (Fleet.Config.Fork_of img)
    |> Fleet.Config.with_version Linux_guest.Kernel_version.V5_4
  in
  (match Fleet.Config.validate c with
  | Error (E.Baseline_stale _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "kernel mismatch must be Baseline_stale");
  (* and the engine rejects it as a typed error before any session runs *)
  match Fleet.run c with
  | Error (E.Baseline_stale _) -> ()
  | Error e -> Alcotest.failf "run: wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "run must reject a stale baseline"

(* The one-release deprecation window for the pre-Config shims is over:
   [Fleet.run_legacy] and the [Attach.of_legacy] record path are gone.
   Pin their absence by scanning the interfaces themselves (declared as
   test deps), so a future revival fails here instead of silently
   re-growing the old API. *)
let test_fleet_shims_retired () =
  let read path =
    (* dune runtest copies the declared deps next to the test's cwd;
       under a bare [dune exec] the cwd is the repo root instead *)
    let path =
      if Sys.file_exists path then path
      else String.sub path 3 (String.length path - 3)
    in
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  let fleet_mli = read "../lib/fleet/fleet.mli" in
  let attach_mli = read "../lib/core/attach.mli" in
  check cbool "Fleet.run_legacy retired" false
    (contains fleet_mli "run_legacy");
  check cbool "Attach.Config.of_legacy retired" false
    (contains attach_mli "of_legacy");
  check cbool "Attach.default_config retired" false
    (contains attach_mli "default_config");
  check cbool "legacy config record retired" false
    (contains attach_mli "type config =");
  (* the replacement APIs are present *)
  check cbool "Fleet.run present" true (contains fleet_mli "val run :");
  check cbool "Config builder present" true
    (contains attach_mli "val with_symbol_cache")

(* --- copy-on-write overlays & baseline forking --- *)

let test_mem_cow_semantics () =
  let base = Bytes.make (3 * 4096) 'a' in
  let m = H.Mem.cow base in
  check cint "read falls through to the base" (Char.code 'a')
    (H.Mem.read_u8 m 5000);
  (* a write of identical bytes must not copy the page *)
  H.Mem.write_u8 m 5000 (Char.code 'a');
  let st = Option.get (H.Mem.cow_stats m) in
  check cint "identical write copies nothing" 0 st.H.Mem.cs_pages_copied;
  check cbool "identical write counted as silent" true
    (st.H.Mem.cs_silent_writes >= 1);
  (* first diverging write copies exactly the touched page *)
  H.Mem.write_u8 m 5000 (Char.code 'b');
  let st = Option.get (H.Mem.cow_stats m) in
  check cint "one page copied" 1 st.H.Mem.cs_pages_copied;
  check cint "writer sees its copy" (Char.code 'b') (H.Mem.read_u8 m 5000);
  (* the copy is invisible to the base and to a sibling overlay *)
  check cint "base unaffected" (Char.code 'a') (Char.code (Bytes.get base 5000));
  check cint "sibling unaffected" (Char.code 'a')
    (H.Mem.read_u8 (H.Mem.cow base) 5000);
  (* a page written back to its base bytes is reclaimable *)
  H.Mem.write_u8 m 5000 (Char.code 'a');
  check cint "re-converged page reclaimed" 1 (H.Mem.cow_reclaim m);
  let st = Option.get (H.Mem.cow_stats m) in
  check cint "sharing restored" 0 st.H.Mem.cs_pages_copied

let test_mem_cow_edge_cases () =
  let pages = 4 in
  let base = Bytes.make (pages * 4096) 'a' in
  let m = H.Mem.cow base in
  let stats () = Option.get (H.Mem.cow_stats m) in
  check cint "total spans the buffer" pages (stats ()).H.Mem.cs_pages_total;
  (* silent write then diverging write to the same page: the silent
     write must not pre-copy, and the diverging one must copy exactly
     once with both counters advancing independently *)
  H.Mem.write_u8 m 100 (Char.code 'a');
  let silent_before = (stats ()).H.Mem.cs_silent_writes in
  check cint "silent write copies nothing" 0 (stats ()).H.Mem.cs_pages_copied;
  H.Mem.write_u8 m 101 (Char.code 'z');
  let st = stats () in
  check cint "diverging write copies the page" 1 st.H.Mem.cs_pages_copied;
  check cint "silent count survives the copy" silent_before
    st.H.Mem.cs_silent_writes;
  check cint "page carries both writes" (Char.code 'z') (H.Mem.read_u8 m 101);
  check cint "untouched bytes fell through at copy time" (Char.code 'a')
    (H.Mem.read_u8 m 102);
  (* resident bytes track copied pages exactly *)
  H.Mem.write_u8 m (2 * 4096) (Char.code 'q');
  let st = stats () in
  check cint "two pages resident" (2 * 4096) st.H.Mem.cs_resident_bytes;
  check cint "copied matches residency" 2 st.H.Mem.cs_pages_copied;
  check cint "total is invariant under writes" pages st.H.Mem.cs_pages_total;
  (* reclaim takes back only the re-converged page ... *)
  H.Mem.write_u8 m 101 (Char.code 'a');
  check cint "one page re-converged" 1 (H.Mem.cow_reclaim m);
  let st = stats () in
  check cint "the diverged page stays resident" 1 st.H.Mem.cs_pages_copied;
  check cint "residency shrank with the reclaim" 4096 st.H.Mem.cs_resident_bytes;
  (* ... and a write to the reclaimed page after reclaim (the
     write-during-replay hazard: the overlay page is gone, the base is
     shared again) must copy afresh, not scribble on the shared base *)
  H.Mem.write_u8 m 100 (Char.code 'y');
  let st = stats () in
  check cint "reclaimed page re-copied on divergence" 2
    st.H.Mem.cs_pages_copied;
  check cint "base still pristine" (Char.code 'a')
    (Char.code (Bytes.get base 100));
  check cint "overlay sees the new write" (Char.code 'y')
    (H.Mem.read_u8 m 100);
  (* a second reclaim with nothing re-converged is a no-op *)
  check cint "reclaim without convergence reclaims nothing" 0
    (H.Mem.cow_reclaim m);
  (* freeze folds base + overlay; a fresh view over it shares fully *)
  let frozen = H.Mem.freeze m in
  let m2 = H.Mem.cow frozen in
  check cint "frozen image carries the overlay" (Char.code 'y')
    (H.Mem.read_u8 m2 100);
  check cint "fresh view starts fully shared" 0
    (Option.get (H.Mem.cow_stats m2)).H.Mem.cs_pages_copied

let test_fork_digest_matches_baseline () =
  (* a fork that keeps the baseline's hostname diverges on nothing: the
     snapshot oracle digests identical bytes straight through the
     base/overlay fall-through *)
  let img = Lazy.force baked in
  let _, f = fork_ok ~name:(B.hostname img) img in
  check cstr "digest through fall-through" (B.digest img)
    (Vmsh.Snapshot.digest (Vmsh.Snapshot.capture (Vmm.kvm_vm f.B.fk_vmm)));
  let st = B.resident f in
  check cint "zero pages copied" 0 st.H.Mem.cs_pages_copied;
  check cbool "pages shared with the image" true (st.H.Mem.cs_pages_total > 0);
  check cbool "fork cost charged" true (f.B.fk_fork_ns > 0.)

let test_fork_isolation () =
  let img = Lazy.force baked in
  let _, fa = fork_ok ~seed:111 ~name:"vm-a" img in
  let _, fb = fork_ok ~seed:112 ~name:"vm-b" img in
  let gpa = 0x50_0000 in
  let before = Kvm.Vm.read_phys (Vmm.kvm_vm fb.B.fk_vmm) gpa 4096 in
  Kvm.Vm.write_phys (Vmm.kvm_vm fa.B.fk_vmm) gpa (Bytes.make 4096 '\xee');
  check cbool "writer sees its private copy" true
    (Kvm.Vm.read_phys (Vmm.kvm_vm fa.B.fk_vmm) gpa 4096
    = Bytes.make 4096 '\xee');
  check cbool "sibling still sees the shared page" true
    (Kvm.Vm.read_phys (Vmm.kvm_vm fb.B.fk_vmm) gpa 4096 = before);
  check cbool "base image untouched" true
    (Bytes.sub (B.Debug.ram img) gpa 4096 = before);
  (* per-clone provisioning already diverged the hostname pages, and
     each clone answers with its own name *)
  check cbool "writer copied at least one page" true
    ((B.resident fa).H.Mem.cs_pages_copied >= 1)

let test_fork_journal_rollback () =
  (* one forked crash-matrix cell: kill the attach at a yield point and
     let the snapshot oracle prove the journal restored the overlay *)
  let img = Lazy.force baked in
  let pt =
    Fleet.Sweep.run_point ~baseline:img ~seed:5 ~cls:None ~k:(Some 4) ()
  in
  let r = pt.Fleet.Sweep.pt_report in
  check cstr "crash point fired" "aborted" (Fleet.Sweep.outcome pt);
  check cbool "journal rolled the overlay back" true
    (r.Fleet.Session.oracle = []);
  check cint "no leaked descriptors" 0 r.Fleet.Session.leaked_fds;
  check cbool "clean abort" false (Fleet.Sweep.unclean r.Fleet.Session.verdict)

let test_baseline_save_load_roundtrip () =
  let img = Lazy.force baked in
  let path = Filename.temp_file "vmsh-baseline" ".vmshbase" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  B.save img ~path;
  (match B.load ~path with
  | Error e -> Alcotest.failf "load: %s" (E.to_string e)
  | Ok img' ->
      check cstr "digest survives" (B.digest img) (B.digest img');
      check cstr "hostname survives" (B.hostname img) (B.hostname img');
      check cbool "ram bytes survive" true (B.Debug.ram img = B.Debug.ram img');
      check cbool "disk bytes survive" true
        (B.Debug.disk img = B.Debug.disk img');
      (* the reloaded image forks into the same guest *)
      let _, f = fork_ok ~name:(B.hostname img') img' in
      check cstr "reloaded image forks identically" (B.digest img)
        (Vmsh.Snapshot.digest (Vmsh.Snapshot.capture (Vmm.kvm_vm f.B.fk_vmm))));
  (* a corrupt file is a typed, recoverable staleness error *)
  let oc = open_out_bin path in
  output_string oc "not a baseline";
  close_out oc;
  match B.load ~path with
  | Error (E.Baseline_stale _) -> ()
  | Error e -> Alcotest.failf "wrong error for garbage: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "garbage must not load"

let test_forked_fleet_cheap_and_isolated () =
  let img = Lazy.force baked in
  let r =
    run_ok
      (Fleet.Config.make ~vms:4 ()
      |> Fleet.Config.with_seed 11
      |> Fleet.Config.with_boot_source (Fleet.Config.Fork_of img))
  in
  check cbool "report marked forked" true r.Fleet.r_forked;
  List.iter
    (fun s ->
      check cbool (s.Fleet.s_name ^ " attached") true
        (Result.is_ok s.Fleet.s_result);
      check cbool (s.Fleet.s_name ^ " fork cost recorded") true
        (not (Float.is_nan s.Fleet.s_fork_ns)))
    r.Fleet.r_sessions;
  (* the acceptance bar: forking is at least 10x below a cold attach *)
  check cbool "fork p99 well below attach p50" true
    (Fleet.fork_p r 0.99 *. 10. < Fleet.attach_p r 0.50);
  let json = Fleet.metrics_json r in
  List.iter
    (fun needle ->
      check cbool ("forked metrics carry " ^ needle) true (contains json needle))
    [ "\"fleet.fork_ns.fleet\""; "\"overlay.pages_copied\"";
      "\"overlay.pages_shared\""; "\"overlay.resident_bytes\"" ];
  (* bounded occupancy: every session diverges a handful of pages, not
     its whole address space *)
  List.iter
    (fun s ->
      let c name =
        Observe.Metrics.counter_value
          (Observe.Metrics.counter
             (Observe.metrics s.Fleet.s_host.H.Host.observe)
             name)
      in
      check cbool (s.Fleet.s_name ^ " copied < shared") true
        (c "overlay.pages_copied" < c "overlay.pages_shared"))
    r.Fleet.r_sessions

let test_forked_fleet_deterministic_256 () =
  let img = Lazy.force baked in
  let cfg =
    Fleet.Config.make ~vms:256 ()
    |> Fleet.Config.with_seed 11
    |> Fleet.Config.with_boot_source (Fleet.Config.Fork_of img)
  in
  let run () =
    let r = run_ok cfg in
    check cint "256 sessions" 256 (List.length r.Fleet.r_sessions);
    List.iter
      (fun s ->
        check cbool (s.Fleet.s_name ^ " attached") true
          (Result.is_ok s.Fleet.s_result))
      r.Fleet.r_sessions;
    (r.Fleet.r_schedule, Fleet.metrics_json r, Fleet.digest r)
  in
  let sched_a, metrics_a, digest_a = run () in
  let sched_b, metrics_b, digest_b = run () in
  check cbool "byte-identical schedule" true (sched_a = sched_b);
  check cbool "byte-identical metrics" true (metrics_a = metrics_b);
  check cstr "identical fleet digest" digest_a digest_b

(* --- fleet engine --- *)

let test_fleet_attaches_all_sessions () =
  let r = cold ~seed:5 ~vms:3 in
  check cint "three sessions" 3 (List.length r.Fleet.r_sessions);
  List.iter
    (fun s ->
      check cbool (s.Fleet.s_name ^ " attached") true
        (Result.is_ok s.Fleet.s_result))
    r.Fleet.r_sessions;
  check cbool "scheduler interleaved" true (r.Fleet.r_yields > 0);
  check cbool "schedule nonempty" true (String.length r.Fleet.r_schedule > 0)

let test_fleet_shares_symbol_cache () =
  let r = cold ~seed:6 ~vms:4 in
  check cint "one full analysis" 1 r.Fleet.r_cache_misses;
  check cint "rest hit the cache" 3 r.Fleet.r_cache_hits;
  (* the hit must be measurably cheaper: every cached session attaches
     faster than the one that paid the image scan *)
  match r.Fleet.r_sessions with
  | first :: rest ->
      List.iter
        (fun s ->
          check cbool (s.Fleet.s_name ^ " faster than cold attach") true
            (s.Fleet.s_attach_ns < first.Fleet.s_attach_ns))
        rest
  | [] -> Alcotest.fail "no sessions"

let test_fleet_no_sharing_all_miss () =
  let r =
    run_ok
      (Fleet.Config.make ~vms:2 ()
      |> Fleet.Config.with_seed 6
      |> Fleet.Config.with_share_symbols false)
  in
  check cint "no hits" 0 r.Fleet.r_cache_hits;
  check cint "no misses counted (no cache armed)" 0 r.Fleet.r_cache_misses

let test_fleet_deterministic () =
  (* the acceptance bar: two identical runs, byte-identical schedules
     and metrics *)
  let run () =
    let r = cold ~seed:7 ~vms:8 in
    let mx = Observe.Metrics.create () in
    Fleet.record mx ~label:"n8" r;
    (r.Fleet.r_schedule, Observe.Export.metrics_json mx)
  in
  let sched_a, metrics_a = run () in
  let sched_b, metrics_b = run () in
  check cstr "byte-identical schedule" sched_a sched_b;
  check cstr "byte-identical metrics" metrics_a metrics_b;
  check cbool "schedule mentions every session" true
    (List.for_all
       (fun i ->
         let needle = Printf.sprintf " vm%d " i in
         let hay = " " ^ sched_a ^ " " in
         let rec find j =
           j + String.length needle <= String.length hay
           && (String.sub hay j (String.length needle) = needle
              || find (j + 1))
         in
         find 0)
       [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_fleet_merged_metrics () =
  let r = cold ~seed:9 ~vms:3 in
  let json = Fleet.metrics_json r in
  let contains needle = contains json needle in
  List.iter
    (fun needle ->
      check cbool ("metrics_json carries " ^ needle) true (contains needle))
    [
      (* merged fleet-wide registry plus the per-session breakdown *)
      "\"fleet\"";
      "\"sessions\"";
      "\"vm0\"";
      "\"vm1\"";
      "\"vm2\"";
      (* fleet-level summary only the aggregate can know *)
      "\"fleet.attach_ns.fleet\"";
      "\"fleet.yields.fleet\"";
      (* per-stage pipeline profile folded in from every session *)
      "\"stage.attach.total_ns\"";
      "\"symcache.hits\"";
    ];
  check cbool "no failures counter on a clean run" false
    (contains "\"fleet.failures.fleet\"");
  (* the merged document must be as deterministic as the run itself *)
  check cstr "byte-identical merged metrics" json
    (Fleet.metrics_json (cold ~seed:9 ~vms:3));
  (* the fleet digest folds every session digest, so it is non-empty
     and stable across identical runs *)
  check cstr "stable fleet digest" (Fleet.digest r)
    (Fleet.digest (cold ~seed:9 ~vms:3))

(* --- the lazy session digest --- *)

(* A digest forced late equals one forced at once: the capture answers
   every page as of its mark, so a byte written into guest RAM after
   the session (through the hypervisor's own mapping) must not reach
   it. *)
let test_late_digest_is_exact () =
  let run () =
    let host = H.Host.create ~seed:23 () in
    let spec = Fleet.Session.spec (Fleet.Session.cold "late") in
    (host, Fleet.Session.run ~host spec)
  in
  let _, twin = run () in
  let at_once = Lazy.force twin.Fleet.Session.digest in
  let host, r = run () in
  check cbool "session survived" true
    (r.Fleet.Session.verdict = Faults.Abort.Survived);
  check cbool "digest not computed yet" false
    (Lazy.is_val r.Fleet.Session.digest);
  let ram_len = 64 * 1024 * 1024 in
  let aspace, ram =
    List.find_map
      (fun p ->
        List.find_opt
          (fun m -> m.H.Mem.Addr_space.len = ram_len)
          (H.Mem.Addr_space.mappings p.H.Proc.aspace)
        |> Option.map (fun m -> (p.H.Proc.aspace, m)))
      host.H.Host.procs
    |> Option.get
  in
  let va = ram.H.Mem.Addr_space.base + 0x1234 in
  let old = Char.code (Bytes.get (H.Mem.Addr_space.read aspace va 1) 0) in
  H.Mem.Addr_space.write aspace va (Bytes.make 1 (Char.chr (old lxor 0x5a)));
  check cstr "late digest equals the twin's" at_once
    (Lazy.force r.Fleet.Session.digest)

(* The session picks VirtIO over PCI from the profile: Cloud
   Hypervisor's irqchip is MSI-X only, so an MMIO attach cannot signal
   its guest. *)
let test_session_cloud_hypervisor () =
  let r =
    Fleet.Session.run ~host:(H.Host.create ~seed:21 ())
      (Fleet.Session.spec
         (Fleet.Session.cold ~profile:Hypervisor.Profile.cloud_hypervisor "ch"))
  in
  check cstr "verdict" "survived"
    (Faults.Abort.to_string r.Fleet.Session.verdict)

(* Every process a session starts is gone after it, whether the attach
   completed or a crash point aborted it; the oracle would name one that
   outlived it. *)
let test_session_leaves_pids () =
  let run plan =
    let host = H.Host.create ~seed:29 () in
    let booted = ref [] in
    let step = function
      | Fleet.Session.Booted _ ->
          booted := H.Host.pids host;
          Ok ()
      | Fleet.Session.Attached _ -> Ok ()
    in
    let r =
      Fleet.Session.run ~step ~host
        (Fleet.Session.spec ?plan (Fleet.Session.cold "pids"))
    in
    check (Alcotest.list cint) "pids as at boot" !booted (H.Host.pids host);
    check (Alcotest.list cstr) "oracle" [] r.Fleet.Session.oracle;
    r.Fleet.Session.outcome
  in
  check cbool "completed" true (run None = Fleet.Session.Completed);
  let plan = Faults.create ~seed:1 ~rate:0.0 () in
  Faults.set_abort_at_yield plan (Some 2);
  match run (Some plan) with
  | Fleet.Session.Aborted _ -> ()
  | _ -> Alcotest.fail "the crash point must abort the attach"

(* A sweep point outlives its host, so it must hold its digest as a
   string, never the guest memory an unforced digest would retain. *)
let test_sweep_points_retain_no_guest () =
  let r = Fleet.Sweep.run ~seed:5 ~classes:[ None ] ~max_yields:3 () in
  check cint "probe + swept points" 4 (List.length r.Fleet.Sweep.sw_points);
  List.iter
    (fun p ->
      let d = p.Fleet.Sweep.pt_report.Fleet.Session.digest in
      check cbool
        (Printf.sprintf "point k=%d digest forced" p.Fleet.Sweep.pt_yield)
        true (Lazy.is_val d);
      check cbool "a real digest" true (Lazy.force d <> ""))
    r.Fleet.Sweep.sw_points

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "sched",
      [
        t "resumes smallest virtual time" test_sched_orders_by_virtual_time;
        t "captures fiber failure" test_sched_captures_fiber_failure;
        t "yield outside run is noop" test_yield_outside_run_is_noop;
      ] );
    ( "attach.config",
      [
        t "defaults valid" test_config_defaults_valid;
        t "pci + wrap_syscall rejected" test_config_rejects_pci_wrap_conflict;
        t "miscabled net rejected" test_config_rejects_miscabled_net;
        t "bad pid / empty command rejected"
          test_config_rejects_bad_pid_and_command;
        t "invalid config surfaces through attach"
          test_invalid_config_surfaces_through_attach;
      ] );
    ( "vmsh.errors",
      [
        t "golden rendering per variant" test_error_golden_renderings;
        t "legacy messages preserved" test_error_strings_preserve_legacy_messages;
      ] );
    ( "devices.registry",
      [ t "gsi plan matches legacy" test_gsi_plan_matches_legacy_assignment ] );
    ( "fleet.config",
      [
        t "defaults valid" test_fleet_config_defaults;
        t "bad vms / fault_rate rejected" test_fleet_config_rejects_bad_values;
        t "stale baseline rejected" test_fleet_config_rejects_stale_baseline;
        t "deprecated shims retired" test_fleet_shims_retired;
      ] );
    ( "fleet.baseline",
      [
        t "cow page semantics" test_mem_cow_semantics;
        t "cow reclaim and re-copy edge cases" test_mem_cow_edge_cases;
        t "fork digests through fall-through" test_fork_digest_matches_baseline;
        t "fork isolation" test_fork_isolation;
        t "journal rolls back overlay writes" test_fork_journal_rollback;
        t "save/load roundtrip" test_baseline_save_load_roundtrip;
        t "forked fleet is cheap and isolated"
          test_forked_fleet_cheap_and_isolated;
        Alcotest.test_case "vms=256 forked byte-identical runs" `Slow
          test_forked_fleet_deterministic_256;
      ] );
    ( "fleet",
      [
        t "all sessions attach" test_fleet_attaches_all_sessions;
        t "symbol cache shared" test_fleet_shares_symbol_cache;
        t "sharing can be disabled" test_fleet_no_sharing_all_miss;
        t "vms=8 byte-identical runs" test_fleet_deterministic;
        t "merged metrics document" test_fleet_merged_metrics;
        t "a late digest is exact" test_late_digest_is_exact;
        t "sweep points retain no guest" test_sweep_points_retain_no_guest;
        t "a cold session on cloud-hypervisor survives"
          test_session_cloud_hypervisor;
        t "a session leaves Host.pids as it found it" test_session_leaves_pids;
      ] );
  ]
