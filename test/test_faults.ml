(* lib/faults and the recovery machinery: every fault class is
   survivable by its bounded-retry path, identical seeds replay
   byte-identically, and a disabled plan is perfectly neutral. *)

module H = Hostos
module F = Faults
module Fabric = Net.Fabric

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let counter_value h name =
  Observe.Metrics.counter_value
    (Observe.Metrics.counter (Observe.metrics h.H.Host.observe) name)

(* --- the plan itself --- *)

let test_names_roundtrip () =
  List.iter
    (fun c ->
      match F.of_name (F.name c) with
      | Some c' -> check cbool (F.name c) true (c = c')
      | None -> Alcotest.failf "of_name failed for %s" (F.name c))
    F.all;
  check cbool "unknown name" true (F.of_name "no-such-fault" = None)

let test_disabled_never_fires () =
  List.iter
    (fun c ->
      for _ = 1 to 50 do
        check cbool "disabled fire" false (F.fire F.disabled c)
      done)
    F.all;
  check cint "disabled injected" 0 (F.total_injected F.disabled)

let test_plan_deterministic () =
  let query plan =
    List.init 200 (fun i -> F.fire plan (List.nth F.all (i mod 7)))
  in
  let a = query (F.create ~seed:42 ~rate:0.4 ()) in
  let b = query (F.create ~seed:42 ~rate:0.4 ()) in
  let c = query (F.create ~seed:43 ~rate:0.4 ()) in
  check cbool "same seed, same decisions" true (a = b);
  check cbool "different seed, different decisions" false (a = c)

let test_cap_respected () =
  let plan = F.create ~seed:5 ~rate:1.0 ~cap:3 ~classes:[ F.Inject_eintr ] () in
  let fired = List.init 10 (fun _ -> F.fire plan F.Inject_eintr) in
  check cint "fires exactly cap times" 3
    (List.length (List.filter Fun.id fired));
  check cint "injected count" 3 (F.injected plan F.Inject_eintr);
  (* unarmed classes never fire even at rate 1.0 elsewhere *)
  check cbool "other class silent" false (F.fire plan F.Desc_torn)

(* --- per-class attach recovery --- *)

(* Boost exactly one class below the retry bound (cap 2 < 6 attempts):
   the fault must be injected AND the named recovery counter must tick,
   and the attach must still complete. *)
let attach_survives_class (cls, recovery_counter) () =
  let plan = F.create ~seed:11 ~rate:1.0 ~cap:2 ~classes:[ cls ] () in
  let ((h, _, _) as env) = Test_attach.setup ~seed:77 () in
  H.Host.arm_faults h plan;
  match Test_attach.do_attach env with
  | Error e -> Alcotest.failf "attach under %s failed: %s" (F.name cls) e
  | Ok _ ->
      check cbool
        (Printf.sprintf "%s was injected" (F.name cls))
        true
        (F.injected plan cls > 0);
      check cbool
        (Printf.sprintf "%s ticked %s" (F.name cls) recovery_counter)
        true
        (counter_value h recovery_counter > 0);
      check cint "metrics mirror the injections"
        (F.injected plan cls)
        (counter_value h ("faults.injected." ^ F.name cls))

let attach_path_classes =
  [
    (F.Inject_eintr, "recovery.syscall_retry");
    (F.Inject_eagain, "recovery.syscall_retry");
    (F.Vm_rw_efault, "recovery.vm_rw_retry");
    (F.Attach_race, "recovery.attach_retry");
    (F.Notify_drop, "recovery.notify_rekick");
    (F.Desc_torn, "recovery.vq_requeue");
  ]

(* A schedule hotter than the retry bound must abort cleanly — an
   [Error], never an escaped exception or a hang. *)
let test_exhausted_retries_fail_cleanly () =
  let plan = F.create ~seed:3 ~rate:1.0 ~classes:[ F.Vm_rw_efault ] () in
  let ((h, _, _) as env) = Test_attach.setup ~seed:78 () in
  H.Host.arm_faults h plan;
  match Test_attach.do_attach env with
  | Ok _ -> Alcotest.fail "attach should not survive an unbounded EFAULT storm"
  | Error e ->
      check cbool "diagnosable abort" true
        (String.length e >= 14 && String.sub e 0 14 = "attach aborted")

(* --- link bursts --- *)

let test_link_burst () =
  let h = H.Host.create ~seed:3 () in
  let plan =
    F.create ~seed:9 ~rate:1.0 ~cap:1 ~classes:[ F.Link_burst ] ~burst:3 ()
  in
  H.Host.arm_faults h plan;
  let fab = Fabric.of_host h in
  (* one firing opens a burst of 3 consecutive drops, then the cap is
     spent and the link is clean again *)
  let drops = List.init 8 (fun _ -> Fabric.burst_drop fab) in
  check cbool "burst of 3"
    true
    (drops = [ true; true; true; false; false; false; false; false ]);
  check cint "one injection, not three" 1 (F.injected plan F.Link_burst)

(* --- determinism and neutrality --- *)

let trace_of_attach ~host_seed ~fault_seed =
  let ((h, _, _) as env) = Test_attach.setup ~seed:host_seed () in
  Observe.enable h.H.Host.observe;
  H.Host.arm_faults h (F.create ~seed:fault_seed ~rate:0.3 ~cap:4 ());
  (match Test_attach.do_attach env with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach failed: %s" e);
  ( Observe.Export.chrome_trace h.H.Host.observe,
    Observe.Export.metrics_json (Observe.metrics h.H.Host.observe) )

let test_same_seed_identical_trace () =
  let t1, m1 = trace_of_attach ~host_seed:91 ~fault_seed:17 in
  let t2, m2 = trace_of_attach ~host_seed:91 ~fault_seed:17 in
  check cbool "byte-identical trace" true (String.equal t1 t2);
  check cbool "byte-identical metrics" true (String.equal m1 m2);
  let t3, _ = trace_of_attach ~host_seed:91 ~fault_seed:18 in
  check cbool "different fault seed, different trace" false
    (String.equal t1 t3)

let metrics_of_attach ~arm_disabled =
  let ((h, _, _) as env) = Test_attach.setup ~seed:92 () in
  if arm_disabled then H.Host.arm_faults h F.disabled;
  (match Test_attach.do_attach env with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach failed: %s" e);
  Observe.Export.metrics_json (Observe.metrics h.H.Host.observe)

let test_disabled_plan_is_neutral () =
  let baseline = metrics_of_attach ~arm_disabled:false in
  let armed = metrics_of_attach ~arm_disabled:true in
  check cstr "disabled plan leaves metrics byte-identical" baseline armed

(* --- the verdict text every ledger, results file and reproducer
   carries --- *)

let test_abort_text () =
  let open F.Abort in
  List.iter
    (fun (v, label_want, want) ->
      check cstr (want ^ ": label") label_want (label v);
      check cstr want want (to_string v);
      check cstr (want ^ ": detail")
        (match String.index_opt want ':' with
        | Some i -> String.sub want (i + 2) (String.length want - i - 2)
        | None -> "")
        (detail v))
    [
      (Survived, "survived", "survived");
      ( Clean_abort "attach aborted: crash point at yield 3",
        "clean-abort",
        "clean-abort: attach aborted: crash point at yield 3" );
      ( Bug (Hang 200_009e6),
        "BUG",
        "BUG: hang: 200009 ms of virtual time exceeds the budget" );
      (Bug (Escaped "Not_found"), "BUG", "BUG: escaped exception: Not_found");
      ( Bug (Broken "console dead after attach"),
        "BUG",
        "BUG: console dead after attach" );
      ( Bug (Oracle "gpa 0x1000 differs"),
        "BUG",
        "BUG: oracle: gpa 0x1000 differs" );
      (Bug (Leaked_fds 2), "BUG", "BUG: leaked 2 descriptors");
    ]

(* --- the remote-copy path under faults, pinned ---

   An attach under an EFAULT-only plan (rate 0.3, cap 4): every
   injected fault is a process_vm call that bounced and was retried
   with backoff. The trace, the metrics, the virtual time and the retry
   count are pinned, so a change to the remote-copy path that moves a
   fault draw, a backoff or a charge fails here. *)
let test_vm_rw_efault_pin () =
  let ((h, _, _) as env) = Test_attach.setup ~seed:91 () in
  Observe.enable h.H.Host.observe;
  let plan =
    F.create ~seed:17 ~rate:0.3 ~cap:4 ~classes:[ F.Vm_rw_efault ] ()
  in
  H.Host.arm_faults h plan;
  (match Test_attach.do_attach env with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach failed: %s" e);
  let hex s = Digest.to_hex (Digest.string s) in
  check cstr "chrome trace digest" "a11d3017cb7ee5e2eb47b157f61a29a8"
    (hex (Observe.Export.chrome_trace h.H.Host.observe));
  check cstr "metrics digest" "1506ba5daa4b2c38f54155f5ef16d36a"
    (hex (Observe.Export.metrics_json (Observe.metrics h.H.Host.observe)));
  check (Alcotest.float 0.) "virtual ns" 6050025.1600004556
    (H.Clock.now_ns h.H.Host.clock);
  check cint "vm_rw retries" 4 (counter_value h "recovery.vm_rw_retry");
  check cint "EFAULTs injected" 4 (F.injected plan F.Vm_rw_efault)

let suite =
  [
    ( "faults.plan",
      [
        Alcotest.test_case "class names roundtrip" `Quick test_names_roundtrip;
        Alcotest.test_case "disabled plan never fires" `Quick
          test_disabled_never_fires;
        Alcotest.test_case "seeded decisions replay" `Quick
          test_plan_deterministic;
        Alcotest.test_case "per-class caps" `Quick test_cap_respected;
        Alcotest.test_case "verdict text is pinned" `Quick test_abort_text;
      ] );
    ( "faults.recovery",
      List.map
        (fun ((cls, _) as case) ->
          Alcotest.test_case
            (Printf.sprintf "attach survives %s" (F.name cls))
            `Quick
            (attach_survives_class case))
        attach_path_classes
      @ [
          Alcotest.test_case "exhausted retries abort cleanly" `Quick
            test_exhausted_retries_fail_cleanly;
          Alcotest.test_case "link bursts drop consecutively" `Quick
            test_link_burst;
        ] );
    ( "faults.determinism",
      [
        Alcotest.test_case "same seed, byte-identical trace" `Quick
          test_same_seed_identical_trace;
        Alcotest.test_case "disabled plan is metrics-neutral" `Quick
          test_disabled_plan_is_neutral;
        Alcotest.test_case "an EFAULT attach is pinned" `Quick
          test_vm_rw_efault_pin;
      ] );
  ]
