(* The job-service subsystem: admission policies as pure units, the
   wire codec, deadline surfacing, and the whole-service determinism
   gate (double run of a loaded serve is byte-identical). *)

module H = Hostos
module Job = Service.Job
module Adm = Service.Admission
module D = Service.Dispatch

let check = Alcotest.check
let cint = Alcotest.int
let cbool = Alcotest.bool
let cstr = Alcotest.string

let job ?(id = 0) ?(tenant = "t0") ?(kind = Job.Attach) ?(seed = 1)
    ?(priority = 0) ?(deadline_ns = 0.) () =
  { Job.id; tenant; kind; seed; priority; deadline_ns }

(* --- wire codec --- *)

let test_wire_roundtrip () =
  let kinds =
    [
      Job.Attach;
      Job.Attach_detach;
      Job.Sweep_cell { cls = "wedged-stop"; k = 7 };
      Job.Fuzz_seed { boost = "msg-drop" };
      Job.Hostile_attach { cls = "desc-chaos" };
    ]
  in
  List.iteri
    (fun i kind ->
      let j =
        job ~id:(100 + i) ~tenant:"t2" ~kind ~seed:(i * 31) ~priority:2
          ~deadline_ns:5e6 ()
      in
      match Job.of_wire (Job.to_wire j) with
      | Error e -> Alcotest.failf "decode failed: %s" e
      | Ok j' ->
          check cint "id" j.Job.id j'.Job.id;
          check cstr "tenant" j.Job.tenant j'.Job.tenant;
          check cstr "kind"
            (Job.kind_to_string j.Job.kind)
            (Job.kind_to_string j'.Job.kind);
          check cint "seed" j.Job.seed j'.Job.seed;
          check cint "priority" j.Job.priority j'.Job.priority;
          check cbool "deadline" true (j.Job.deadline_ns = j'.Job.deadline_ns))
    kinds

let test_wire_rejects_garbage () =
  List.iter
    (fun s ->
      match Job.of_wire s with
      | Ok _ -> Alcotest.failf "accepted garbage: %S" s
      | Error _ -> ())
    [
      "";
      "GET /jobs HTTP/1.0\r\n\r\n";
      "POST /jobs HTTP/1.0\r\nX-Tenant: t0\r\n\r\n";
      "POST /jobs HTTP/1.0\r\nX-Job: id=1 kind=attach seed=1 prio=0 \
       deadline=0\r\n\r\n";
    ]

(* --- token bucket --- *)

let tenant_cfg ?(rate = 10.) ?(burst = 2.) ?(queue = 4) ?(policy = Adm.Reject)
    name =
  {
    (Adm.default_tenant name) with
    Adm.tc_rate = rate;
    tc_burst = burst;
    tc_queue = queue;
    tc_policy = policy;
  }

let test_token_bucket_reject () =
  let adm = Adm.create [ tenant_cfg "t0" ] in
  (* burst of 2: two admits, then rate sheds until refill *)
  let d1 = Adm.submit adm ~now:0. (job ~id:0 ()) in
  let d2 = Adm.submit adm ~now:0. (job ~id:1 ()) in
  let d3 = Adm.submit adm ~now:0. (job ~id:2 ()) in
  check cbool "first admitted" true (match d1 with Adm.Admitted _ -> true | _ -> false);
  check cbool "second admitted" true (match d2 with Adm.Admitted _ -> true | _ -> false);
  (match d3 with
  | Adm.Rejected reason -> check cstr "shed reason" "rate" reason
  | Adm.Admitted _ -> Alcotest.fail "third should be rate-shed");
  (* 100ms at 10 tok/s mints exactly one token *)
  let d4 = Adm.submit adm ~now:100e6 (job ~id:3 ()) in
  let d5 = Adm.submit adm ~now:100e6 (job ~id:4 ()) in
  check cbool "refilled token admits" true
    (match d4 with Adm.Admitted _ -> true | _ -> false);
  check cbool "but only one" true
    (match d5 with Adm.Rejected "rate" -> true | _ -> false);
  let stats = List.assoc "t0" (Adm.stats adm) in
  check cint "submitted" 5 stats.Adm.ts_submitted;
  check cint "admitted" 3 stats.Adm.ts_admitted;
  check cint "rate sheds counted" 2 stats.Adm.ts_shed_rate

let test_token_bucket_defer () =
  let adm = Adm.create [ tenant_cfg ~policy:Adm.Defer "t0" ] in
  ignore (Adm.submit adm ~now:0. (job ~id:0 ()));
  ignore (Adm.submit adm ~now:0. (job ~id:1 ()));
  (* bucket empty: defer admits but stamps a future eligibility *)
  (match Adm.submit adm ~now:0. (job ~id:2 ()) with
  | Adm.Rejected r -> Alcotest.failf "defer rejected: %s" r
  | Adm.Admitted _ -> ());
  check cint "all three queued" 3 (Adm.queued adm);
  (* heads 0 and 1 are eligible now; 2 only after one refill (100ms) *)
  check cbool "first dequeues now" true (Adm.dequeue adm ~now:0. <> None);
  check cbool "second dequeues now" true (Adm.dequeue adm ~now:0. <> None);
  check cbool "deferred job not yet eligible" true
    (Adm.dequeue adm ~now:50e6 = None);
  (match Adm.next_eligible adm with
  | None -> Alcotest.fail "deferred job should report eligibility"
  | Some t -> check cbool "eligible at one refill period" true (t = 100e6));
  (match Adm.dequeue adm ~now:100e6 with
  | None -> Alcotest.fail "deferred job should release at eligibility"
  | Some e -> check cint "it is the deferred job" 2 e.Adm.e_job.Job.id)

(* --- queue bounds --- *)

let test_queue_bound_reject () =
  let adm = Adm.create [ tenant_cfg ~rate:infinity ~queue:2 "t0" ] in
  ignore (Adm.submit adm ~now:0. (job ~id:0 ()));
  ignore (Adm.submit adm ~now:0. (job ~id:1 ()));
  (match Adm.submit adm ~now:0. (job ~id:2 ()) with
  | Adm.Rejected reason -> check cstr "reason" "queue-full" reason
  | Adm.Admitted _ -> Alcotest.fail "full queue must reject");
  check cint "depth capped" 2 (Adm.queue_depth adm "t0")

let test_queue_bound_shed_oldest () =
  let adm =
    Adm.create [ tenant_cfg ~rate:infinity ~queue:2 ~policy:Adm.Shed_oldest "t0" ]
  in
  ignore (Adm.submit adm ~now:0. (job ~id:0 ()));
  ignore (Adm.submit adm ~now:0. (job ~id:1 ()));
  (match Adm.submit adm ~now:0. (job ~id:2 ()) with
  | Adm.Admitted { evicted = Some ev } ->
      check cint "oldest evicted" 0 ev.Adm.e_job.Job.id
  | Adm.Admitted { evicted = None } -> Alcotest.fail "must evict to make room"
  | Adm.Rejected r -> Alcotest.failf "shed-oldest rejected: %s" r);
  check cint "depth still capped" 2 (Adm.queue_depth adm "t0");
  let stats = List.assoc "t0" (Adm.stats adm) in
  check cint "eviction counted" 1 stats.Adm.ts_shed_evicted;
  (* remaining queue is jobs 1 and 2 *)
  let ids =
    [ Adm.dequeue adm ~now:0.; Adm.dequeue adm ~now:0. ]
    |> List.filter_map (Option.map (fun e -> e.Adm.e_job.Job.id))
  in
  check cbool "survivors are 1 and 2" true (List.sort compare ids = [ 1; 2 ])

let test_priority_order_within_tenant () =
  let adm = Adm.create [ tenant_cfg ~rate:infinity "t0" ] in
  ignore (Adm.submit adm ~now:0. (job ~id:0 ~priority:0 ()));
  ignore (Adm.submit adm ~now:0. (job ~id:1 ~priority:2 ()));
  ignore (Adm.submit adm ~now:0. (job ~id:2 ~priority:2 ()));
  let next () =
    match Adm.dequeue adm ~now:0. with
    | Some e -> e.Adm.e_job.Job.id
    | None -> Alcotest.fail "queue should not be empty"
  in
  check cint "highest priority first" 1 (next ());
  check cint "fifo within priority" 2 (next ());
  check cint "low priority last" 0 (next ())

(* --- weighted-fair dequeue --- *)

let test_wfq_hot_tenant_cannot_starve () =
  (* hot tenant floods 20 jobs, light tenant (double weight) has 4;
     with both backlogged, the light tenant's jobs must all release
     within the first stretch rather than queue behind the flood *)
  let adm =
    Adm.create
      [
        tenant_cfg ~rate:infinity ~queue:64 "hot";
        { (tenant_cfg ~rate:infinity ~queue:64 "light") with Adm.tc_weight = 2 };
      ]
  in
  for i = 0 to 19 do
    ignore (Adm.submit adm ~now:0. (job ~id:i ~tenant:"hot" ()))
  done;
  for i = 20 to 23 do
    ignore (Adm.submit adm ~now:0. (job ~id:i ~tenant:"light" ()))
  done;
  let order = ref [] in
  let rec drain () =
    match Adm.dequeue adm ~now:0. with
    | Some e ->
        order := e.Adm.e_job.Job.tenant :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  let order = List.rev !order in
  check cint "everything drained" 24 (List.length order);
  (* weight 2 vs 1: while light has backlog it gets 2 of every 3
     dispatches, so all 4 light jobs are gone within the first 6 *)
  let first6 = List.filteri (fun i _ -> i < 6) order in
  check cint "light tenant served 4 of first 6" 4
    (List.length (List.filter (( = ) "light") first6));
  let hot_stats = List.assoc "hot" (Adm.stats adm) in
  check cint "hot still fully served eventually" 20
    hot_stats.Adm.ts_dispatched

(* --- deadlines surface the error taxonomy --- *)

let test_deadline_exceeded_roundtrip () =
  (* 1 worker, a burst of slow jobs, 1ms deadline: jobs stuck behind
     the first one expire, rendered via Vmsh_error.Deadline_exceeded *)
  let cfg =
    {
      D.default_config with
      D.workers = 1;
      jobs = 6;
      seed = 3;
      rate = 4000.;
      arrivals = D.Bursty;
      deadline_ns = 1e6;
      ram_mb = 16;
    }
  in
  let r = D.run cfg in
  let expired =
    Array.to_list r.D.rp_records
    |> List.filter_map (fun jr ->
           match jr.D.jr_status with
           | Job.Expired late -> Some (jr.D.jr_job.Job.id, late)
           | _ -> None)
  in
  check cbool "some jobs expired behind the slow worker" true (expired <> []);
  let results = D.results_jsonl r in
  let contains needle =
    let nl = String.length needle and rl = String.length results in
    let rec scan i =
      i + nl <= rl && (String.sub results i nl = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun (_, late) ->
      check cbool "lateness positive" true (late > 0);
      (* the durable result log carries the typed deadline error's
         rendered form *)
      check cbool "results carry the deadline detail" true
        (contains
           (Printf.sprintf
              "job deadline: virtual-time deadline exceeded after %d ns" late)))
    expired

(* --- whole-service determinism --- *)

let test_serve_double_run_identical () =
  (* a loaded run: hot tenant over its bucket, all four kinds in the
     mix, workers contended — then the whole observable output
     (results file + merged metrics) must be byte-identical *)
  let cfg =
    { D.default_config with D.workers = 4; jobs = 40; seed = 29; ram_mb = 16 }
  in
  let r1 = D.run cfg in
  let r2 = D.run cfg in
  check cstr "results byte-identical" (D.results_jsonl r1) (D.results_jsonl r2);
  check cstr "metrics byte-identical" (D.metrics_json r1) (D.metrics_json r2);
  check cstr "digest stable" (D.digest r1) (D.digest r2);
  check cint "no failures" 0 (D.failed r1);
  check cint "no leaked workers" 0 r1.D.rp_leaked_workers

let test_serve_hot_tenant_shed_others_clean () =
  let cfg =
    { D.default_config with D.workers = 4; jobs = 120; seed = 17; ram_mb = 16 }
  in
  let r = D.run cfg in
  let stat name = List.assoc name r.D.rp_stats in
  let sheds s =
    s.Adm.ts_shed_rate + s.Adm.ts_shed_queue + s.Adm.ts_shed_evicted
  in
  check cbool "hot tenant shed under load" true (sheds (stat "t0") > 0);
  List.iter
    (fun t -> check cint (t ^ " unaffected") 0 (sheds (stat t)))
    [ "t1"; "t2"; "t3" ];
  check cint "no failures" 0 (D.failed r);
  check cint "no leaked workers" 0 r.D.rp_leaked_workers;
  (* every job has a terminal record *)
  check cint "every job accounted for" cfg.D.jobs
    (Array.length r.D.rp_records)

(* --- a hostile tenant cannot hurt its neighbours --- *)

let test_serve_hostile_tenant_isolated () =
  (* turn one tenant's entire stream into adversarial-guest attaches:
     its guests race their own attach from inside the VM. The other
     tenants' jobs — same ids, kinds and machine seeds either way —
     must reach the same terminal statuses, and the adversary must not
     fail jobs, leak workers, or break whole-service determinism *)
  let base =
    { D.default_config with D.workers = 4; jobs = 40; seed = 29; ram_mb = 16 }
  in
  let hostile = { base with D.hostile_tenant = Some ("t3", "toctou-scan") } in
  let clean_r = D.run base in
  let host_r = D.run hostile in
  check cint "no failures under attack" 0 (D.failed host_r);
  check cint "no leaked workers under attack" 0 host_r.D.rp_leaked_workers;
  let hostile_jobs =
    Array.to_list host_r.D.rp_records
    |> List.filter (fun jr ->
           match jr.D.jr_job.Job.kind with
           | Job.Hostile_attach _ -> true
           | _ -> false)
  in
  check cbool "the hostile tenant actually ran hostile jobs" true
    (hostile_jobs <> []);
  List.iter
    (fun jr ->
      check cstr "hostile jobs confined to the hostile tenant" "t3"
        jr.D.jr_job.Job.tenant)
    hostile_jobs;
  let neighbour_outcomes r =
    Array.to_list r.D.rp_records
    |> List.filter (fun jr -> jr.D.jr_job.Job.tenant <> "t3")
    |> List.map (fun jr ->
           ( jr.D.jr_job.Job.id,
             Job.kind_to_string jr.D.jr_job.Job.kind,
             Job.status_to_string jr.D.jr_status ))
  in
  check cbool "neighbour tenants' outcomes unchanged by the adversary" true
    (neighbour_outcomes clean_r = neighbour_outcomes host_r);
  let host_r2 = D.run hostile in
  check cstr "hostile run still double-run identical" (D.digest host_r)
    (D.digest host_r2)

(* --- the session verdict table, through the job-status mapping --- *)

let test_verdict_table () =
  let session ?plan seed =
    (Fleet.Session.run
       ~host:(H.Host.create ~seed ())
       (Fleet.Session.spec ?plan (Fleet.Session.cold "verdict-vm")))
      .Fleet.Session.verdict
  in
  let on_yield f =
    let plan = Faults.create ~seed:1 ~rate:0.0 () in
    Faults.set_on_yield plan (Some f);
    plan
  in
  let crash =
    let plan = Faults.create ~seed:1 ~rate:0.0 () in
    Faults.set_abort_at_yield plan (Some 3);
    plan
  in
  let plain = [ Job.Attach; Job.Attach_detach ] in
  let survival =
    [
      Job.Fuzz_seed { boost = "inject-eintr" };
      Job.Sweep_cell { cls = "inject-eintr"; k = 3 };
      Job.Hostile_attach { cls = "toctou-scan" };
    ]
  in
  let fails = function Job.Failed _ -> true | _ -> false in
  let expect name verdict ~want ~plain_ok ~survival_ok =
    check cstr (name ^ ": verdict") want (Faults.Abort.to_string verdict);
    List.iter
      (fun (kinds, ok) ->
        List.iter
          (fun kind ->
            let status = D.status_of_verdict kind verdict in
            check cbool
              (Printf.sprintf "%s: %s job %s" name (Job.kind_to_string kind)
                 (if ok then "completes" else "fails"))
              true
              (if ok then status = Job.Completed else fails status))
          kinds)
      [ (plain, plain_ok); (survival, survival_ok) ]
  in
  expect "completed" (session 61) ~want:"survived" ~plain_ok:true
    ~survival_ok:true;
  expect "crash point" (session ~plan:crash 62)
    ~want:"clean-abort: attach aborted: crash point at yield 3" ~plain_ok:false
    ~survival_ok:true;
  expect "clean failure"
    (session ~plan:(on_yield (fun n -> if n = 2 then failwith "hook gave up")) 63)
    ~want:"clean-abort: attach aborted: hook gave up" ~plain_ok:false
    ~survival_ok:true;
  expect "escaped exception"
    (session ~plan:(on_yield (fun n -> if n = 2 then raise Not_found)) 64)
    ~want:"BUG: escaped exception: Not_found" ~plain_ok:false
    ~survival_ok:false

let suite =
  [
    ( "service.units",
      [
        Alcotest.test_case "job wire codec round-trips" `Quick
          test_wire_roundtrip;
        Alcotest.test_case "wire codec rejects garbage" `Quick
          test_wire_rejects_garbage;
        Alcotest.test_case "token bucket sheds at rate" `Quick
          test_token_bucket_reject;
        Alcotest.test_case "defer borrows and shapes" `Quick
          test_token_bucket_defer;
        Alcotest.test_case "queue bound rejects" `Quick test_queue_bound_reject;
        Alcotest.test_case "shed-oldest evicts the oldest" `Quick
          test_queue_bound_shed_oldest;
        Alcotest.test_case "priority order within tenant" `Quick
          test_priority_order_within_tenant;
        Alcotest.test_case "weighted-fair dequeue under hot tenant" `Quick
          test_wfq_hot_tenant_cannot_starve;
      ] );
    ( "service.e2e",
      [
        Alcotest.test_case "deadline exceeded surfaces round-trippably"
          `Quick test_deadline_exceeded_roundtrip;
        Alcotest.test_case "double run byte-identical" `Quick
          test_serve_double_run_identical;
        Alcotest.test_case "hot tenant shed, others unaffected" `Quick
          test_serve_hot_tenant_shed_others_clean;
        Alcotest.test_case "hostile tenant isolated from neighbours" `Quick
          test_serve_hostile_tenant_isolated;
        Alcotest.test_case "verdict table, every outcome and kind" `Quick
          test_verdict_table;
      ] );
  ]
