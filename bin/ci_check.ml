(* CI output validator: the JSON assertions ci.sh used to delegate to
   python3 (and silently skipped when python was absent), as a small
   dune-built executable that reads JSON with the benchmark's parser
   (perf/json.ml).

   Usage:
     ci_check json FILE...       well-formed JSON
     ci_check trace TRACE METRICS
                                 chrome trace: every attach phase as a
                                 matched B/E span, an ioregionfd exit,
                                 no legacy kvm.exit: names; the same
                                 attach's metrics carry its stage
                                 profile (exit classes, blk pump, every
                                 stage.attach.*_ns histogram)
     ci_check net-metrics FILE   vmsh-net counters + echo histogram +
                                 the console, net and blk driver meters
                                 + the vmsh-blk backend meter
     ci_check fuzz FILE          fault-matrix gate: 0 hangs, 0 unclean,
                                 every fault class exercised
     ci_check fuzz-trace FILE    trace-mutation gate: verdicts account
                                 for every mutant (survived + clean
                                 aborts + bugs = mutants run), 0 hangs,
                                 every bug minimized, every mutator
                                 class fired, the corpus non-vacuous
     ci_check sweep FILE         crash-matrix gate: every abort-at-yield
                                 point restored the guest, leaked no
                                 descriptors, none hung or failed
                                 uncleanly
     ci_check fleet-fork COLD FORK
                                 CoW-fork gate: fork p99 <= 10% of the
                                 cold attach p50, overlay mostly shared
                                 (copied < shared), zero session failures
     ci_check serve FILE         job-service gate: per-tenant admission
                                 enforced, wire replies account for every
                                 submission, zero failures/leaked workers,
                                 at least 100 completions, end-to-end p99
                                 within 110 ms
     ci_check hostile FILE       chaos-matrix gate: every hostile guest
                                 class swept, every cell restored the
                                 guest, leaked nothing, aborted cleanly
                                 (or completed) under attack

   Note: the metrics exporter writes counter values as JSON strings;
   [int_field] accepts both numbers and numeric strings. *)

(* --- JSON, through the benchmark's parser --- *)

open Json

let load path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "ci_check: %s\n" msg;
      exit 1
  in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  try parse data
  with Parse_error msg ->
    Printf.eprintf "ci_check: %s: invalid JSON: %s\n" path msg;
    exit 1

(* --- accessors --- *)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("ci_check: " ^ msg); exit 1) fmt

let field obj k =
  match obj with
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let field_exn ~ctx obj k =
  match field obj k with
  | Some v -> v
  | None -> fail "%s: missing field %S" ctx k

(* Counter values are exported as JSON strings; histogram stats as
   numbers. Accept either spelling for robustness. *)
let as_int ~ctx = function
  | Num f -> int_of_float f
  | Str st -> (
      match int_of_string_opt (String.trim st) with
      | Some i -> i
      | None -> fail "%s: %S is not an integer" ctx st)
  | _ -> fail "%s: expected an integer" ctx

let int_field ~ctx obj k = as_int ~ctx:(ctx ^ "." ^ k) (field_exn ~ctx obj k)
let opt_int_field ~ctx obj k =
  match field obj k with Some v -> as_int ~ctx:(ctx ^ "." ^ k) v | None -> 0

(* --- checks --- *)

let attach_phases =
  [
    "attach"; "ptrace-attach"; "fd-discovery"; "memslot-dump"; "register-read";
    "page-table-walk"; "symbol-analysis"; "device-setup"; "klib-sideload";
  ]

let fault_classes =
  [
    "inject-eintr"; "inject-eagain"; "vm-rw-efault"; "attach-race";
    "notify-drop"; "desc-torn"; "link-burst";
  ]

(* Spans must nest: every "E" closes the innermost open "B" of the same
   name. Each attach phase must close at least once, the attach must
   have crossed the KVM boundary through ioregionfd, and no event may
   carry a legacy "kvm.exit:" name. *)
let check_trace path =
  let j = load path in
  let events =
    match field_exn ~ctx:path j "traceEvents" with
    | Arr l -> l
    | _ -> fail "%s: traceEvents is not a list" path
  in
  let str e k = match field e k with Some (Str s) -> s | _ -> "" in
  let closed = Hashtbl.create 16 in
  let open_spans =
    List.fold_left
      (fun stack e ->
        let name = str e "name" in
        if String.starts_with ~prefix:"kvm.exit:" name then
          fail "%s: legacy event name %S" path name;
        match (str e "ph", stack) with
        | "B", _ -> name :: stack
        | "E", top :: rest when top = name ->
            Hashtbl.replace closed name ();
            rest
        | "E", _ -> fail "%s: span end %S matches no open span" path name
        | _ -> stack)
      [] events
  in
  (match open_spans with
  | [] -> ()
  | name :: _ -> fail "%s: span %S is never closed" path name);
  List.iter
    (fun p ->
      if not (Hashtbl.mem closed p) then
        fail "%s: trace is missing a B/E pair for attach phase %S" path p)
    attach_phases;
  if
    not
      (List.exists
         (fun e -> str e "name" = "kvm.exit.ioregionfd" && str e "ph" = "i")
         events)
  then fail "%s: trace has no kvm.exit.ioregionfd instant" path

(* The attach's per-stage pipeline profile in its metrics document:
   both MMIO exit classes and a blk pump were counted, and every
   attach phase (plus the total) has a stage.attach.*_ns sample. *)
let check_stage_profile path =
  let j = load path in
  let counters = field_exn ~ctx:path j "counters" in
  List.iter
    (fun c ->
      if int_field ~ctx:path counters c < 1 then
        fail "%s: stage profile counter %S is empty" path c)
    [ "stage.exit.ioregionfd"; "stage.exit.mmio-userspace"; "stage.pump.blk" ];
  let hists = field_exn ~ctx:path j "histograms" in
  List.iter
    (fun name ->
      let h = field_exn ~ctx:path hists ("stage.attach." ^ name ^ "_ns") in
      if int_field ~ctx:path h "count" < 1 then
        fail "%s: stage profile histogram %S is empty" path name)
    [
      "ptrace-attach"; "fd-discovery"; "memslot-dump"; "register-read";
      "symbol-analysis"; "device-setup"; "klib-sideload"; "total";
    ]

let check_net_metrics path =
  let j = load path in
  let counters = field_exn ~ctx:path j "counters" in
  let tx = int_field ~ctx:path counters "vmsh-net.tx_frames" in
  let rx = int_field ~ctx:path counters "vmsh-net.rx_frames" in
  if tx < 1000 then fail "%s: expected >=1000 TX frames through vmsh-net, got %d" path tx;
  if rx < 1000 then fail "%s: expected >=1000 RX frames through vmsh-net, got %d" path rx;
  let hist =
    field_exn ~ctx:path (field_exn ~ctx:path j "histograms") "net-echo.request_ns"
  in
  let count = int_field ~ctx:path hist "count" in
  if count <> 1000 then fail "%s: echo histogram count: %d" path count;
  (* every virtio driver meter on the path recorded under its name *)
  List.iter
    (fun name ->
      match field (field_exn ~ctx:path j "histograms") name with
      | None -> fail "%s: missing driver histogram %S" path name
      | Some h ->
          let n = int_field ~ctx:path h "count" in
          if n < 1 then fail "%s: driver histogram %S count %d < 1" path name n)
    [
      "vmsh-console.tx_ns";
      "vmsh-net.tx_ns";
      "vmsh-blk.read_ns";
      "guest-blk.read_ns";
      "vmsh-blk.backend.read_ns";
    ]

(* The serve metrics document (vmsh serve --metrics-out): per-tenant
   admission enforced, every submission accounted for on the wire, no
   failures, no leaked workers, and the latency histograms populated. *)
let check_serve path =
  let j = load path in
  let counters = field_exn ~ctx:path j "counters" in
  let jobs = int_field ~ctx:path counters "service.jobs" in
  if jobs < 1 then fail "%s: no jobs recorded" path;
  let submitted = int_field ~ctx:path counters "service.submitted" in
  if submitted <> jobs then
    fail "%s: submitted %d of %d jobs (driver lost arrivals)" path submitted
      jobs;
  let admitted = int_field ~ctx:path counters "service.admitted" in
  let shed = opt_int_field ~ctx:path counters "service.shed" in
  let completed = opt_int_field ~ctx:path counters "service.completed" in
  if admitted < 1 then fail "%s: admission admitted nothing" path;
  if completed < 100 then
    fail "%s: only %d jobs completed (want at least 100)" path completed;
  (* the wire protocol is observable end to end: every admission was a
     202 at the client, every rejection a 429 *)
  let accepted = opt_int_field ~ctx:path counters "service.client.accepted" in
  let rejected = opt_int_field ~ctx:path counters "service.client.rejected" in
  if accepted <> admitted then
    fail "%s: client saw %d accepts for %d admissions" path accepted admitted;
  if accepted + rejected <> submitted then
    fail "%s: client replies (%d) do not cover submissions (%d)" path
      (accepted + rejected) submitted;
  if opt_int_field ~ctx:path counters "service.failed" > 0 then
    fail "%s: %d jobs failed" path
      (opt_int_field ~ctx:path counters "service.failed");
  if opt_int_field ~ctx:path counters "service.workers.leaked" > 0 then
    fail "%s: workers still busy after drain" path;
  if opt_int_field ~ctx:path counters "service.lost_jobs" > 0 then
    fail "%s: jobs vanished without a terminal record" path;
  (* shed-counter sanity: the taxonomy sums to the total, the hot
     tenant carries every shed, the light tenants ride clean *)
  let shed_sum =
    List.fold_left
      (fun acc t ->
        List.fold_left
          (fun acc reason ->
            acc
            + opt_int_field ~ctx:path counters
                (Printf.sprintf "service.shed.%s.%s" reason t))
          acc [ "rate"; "queue-full"; "evicted" ])
      0 [ "t0"; "t1"; "t2"; "t3" ]
  in
  if shed_sum <> shed then
    fail "%s: per-tenant shed counters sum to %d, total says %d" path shed_sum
      shed;
  if opt_int_field ~ctx:path counters "service.shed.rate.t0" < 1 then
    fail "%s: hot tenant t0 was never rate-shed (admission vacuous)" path;
  List.iter
    (fun t ->
      List.iter
        (fun reason ->
          let k = Printf.sprintf "service.shed.%s.%s" reason t in
          if opt_int_field ~ctx:path counters k > 0 then
            fail "%s: light tenant %s was shed (%s)" path t k)
        [ "rate"; "queue-full"; "evicted" ])
    [ "t1"; "t2"; "t3" ];
  let hists = field_exn ~ctx:path j "histograms" in
  List.iter
    (fun name ->
      let h = field_exn ~ctx:path hists name in
      if int_field ~ctx:path h "count" < 1 then
        fail "%s: histogram %S is empty" path name)
    [ "service.e2e_ns"; "service.wait_ns"; "service.exec_ns";
      "service.queue.depth" ];
  let e2e = field_exn ~ctx:path hists "service.e2e_ns" in
  if int_field ~ctx:path e2e "count" <> completed + opt_int_field ~ctx:path counters "service.failed"
  then
    fail "%s: e2e histogram count %d does not match executed jobs %d" path
      (int_field ~ctx:path e2e "count")
      completed;
  (* a latency regression bound, not a target: the 600/s calibrated
     point measures well under it *)
  let p99 = int_field ~ctx:path e2e "p99" in
  if p99 > 110_000_000 then
    fail "%s: end-to-end p99 %d ns exceeds the 110 ms bound" path p99

(* The fleet metrics document is one merged object: fleet-wide
   aggregates (every session's counters and histogram buckets folded
   together) under "fleet", per-session registries under "sessions". *)
let check_fleet path =
  let j = load path in
  let fleet = field_exn ~ctx:path j "fleet" in
  let sessions =
    match field_exn ~ctx:path j "sessions" with
    | Obj kvs -> kvs
    | _ -> fail "%s: sessions is not an object" path
  in
  let n = List.length sessions in
  if n < 1 then fail "%s: no per-session breakdown" path;
  let counters = field_exn ~ctx:path fleet "counters" in
  if int_field ~ctx:path counters "symcache.hits" < 1 then
    fail "%s: fleet symbol cache never hit" path;
  if int_field ~ctx:path counters "symcache.misses" < 1 then
    fail "%s: fleet recorded no cold analysis" path;
  if opt_int_field ~ctx:path counters "fleet.failures.fleet" > 0 then
    fail "%s: fleet sessions failed in a clean run" path;
  let hist =
    field_exn ~ctx:path
      (field_exn ~ctx:path fleet "histograms")
      "fleet.attach_ns.fleet"
  in
  if int_field ~ctx:path hist "count" <> n then
    fail "%s: fleet attach histogram count: %d (want %d sessions)" path
      (int_field ~ctx:path hist "count")
      n;
  (* every session carries its own stage profile *)
  List.iter
    (fun (name, sj) ->
      let h =
        field_exn ~ctx:(path ^ ":" ^ name)
          (field_exn ~ctx:(path ^ ":" ^ name) sj "histograms")
          "stage.attach.total_ns"
      in
      if int_field ~ctx:(path ^ ":" ^ name) h "count" < 1 then
        fail "%s: session %s has no stage profile" path name)
    sessions

(* The fork gate: hold a forked fleet's metrics document against a
   cold-boot one. Forking must be at least 10x below the cold attach
   p50, the overlay must stay mostly shared (copied < shared), every
   forked session must attach, and the per-fork isolation/oracle
   checks (counted into fleet.failures on violation) must be silent. *)
let check_fleet_fork cold_path fork_path =
  let cold = load cold_path and fork = load fork_path in
  let fleet_of j path = field_exn ~ctx:path j "fleet" in
  let cold_fleet = fleet_of cold cold_path
  and fork_fleet = fleet_of fork fork_path in
  let hist ~path fleet name =
    field_exn ~ctx:path (field_exn ~ctx:path fleet "histograms") name
  in
  let cold_attach = hist ~path:cold_path cold_fleet "fleet.attach_ns.fleet" in
  let fork_hist = hist ~path:fork_path fork_fleet "fleet.fork_ns.fleet" in
  let sessions j path =
    match field_exn ~ctx:path j "sessions" with
    | Obj kvs -> List.length kvs
    | _ -> fail "%s: sessions is not an object" path
  in
  let n = sessions fork fork_path in
  if n < 1 then fail "%s: no forked sessions" fork_path;
  if int_field ~ctx:fork_path fork_hist "count" <> n then
    fail "%s: fork histogram count %d does not cover %d sessions" fork_path
      (int_field ~ctx:fork_path fork_hist "count")
      n;
  let cold_p50 = int_field ~ctx:cold_path cold_attach "p50" in
  let fork_p99 = int_field ~ctx:fork_path fork_hist "p99" in
  if fork_p99 * 10 > cold_p50 then
    fail
      "%s: fork p99 %d ns exceeds 10%% of the cold-boot attach p50 %d ns \
       (forking is not a cheap spawn)"
      fork_path fork_p99 cold_p50;
  let fcounters = field_exn ~ctx:fork_path fork_fleet "counters" in
  let copied = int_field ~ctx:fork_path fcounters "overlay.pages_copied" in
  let shared = int_field ~ctx:fork_path fcounters "overlay.pages_shared" in
  if copied >= shared then
    fail "%s: overlay copied %d pages vs %d shared (CoW is not sharing)"
      fork_path copied shared;
  (* session failures fold the fork-isolation console check and every
     per-session oracle into one counter *)
  if opt_int_field ~ctx:fork_path fcounters "fleet.failures.fleet" > 0 then
    fail "%s: forked sessions failed" fork_path;
  if
    opt_int_field ~ctx:cold_path
      (field_exn ~ctx:cold_path cold_fleet "counters")
      "fleet.failures.fleet"
    > 0
  then fail "%s: cold-boot sessions failed" cold_path

let check_fuzz path =
  let j = load path in
  let counters = field_exn ~ctx:path j "counters" in
  let seeds = int_field ~ctx:path counters "fuzz.seeds" in
  if seeds < 1 then fail "%s: no fuzz seeds recorded" path;
  let hangs = opt_int_field ~ctx:path counters "fuzz.hangs" in
  let unclean = opt_int_field ~ctx:path counters "fuzz.unclean" in
  if hangs > 0 then fail "%s: %d hangs in the fault matrix" path hangs;
  if unclean > 0 then fail "%s: %d unclean failures in the fault matrix" path unclean;
  List.iter
    (fun cls ->
      let seen = opt_int_field ~ctx:path counters ("fuzz.class_seen." ^ cls) in
      if seen < 1 then fail "%s: fault class %S was never exercised" path cls)
    fault_classes

let mutator_classes =
  [ "reorder"; "drop"; "duplicate"; "corrupt"; "splice"; "timewarp" ]

(* The trace-mutation campaign metrics (vmsh fuzz --from-trace). A BUG
   verdict is any hang, unclean failure, oracle divergence or
   descriptor leak — the gate demands zero of them, every bug (if any
   ever appears) auto-minimized, and the campaign non-vacuous: every
   mutator class proposed at least one mutant and the corpus kept
   novel coverage. *)
let check_fuzz_trace path =
  let j = load path in
  let counters = field_exn ~ctx:path j "counters" in
  let run = int_field ~ctx:path counters "fuzz.mutants_run" in
  if run < 1 then fail "%s: no mutants were run" path;
  let survived = opt_int_field ~ctx:path counters "fuzz.survived" in
  let clean = opt_int_field ~ctx:path counters "fuzz.clean_aborts" in
  let bugs = opt_int_field ~ctx:path counters "fuzz.bugs" in
  let minimized = opt_int_field ~ctx:path counters "fuzz.minimized_bugs" in
  let hangs = opt_int_field ~ctx:path counters "fuzz.hangs" in
  if survived + clean + bugs <> run then
    fail "%s: verdicts (%d survived + %d clean + %d bugs) do not account for \
          %d mutants"
      path survived clean bugs run;
  if hangs > 0 then fail "%s: %d mutants hung the pipeline" path hangs;
  if bugs > 0 then
    fail "%s: %d mutants broke the pipeline (BUG verdicts)" path bugs;
  if minimized <> bugs then
    fail "%s: %d bugs but %d minimized reproducers" path bugs minimized;
  List.iter
    (fun cls ->
      if opt_int_field ~ctx:path counters ("fuzz.mutator_fired." ^ cls) < 1
      then fail "%s: mutator class %S never fired" path cls)
    mutator_classes;
  if int_field ~ctx:path counters "fuzz.corpus.kept" < 1 then
    fail "%s: the corpus kept nothing (coverage feedback vacuous)" path;
  if int_field ~ctx:path counters "fuzz.corpus.ngrams" < 1 then
    fail "%s: no coverage n-grams recorded" path

(* The post-conditions both sweep matrices share: the oracle passed
   every point, nothing leaked, no point was unclean (hung, escaped or
   broken), and the matrix is non-vacuous — a crash point fired and an
   attach completed. The two gates differ only in class coverage. *)
let check_sweep_points ~what path =
  let j = load path in
  let counters = field_exn ~ctx:path j "counters" in
  let count = opt_int_field ~ctx:path counters in
  let points = int_field ~ctx:path counters "sweep.points" in
  if points < 1 then fail "%s: no %s recorded" path what;
  let oracle_fail = count "sweep.oracle_fail" in
  if oracle_fail > 0 then
    fail "%s: %d %s left the guest mutated" path oracle_fail what;
  let pass = int_field ~ctx:path counters "sweep.oracle_pass" in
  if pass <> points then
    fail "%s: oracle passed %d of %d %s" path pass points what;
  let leaked = count "sweep.leaked_fds" in
  if leaked > 0 then
    fail "%s: %d descriptors leaked across the %s" path leaked what;
  let unclean = count "sweep.unclean" in
  if unclean > 0 then
    fail "%s: %d unclean failures in the %s" path unclean what;
  if count "sweep.aborted" < 1 then
    fail "%s: no crash point ever fired in the %s (vacuous)" path what;
  if count "sweep.completed" < 1 then
    fail "%s: no attach ever completed in the %s (vacuous)" path what;
  counters

let check_sweep path =
  let counters = check_sweep_points ~what:"sweep points" path in
  if int_field ~ctx:path counters "sweep.classes" < 2 then
    fail "%s: sweep covered fewer than 2 fault classes" path

let hostile_classes =
  [ "toctou-scan"; "balloon"; "desc-chaos"; "mem-churn" ]

(* The hostile-guest chaos matrix (vmsh sweep --hostile): the sweep
   post-conditions must hold with an adversary racing every cell, and
   all four adversarial classes must have swept at least one cell. *)
let check_hostile path =
  let counters = check_sweep_points ~what:"hostile cells" path in
  if int_field ~ctx:path counters "sweep.classes" < List.length hostile_classes
  then
    fail "%s: hostile matrix covered fewer than %d adversary classes" path
      (List.length hostile_classes);
  List.iter
    (fun cls ->
      let k = "sweep.cells.hostile-" ^ cls in
      if opt_int_field ~ctx:path counters k < 1 then
        fail "%s: hostile class %S never swept a cell" path cls)
    hostile_classes

let () =
  match Array.to_list Sys.argv with
  | _ :: "json" :: (_ :: _ as files) -> List.iter (fun f -> ignore (load f)) files
  | [ _; "trace"; f; m ] ->
      check_trace f;
      check_stage_profile m
  | [ _; "net-metrics"; f ] -> check_net_metrics f
  | [ _; "fuzz"; f ] -> check_fuzz f
  | [ _; "fuzz-trace"; f ] -> check_fuzz_trace f
  | [ _; "fleet"; f ] -> check_fleet f
  | [ _; "fleet-fork"; cold; fork ] -> check_fleet_fork cold fork
  | [ _; "sweep"; f ] -> check_sweep f
  | [ _; "serve"; f ] -> check_serve f
  | [ _; "hostile"; f ] -> check_hostile f
  | _ ->
      prerr_endline
        "usage: ci_check {json FILE... | trace TRACE METRICS | \
         net-metrics FILE | fuzz FILE | fuzz-trace FILE | fleet FILE | \
         fleet-fork COLD FORK | sweep FILE | serve FILE | hostile FILE}";
      exit 2
