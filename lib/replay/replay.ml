(* Scenario-recipe replay: a [.vmshtrace] file names the deterministic
   driver that produced it (plus all of its seeds), so replaying is
   just re-running that driver and diffing the two flight recordings
   and guest-state digests. No guest memory image is needed — the
   recipe *is* the reproducer. For the single-session recipes (attach,
   sweep cell, serve job) the recipe is the very {!Fleet.Session} spec
   that produced the run: each maps to its scenario's own entry point,
   whose own function also writes the metadata.

   The fuzz drivers live here too, because their artifacts are
   recordings of this library's recipes: a [fuzz --seeds] schedule is
   the [Fuzz_seed] recipe, and a [fuzz --from-trace] corpus entry is a
   recipe prefix plus a mutation chain that {!replay} re-judges. *)

module H = Hostos

type spec =
  | Attach of { seed : int }
  | Fleet_run of { seed : int; vms : int; from_baseline : bool }
  | Sweep_cell of {
      seed : int;
      cls : string;
      k : int;
      hostile : string;
      from_baseline : bool;
    }
  | Serve_job of {
      job : Service.Job.t;
      start_ns : float;
      ram_mb : int;
      worker : int;
      warm_cache : bool;
    }
  | Fuzz_seed of { seed : int; rate : float }

type run = { run_events : Trace.event list; run_digest : string }

let meta_of_spec = function
  | Attach { seed } -> [ ("scenario", "attach"); ("seed", string_of_int seed) ]
  | Fleet_run { seed; vms; from_baseline } ->
      [
        ("scenario", "fleet");
        ("fleet-seed", string_of_int seed);
        ("vms", string_of_int vms);
        ("boot", (if from_baseline then "fork" else "cold"));
      ]
  | Sweep_cell { seed; cls; k; hostile; from_baseline } ->
      Fleet.Sweep.cell_meta ~seed ~cls ~k ~hostile ~fork:from_baseline
  | Serve_job { job; start_ns; ram_mb; worker; warm_cache } ->
      Service.Dispatch.job_meta ~job ~start_ns ~ram_mb ~worker
      @ [ ("symcache", if warm_cache then "warm" else "cold") ]
  | Fuzz_seed { seed; rate } ->
      [
        ("scenario", "fuzz");
        ("fuzz-seed", string_of_int seed);
        ("rate", string_of_float rate);
      ]

let spec_of_meta meta =
  let str k = List.assoc_opt k meta in
  let int_or k default =
    match str k with
    | None -> Ok default
    | Some s -> (
        match int_of_string_opt s with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "bad integer for %s: %s" k s))
  in
  let from_baseline = str "boot" = Some "fork" in
  let ( let* ) = Result.bind in
  match str "scenario" with
  | None -> Error "trace has no scenario metadata; cannot derive a recipe"
  | Some "attach" ->
      let* seed = int_or "seed" 5 in
      Ok (Attach { seed })
  | Some "fleet" ->
      (* dump-on-failure artifacts carry the fleet seed as [fleet-seed];
         the per-session [seed] key is the derived host seed, not the
         recipe's *)
      let* seed =
        match str "fleet-seed" with
        | Some _ -> int_or "fleet-seed" 7
        | None -> int_or "seed" 7
      in
      let* vms = int_or "vms" 1 in
      Ok (Fleet_run { seed; vms; from_baseline })
  | Some "sweep-cell" ->
      let* seed =
        match str "sweep-seed" with
        | Some _ -> int_or "sweep-seed" 5
        | None -> int_or "seed" 5
      in
      let* k = int_or "k" (-1) in
      let cls = Option.value (str "class") ~default:Fleet.Sweep.fault_free in
      let hostile = Option.value (str "hostile") ~default:"" in
      Ok (Sweep_cell { seed; cls; k; hostile; from_baseline })
  | Some "serve-job" ->
      let* seed = int_or "job-seed" 0 in
      let* id = int_or "job" 0 in
      let* ram_mb = int_or "ram-mb" 32 in
      let* worker = int_or "worker" (-1) in
      let tenant = Option.value (str "tenant") ~default:"t0" in
      let kind_name = Option.value (str "kind") ~default:"attach" in
      let* kind =
        Option.to_result ~none:("unknown job kind: " ^ kind_name)
          (Service.Job.kind_of_string kind_name)
      in
      let start_ns =
        Option.value
          (Option.bind (str "start-ns") float_of_string_opt)
          ~default:0.
      in
      let job =
        { Service.Job.id; tenant; kind; seed; priority = 0; deadline_ns = 0. }
      in
      let warm_cache = str "symcache" = Some "warm" in
      Ok (Serve_job { job; start_ns; ram_mb; worker; warm_cache })
  | Some "fuzz" ->
      let* seed = int_or "fuzz-seed" 0 in
      let rate =
        Option.value
          (Option.bind (str "rate") float_of_string_opt)
          ~default:0.15
      in
      Ok (Fuzz_seed { seed; rate })
  | Some s -> Error ("unknown scenario: " ^ s)

(* ------------------------------------------------------------------ *)
(* The fuzz-seed session                                               *)
(* ------------------------------------------------------------------ *)

(* One deterministic fault schedule through the full attach path: boot,
   ptrace attach, injected syscalls, remote memory, device side-load,
   echo traffic over the side-loaded NIC with bursty link loss. Every
   attach must either complete or fail cleanly with a diagnosable error;
   because every retry loop in the substrate is bounded, a run that
   exceeds the virtual-time budget is reported as a hang. It is one
   {!Fleet.Session} run whose attached step is [fuzz_work]; its plan is
   armed on the host before the run, so boot itself draws from it, and
   the attach config cables a network so that link-burst faults can
   fire. *)

let fuzz_echo_requests = 20

let fuzz_work plan = function
  | Fleet.Session.Booted _ -> Ok ()
  | Fleet.Session.Attached (vmm, session) ->
      ignore (Vmsh.Attach.console_recv session);
      let out = Vmsh.Attach.console_roundtrip session "hostname" in
      let echo =
        Workloads.Traffic.run_client vmm (Hypervisor.Vmm.guest_exn vmm)
          ~requests:fuzz_echo_requests ~payload_size:64
          ~mode:Workloads.Traffic.Echo ()
      in
      if out = "" then Error "console dead after attach (guest state corrupted?)"
      else if
        echo.Workloads.Traffic.completed = 0
        && Faults.injected plan Faults.Link_burst = 0
      then Error "echo made no progress despite a clean link"
      else Ok ()

let fuzz_seed ?log_level ~trace ~seed ~rate () =
  let plan = Faults.create ~seed ~rate () in
  (* Boost one class per seed to certainty (with a small cap so bounded
     retries still win): 25 seeds sweep all 7 classes several times over
     while the background rate keeps every other class in play. *)
  let boosted = List.nth Faults.all (seed mod List.length Faults.all) in
  Faults.set_class plan boosted ~rate:1.0 ~cap:2;
  let h = H.Host.create ~seed:(0xf0 + seed) () in
  (* the recipe a failure artifact needs to be replayed *)
  List.iter
    (fun (k, v) -> Trace.Recorder.set_meta h.H.Host.recorder k v)
    (meta_of_spec (Fuzz_seed { seed; rate }));
  Option.iter (Observe.set_log_level h.H.Host.observe) log_level;
  H.Host.arm_faults h plan;
  if trace then Observe.enable h.H.Host.observe;
  let fabric, port =
    Workloads.Traffic.make_network h ~mode:Workloads.Traffic.Echo ()
  in
  let config =
    Vmsh.Attach.Config.(make () |> with_net { Vmsh.Attach.fabric; port })
  in
  let spec = Fleet.Session.spec ~config (Fleet.Session.cold "cli-vm") in
  (h, plan, boosted, Fleet.Session.run ~step:(fuzz_work plan) ~host:h spec)

(* A forked recipe needs no baseline file: baking is itself
   deterministic, so the replay re-bakes the identical image. *)
let rebake from_baseline =
  if from_baseline then Some (Fleet.Baseline.bake ()) else None

let rec execute ?log_level = function
  | Attach { seed } ->
      (* the smoke attach is the fault-free probe cell *)
      execute ?log_level
        (Sweep_cell
           {
             seed;
             cls = Fleet.Sweep.fault_free;
             k = -1;
             hostile = "";
             from_baseline = false;
           })
  | Fleet_run { seed; vms; from_baseline } -> (
      let cfg = Fleet.Config.make ~vms () |> Fleet.Config.with_seed seed in
      let cfg =
        match rebake from_baseline with
        | Some img ->
            Fleet.Config.with_boot_source (Fleet.Config.Fork_of img) cfg
        | None -> cfg
      in
      let cfg =
        match log_level with
        | Some l -> Fleet.Config.with_log_level l cfg
        | None -> cfg
      in
      match Fleet.run cfg with
      | Error e -> Error (Vmsh.Vmsh_error.to_string e)
      | Ok r ->
          Ok { run_events = Fleet.flight_events r; run_digest = Fleet.digest r })
  | Sweep_cell { seed; cls; k; hostile; from_baseline } -> (
      let named what of_name = function
        | "" -> Ok None
        | s ->
            Option.to_result
              ~none:(Printf.sprintf "unknown %s class: %s" what s)
              (Option.map Option.some (of_name s))
      in
      (* chaos-matrix cells record pt_class = "hostile-<class>" with no
         fault class armed; accept that label too *)
      let cls =
        if cls = Fleet.Sweep.fault_free || hostile <> "" then "" else cls
      in
      match
        (named "fault" Faults.of_name cls, named "hostile" Hostile.of_name hostile)
      with
      | Error e, _ | _, Error e -> Error e
      | Ok cls, Ok hostile ->
          let k = if k < 0 then None else Some k in
          let pt =
            Fleet.Sweep.run_point ?log_level ?baseline:(rebake from_baseline)
              ?hostile ~seed ~cls ~k ()
          in
          Ok
            {
              run_events = pt.Fleet.Sweep.pt_events;
              run_digest = Lazy.force pt.Fleet.Sweep.pt_report.Fleet.Session.digest;
            })
  | Serve_job { job; start_ns; ram_mb; worker; warm_cache } ->
      let host =
        Service.Dispatch.prepare_host ~job ~start_ns ~ram_mb ?log_level ~worker
          ()
      in
      let cache =
        if warm_cache then Service.Dispatch.warm_cache ~ram_mb
        else Vmsh.Symbol_analysis.Cache.create ()
      in
      let status = Service.Dispatch.execute_on ~host ~job ~ram_mb ~cache () in
      (* no whole-guest digest survives a detached job; the terminal
         status stands in (computed identically on both sides of the
         diff) *)
      Ok
        {
          run_events = Trace.Recorder.events host.H.Host.recorder;
          run_digest =
            Digest.to_hex (Digest.string (Service.Job.status_to_string status));
        }
  | Fuzz_seed { seed; rate } ->
      let h, _, _, { Fleet.Session.verdict; _ } =
        fuzz_seed ?log_level ~trace:false ~seed ~rate ()
      in
      (* the verdict stands in for the digest, as a job's status does *)
      Ok
        {
          run_events = Trace.Recorder.events h.H.Host.recorder;
          run_digest =
            Digest.to_hex (Digest.string (Faults.Abort.to_string verdict));
        }

(* ------------------------------------------------------------------ *)
(* Mutant execution: drive the recipe under a scripted fault plan      *)
(* ------------------------------------------------------------------ *)

(* The trace-mutation fuzzer turns a mutated flight recording into a
   scripted {!Faults.t} plan and asks: does the real pipeline survive
   that perturbation? The attack re-runs the recipe's attach on a fresh
   machine (for a fleet recipe, the one session the mutation touched —
   per-session host seeds are the fleet's own derivation) as one
   session-harness run, whose verdict it reports. *)

let attack_host_seed spec ~session =
  match spec with
  | Attach { seed } -> seed
  | Sweep_cell { seed; _ } -> seed
  | Serve_job { job; _ } -> job.Service.Job.seed
  (* the fleet engine's per-session host seed derivation *)
  | Fleet_run { seed; _ } -> (seed * 1009) + (session * 17)
  | Fuzz_seed { seed; _ } -> 0xf0 + seed

let execute_attack ?log_level ?(session = 0) ~plan spec =
  let seed = attack_host_seed spec ~session in
  let pt = Fleet.Sweep.run_point ?log_level ~plan ~seed ~cls:None ~k:None () in
  pt.Fleet.Sweep.pt_report.Fleet.Session.verdict

(* The session a mutation chain perturbs — the session of its first
   site in the base stream. A fleet recording interleaves sessions;
   the attack re-runs the one the mutation touched. *)
let mutation_session base (ms : Fuzz.mutation list) =
  let arr = Array.of_list base in
  match ms with
  | m :: _ when m.Fuzz.m_at >= 0 && m.Fuzz.m_at < Array.length arr ->
      arr.(m.Fuzz.m_at).Trace.session
  | _ -> 0

(* Lower the chain to a scripted fault plan and re-run the recipe's
   attach for real, oracle live. *)
let attack_executor ?log_level ~base spec _mutant muts =
  let plan = Faults.create ~seed:0 ~rate:0.0 () in
  Faults.set_script plan (Fuzz.script_of_mutations base muts);
  Faults.set_skew_script plan (Fuzz.skew_script_of_mutations base muts);
  let session = mutation_session base muts in
  execute_attack ?log_level ~session ~plan spec

let replay_mutant ?log_level (f : Trace.file) =
  let ( let* ) = Result.bind in
  let* mf = Fuzz.parse_mutant_meta f.Trace.f_meta in
  let* spec = spec_of_meta mf.Fuzz.mf_base_meta in
  let base = f.Trace.f_events in
  let got =
    Faults.Abort.to_string
      (Fuzz.judge
         ~execute:(attack_executor ?log_level ~base spec)
         (Fuzz.apply_all base mf.Fuzz.mf_muts)
         mf.Fuzz.mf_muts)
  in
  let want = mf.Fuzz.mf_verdict in
  Ok
    (if got = want then []
     else
       [
         Printf.sprintf "mutant verdict diverges: recorded %S, replay %S" want
           got;
       ])

let record ?log_level spec ~path =
  match execute ?log_level spec with
  | Error _ as e -> e
  | Ok run ->
      let meta = meta_of_spec spec @ [ ("digest", run.run_digest) ] in
      Trace.write path ~meta ~dropped:0 run.run_events;
      Ok run

let replay ?log_level (f : Trace.file) =
  let ( let* ) = Result.bind in
  if List.assoc_opt "scenario" f.Trace.f_meta = Some Fuzz.mutant_scenario then
    replay_mutant ?log_level f
  else
    let* spec = spec_of_meta f.Trace.f_meta in
    let* run = execute ?log_level spec in
    let diffs = Trace.diff f.Trace.f_events run.run_events in
    match List.assoc_opt "digest" f.Trace.f_meta with
    | Some d when d <> run.run_digest ->
        Ok
          (diffs
          @ [
              Printf.sprintf "snapshot digest diverges: recorded %s, replay %s"
                d run.run_digest;
            ])
    | _ -> Ok diffs

(* ------------------------------------------------------------------ *)
(* vmsh fuzz --seeds: the fault-matrix sweep                           *)
(* ------------------------------------------------------------------ *)

type seed_run = {
  sd_seed : int;
  sd_boosted : Faults.cls;
  sd_injected : int;
  sd_virtual_ns : float;
  sd_verdict : Faults.Abort.verdict;
  sd_oracle : string list;
  sd_leaked_fds : int;
}

type seed_sweep = {
  ss_runs : seed_run list;
  ss_metrics : Observe.Metrics.t;
  ss_trace : string option;
  ss_hangs : int;
  ss_unclean : int;
  ss_classes_seen : int;
}

let fuzz_seeds ?log_level ~seeds ~rate ~trace_seed () =
  let sm = Observe.Metrics.create () in
  let scount ?(by = 1) name =
    Observe.Metrics.incr ~by (Observe.Metrics.counter sm name)
  in
  let attach_hist = Observe.Metrics.histogram sm "fuzz.attach_virtual_ns" in
  let trace = ref None and seen = ref [] in
  let run seed =
    let traced = trace_seed = Some seed in
    let h, plan, boosted, ({ Fleet.Session.verdict; _ } as r) =
      fuzz_seed ?log_level ~trace:traced ~seed ~rate ()
    in
    scount "fuzz.seeds";
    scount
      (match verdict with
      | Faults.Abort.Survived -> "fuzz.completed"
      | Clean_abort _ -> "fuzz.clean_failures"
      | Bug (Hang _) -> "fuzz.hangs"
      | Bug _ -> "fuzz.unclean");
    (* every fuzz failure leaves a replayable flight recording when
       VMSH_TRACE_DIR is set *)
    if Faults.Abort.is_bug verdict then
      ignore
        (Trace.dump_on_failure h.H.Host.recorder
           ~name:(Printf.sprintf "fuzz-seed%d" seed)
           ());
    List.iter
      (fun cls ->
        let n = Faults.injected plan cls in
        if n > 0 then begin
          if not (List.mem cls !seen) then seen := cls :: !seen;
          scount ("fuzz.class_seen." ^ Faults.name cls);
          scount ~by:n ("faults.injected." ^ Faults.name cls)
        end)
      Faults.all;
    List.iter
      (fun c ->
        let name = Observe.Metrics.counter_name c in
        if String.starts_with ~prefix:"recovery." name then
          scount ~by:(Observe.Metrics.counter_value c) name)
      (Observe.Metrics.counters (Observe.metrics h.H.Host.observe));
    let virtual_ns = H.Clock.now_ns h.H.Host.clock in
    Observe.Metrics.observe attach_hist virtual_ns;
    if traced then trace := Some (Observe.Export.chrome_trace h.H.Host.observe);
    {
      sd_seed = seed;
      sd_boosted = boosted;
      sd_injected = Faults.total_injected plan;
      sd_virtual_ns = virtual_ns;
      sd_verdict = verdict;
      sd_oracle = r.Fleet.Session.oracle;
      sd_leaked_fds = r.Fleet.Session.leaked_fds;
    }
  in
  let runs = List.map run (List.init seeds Fun.id) in
  let count p = List.length (List.filter (fun r -> p r.sd_verdict) runs) in
  {
    ss_runs = runs;
    ss_metrics = sm;
    ss_trace = !trace;
    ss_hangs = count (function Faults.Abort.Bug (Hang _) -> true | _ -> false);
    ss_unclean =
      count (function
        | Faults.Abort.Bug (Hang _) -> false
        | v -> Faults.Abort.is_bug v);
    ss_classes_seen = List.length !seen;
  }

(* ------------------------------------------------------------------ *)
(* vmsh fuzz --from-trace: trace-mutation campaigns                    *)
(* ------------------------------------------------------------------ *)

type campaign = {
  cp_report : Fuzz.report;
  cp_ledger : string list;
  cp_metrics : Observe.Metrics.t;
}

let read_lines path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* Persist the corpus: coverage keys, the ledger, kept mutants and
   minimized reproducers, all deterministic functions of (trace, seed)
   so a double run is byte-identical. *)
let write_corpus dir ~(f : Trace.file) ~execute ~ledger (rep : Fuzz.report) =
  let base = f.Trace.f_events in
  (* a corpus entry or reproducer holds the base-recipe prefix the chain
     applies to, with the chain itself (and the verdict) in the
     metadata: {!replay} rebuilds the mutant and re-executes the attack
     from the file alone *)
  let mutant_trace prefix round muts verdict =
    let events = Fuzz.truncate_base base muts in
    Trace.write
      (Filename.concat dir (Printf.sprintf "%s-%d.vmshtrace" prefix round))
      ~meta:
        (Fuzz.mutant_meta ~base_meta:f.Trace.f_meta ~muts
           ~prefix:(List.length events) ~verdict)
      ~dropped:0 events
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_lines (Filename.concat dir "coverage.txt") rep.Fuzz.fz_coverage;
  write_lines (Filename.concat dir "ledger.txt") ledger;
  List.iter
    (fun (r : Fuzz.round_result) ->
      if r.Fuzz.rr_new_keys > 0 && not (Faults.Abort.is_bug r.Fuzz.rr_verdict)
      then
        mutant_trace "mutant" r.Fuzz.rr_round r.Fuzz.rr_muts
          r.Fuzz.rr_verdict;
      match r.Fuzz.rr_minimized with
      | None -> ()
      | Some min_muts ->
          (* the reproducer carries the minimized chain's own verdict
             (recomputed — minimization can land on a different failure
             message than the full chain) *)
          mutant_trace "repro" r.Fuzz.rr_round min_muts
            (Fuzz.judge ~execute (Fuzz.apply_all base min_muts) min_muts))
    rep.Fuzz.fz_rounds

let fuzz_from_trace ?log_level ~file ~rounds ~seed ~corpus ~minimize () =
  let ( let* ) = Result.bind in
  let* f = Trace.load file in
  let* spec = spec_of_meta f.Trace.f_meta in
  let base = f.Trace.f_events in
  let* () =
    match (spec, Fuzz.validate base) with
    (* the attack re-runs a plain session, and a fuzz seed's is not one:
       its faults are armed before boot and it cables a network *)
    | Fuzz_seed _, _ -> Error "a fuzz seed recording is not a campaign base"
    | _, [] -> Ok ()
    | _, p :: _ -> Error ("base recording violates the protocol model: " ^ p)
  in
  let seen =
    match corpus with
    | Some dir -> read_lines (Filename.concat dir "coverage.txt")
    | None -> []
  in
  let noops = ref 0 in
  let execute mutant muts =
    noops := !noops + Fuzz.lowering_noops muts;
    attack_executor ?log_level ~base spec mutant muts
  in
  let rep =
    Fuzz.run_campaign ~base ~seed ~rounds ~minimize_bugs:minimize ~seen
      ~execute ()
  in
  (* the verdict ledger: one deterministic line per mutant *)
  let ledger =
    List.map
      (fun (r : Fuzz.round_result) ->
        Printf.sprintf "round=%d op=%s chain=%d verdict=%s new-keys=%d muts=%s"
          r.Fuzz.rr_round
          (Fuzz.mutator_name r.Fuzz.rr_op)
          (List.length r.Fuzz.rr_muts)
          (Faults.Abort.label r.Fuzz.rr_verdict)
          r.Fuzz.rr_new_keys
          (Fuzz.mutations_to_string r.Fuzz.rr_muts))
      rep.Fuzz.fz_rounds
  in
  Option.iter (fun dir -> write_corpus dir ~f ~execute ~ledger rep) corpus;
  let sm = Observe.Metrics.create () in
  let set name v =
    Observe.Metrics.set_counter (Observe.Metrics.counter sm name) v
  in
  set "fuzz.mutants_run" rep.Fuzz.fz_mutants_run;
  set "fuzz.survived" rep.Fuzz.fz_survived;
  set "fuzz.clean_aborts" rep.Fuzz.fz_clean_aborts;
  set "fuzz.bugs" rep.Fuzz.fz_bugs;
  set "fuzz.minimized_bugs" rep.Fuzz.fz_minimized_bugs;
  set "fuzz.hangs" rep.Fuzz.fz_hangs;
  set "fuzz.corpus.kept" rep.Fuzz.fz_corpus_kept;
  set "fuzz.corpus.ngrams" (List.length rep.Fuzz.fz_coverage);
  (* read after the corpus is written: re-judging a reproducer runs the
     executor too *)
  set "fuzz.lowering.noop" !noops;
  List.iter
    (fun (op, n) -> set ("fuzz.mutator_fired." ^ Fuzz.mutator_name op) n)
    rep.Fuzz.fz_mutator_fired;
  Ok { cp_report = rep; cp_ledger = ledger; cp_metrics = sm }
