(* lib/fuzz: the trace-mutation engine — seeded mutators, the causality
   validator, n-gram coverage, the deterministic campaign loop and the
   delta-debugging minimizer. Campaigns here run against stub executors
   (the engine is executor-agnostic by construction); the last tests
   drive real recordings through the library's fuzz drivers
   ([Replay.fuzz_seeds], [Replay.fuzz_from_trace]) and replay their
   artifacts. *)

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let ev ?(session = 0) ?(args = []) ts kind =
  { Trace.kind; ts; session; args }

(* A protocol-consistent synthetic boundary stream with legal sites for
   every mutator class: droppable doorbells, corruptible typed args,
   commuting adjacent pairs, and enough length to splice. *)
let base_events =
  [
    ev 10. "attach.begin" ~args:[ ("hypervisor_pid", Trace.I 100) ];
    ev 20. "attach.phase"
      ~args:[ ("name", Trace.S "ptrace-attach"); ("dur_ns", Trace.I 10) ];
    ev 30. "inject.syscall" ~args:[ ("nr", Trace.S "ioctl"); ("ret", Trace.I 0) ];
    ev 40. "kvm.ioctl" ~args:[ ("code", Trace.I 0xae80) ];
    ev 50. "kvm.exit.mmio"
      ~args:[ ("addr", Trace.I 0xfe003000); ("len", Trace.I 4); ("is_write", Trace.I 1) ];
    ev 60. "kvm.exit.ioregionfd"
      ~args:[ ("addr", Trace.I 0xfe004000); ("kind", Trace.S "read") ];
    ev 70. "kvm.kick" ~args:[ ("addr", Trace.I 0xfe005000) ];
    ev 80. "kvm.irq" ~args:[ ("gsi", Trace.I 33); ("source", Trace.S "msi") ];
    ev 90. "kvm.notify_rekick" ~args:[];
    ev 100. "inject.syscall"
      ~args:[ ("nr", Trace.S "eventfd2"); ("ret", Trace.I 9) ];
    ev 110. "kvm.kick" ~args:[ ("addr", Trace.I 0xfe005000) ];
    ev 120. "pump.blk" ~args:[ ("n", Trace.I 3) ];
    ev 130. "kvm.irq" ~args:[ ("gsi", Trace.I 34); ("source", Trace.S "msi") ];
    ev 140. "attach.commit" ~args:[ ("dur_ns", Trace.I 130) ];
    ev 150. "journal.rollback"
      ~args:[ ("entries", Trace.I 7); ("origin", Trace.S "detach") ];
    ev 160. "inject.syscall"
      ~args:[ ("nr", Trace.S "close"); ("ret", Trace.I 0) ];
  ]

let survive_all _events _muts = Faults.Abort.Survived

(* --- mutation serialization --- *)

let sample_mutations =
  [
    { Fuzz.m_op = Fuzz.Reorder; m_at = 4; m_src = 0; m_span = 0; m_key = ""; m_delta = 0 };
    { Fuzz.m_op = Fuzz.Drop; m_at = 6; m_src = 0; m_span = 0; m_key = ""; m_delta = 0 };
    { Fuzz.m_op = Fuzz.Duplicate; m_at = 8; m_src = 0; m_span = 0; m_key = ""; m_delta = 0 };
    { Fuzz.m_op = Fuzz.Corrupt; m_at = 7; m_src = 0; m_span = 0; m_key = "gsi"; m_delta = 2 };
    { Fuzz.m_op = Fuzz.Splice; m_at = 11; m_src = 3; m_span = 3; m_key = ""; m_delta = 0 };
    { Fuzz.m_op = Fuzz.Timewarp; m_at = 5; m_src = 0; m_span = 0; m_key = ""; m_delta = 500 };
  ]

let test_mutation_roundtrip () =
  List.iter
    (fun m ->
      match Fuzz.mutation_of_string (Fuzz.mutation_to_string m) with
      | Some m' ->
          check cbool
            ("round-trips: " ^ Fuzz.mutation_to_string m)
            true (m = m')
      | None ->
          Alcotest.failf "unparseable: %s" (Fuzz.mutation_to_string m))
    sample_mutations;
  (match Fuzz.mutations_of_string (Fuzz.mutations_to_string sample_mutations) with
  | Some ms -> check cbool "chain round-trips" true (ms = sample_mutations)
  | None -> Alcotest.fail "chain unparseable");
  check cbool "empty chain round-trips" true
    (Fuzz.mutations_of_string (Fuzz.mutations_to_string []) = Some []);
  check cbool "garbage rejected" true
    (Fuzz.mutations_of_string "reorder:x:0:0::0" = None)

(* Every mutator class applies to the synthetic base and the mutant
   still round-trips through the binary trace codec. *)
let test_mutants_roundtrip_codec () =
  List.iter
    (fun m ->
      match Fuzz.apply base_events m with
      | None ->
          Alcotest.failf "mutation did not apply: %s"
            (Fuzz.mutation_to_string m)
      | Some mutant -> (
          let bytes = Trace.encode ~meta:[] mutant in
          match Trace.decode bytes with
          | Error e -> Alcotest.failf "mutant decode failed: %s" e
          | Ok f ->
              check cbool
                ("codec round-trip after " ^ Fuzz.mutator_name m.Fuzz.m_op)
                true
                (f.Trace.f_events = mutant)))
    sample_mutations

(* --- causality validator --- *)

let test_validator_accepts_base () =
  check cbool "synthetic base is protocol-consistent" true
    (Fuzz.validate base_events = [])

let test_validator_rejects_violations () =
  let violates evs = Fuzz.validate evs <> [] in
  check cbool "phase before begin" true
    (violates [ ev 1. "attach.phase" ~args:[ ("name", Trace.S "x") ] ]);
  check cbool "double begin" true
    (violates [ ev 1. "attach.begin"; ev 2. "attach.begin" ]);
  check cbool "commit without begin" true (violates [ ev 1. "attach.commit" ]);
  check cbool "injection with no transaction" true
    (violates [ ev 1. "inject.syscall" ~args:[ ("ret", Trace.I 0) ] ]);
  check cbool "session clock runs backwards" true
    (violates [ ev 5. "kvm.kick"; ev 1. "kvm.kick" ]);
  check cbool "independent session clocks accepted" true
    (not
       (violates [ ev ~session:0 5. "kvm.kick"; ev ~session:1 1. "kvm.kick" ]));
  check cbool "mmio len out of range" true
    (violates [ ev 1. "kvm.exit.mmio" ~args:[ ("len", Trace.I 3) ] ]);
  check cbool "gsi out of range" true
    (violates [ ev 1. "kvm.irq" ~args:[ ("gsi", Trace.I 5000) ] ]);
  check cbool "bad ioregionfd op" true
    (violates [ ev 1. "kvm.exit.ioregionfd" ~args:[ ("kind", Trace.S "rmw") ] ])

(* --- coverage --- *)

let test_coverage_keys () =
  let keys = Fuzz.coverage_keys base_events in
  check cbool "non-empty" true (keys <> []);
  check cbool "sorted" true (List.sort compare keys = keys);
  check cint "deduplicated" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* set semantics: repeating the stream adds no new 3-grams beyond the
     seam, and identical double computations are identical *)
  check cbool "double computation identical" true
    (Fuzz.coverage_keys base_events = keys);
  let renumbered =
    List.map (fun e -> Trace.with_session e 1) base_events
  in
  check cbool "session is part of the key" true
    (Fuzz.coverage_keys renumbered <> keys)

(* --- campaign determinism: same (trace, seed) => byte-identical
   mutant streams, ledger and coverage --- *)

let test_campaign_deterministic () =
  let run () =
    Fuzz.run_campaign ~base:base_events ~seed:42 ~rounds:18
      ~execute:survive_all ()
  in
  let a = run () and b = run () in
  check cint "same mutant count" a.Fuzz.fz_mutants_run b.Fuzz.fz_mutants_run;
  check cint "18 mutants ran" 18 a.Fuzz.fz_mutants_run;
  List.iter2
    (fun (ra : Fuzz.round_result) (rb : Fuzz.round_result) ->
      check cstr
        (Printf.sprintf "round %d mutant stream byte-identical" ra.Fuzz.rr_round)
        (Trace.encode ~meta:[] ra.Fuzz.rr_events)
        (Trace.encode ~meta:[] rb.Fuzz.rr_events);
      check cstr
        (Printf.sprintf "round %d chain identical" ra.Fuzz.rr_round)
        (Fuzz.mutations_to_string ra.Fuzz.rr_muts)
        (Fuzz.mutations_to_string rb.Fuzz.rr_muts))
    a.Fuzz.fz_rounds b.Fuzz.fz_rounds;
  check cbool "coverage identical" true (a.Fuzz.fz_coverage = b.Fuzz.fz_coverage);
  (* every mutator class fired across 18 rounds of round-robin boosting *)
  List.iter
    (fun (op, n) ->
      check cbool ("mutator fired: " ^ Fuzz.mutator_name op) true (n >= 1))
    a.Fuzz.fz_mutator_fired;
  check cbool "corpus kept novel mutants" true (a.Fuzz.fz_corpus_kept >= 1);
  (* a different seed explores differently *)
  let c =
    Fuzz.run_campaign ~base:base_events ~seed:43 ~rounds:18
      ~execute:survive_all ()
  in
  check cbool "different seed, different campaign" true
    (List.map (fun (r : Fuzz.round_result) -> Fuzz.mutations_to_string r.Fuzz.rr_muts)
       a.Fuzz.fz_rounds
    <> List.map (fun (r : Fuzz.round_result) -> Fuzz.mutations_to_string r.Fuzz.rr_muts)
         c.Fuzz.fz_rounds)

(* --- minimization: a seeded known-bad mutant shrinks to a stable,
   minimal reproducer --- *)

(* Stub executor wired to a planted failure mode: any chain containing
   a Drop mutation is a BUG. *)
let bug_on_drop _events muts =
  if List.exists (fun m -> m.Fuzz.m_op = Fuzz.Drop) muts then
    Faults.Abort.Bug (Broken "planted: dropped doorbell wedges the device")
  else Faults.Abort.Survived

let test_minimizer () =
  let still_bug ms =
    ms <> [] && Faults.Abort.is_bug (bug_on_drop [] ms)
  in
  let chain =
    List.filter
      (fun m -> m.Fuzz.m_op <> Fuzz.Drop)
      sample_mutations
  in
  let drop =
    { Fuzz.m_op = Fuzz.Drop; m_at = 6; m_src = 0; m_span = 0; m_key = "";
      m_delta = 0 }
  in
  let noisy = List.concat [ chain; [ drop ]; chain ] in
  let min1 = Fuzz.minimize ~still_bug noisy in
  check cint "minimizes to a single mutation" 1 (List.length min1);
  check cbool "and it is the planted drop" true
    ((List.hd min1).Fuzz.m_op = Fuzz.Drop);
  let min2 = Fuzz.minimize ~still_bug noisy in
  check cbool "minimization is stable across double runs" true (min1 = min2)

let test_campaign_minimizes_bugs () =
  let run () =
    Fuzz.run_campaign ~base:base_events ~seed:7 ~rounds:18
      ~execute:bug_on_drop ()
  in
  let rep = run () in
  check cbool "the planted bug fired" true (rep.Fuzz.fz_bugs >= 1);
  check cint "every bug was minimized" rep.Fuzz.fz_bugs
    rep.Fuzz.fz_minimized_bugs;
  check cint "verdicts account for every mutant" rep.Fuzz.fz_mutants_run
    (rep.Fuzz.fz_survived + rep.Fuzz.fz_clean_aborts + rep.Fuzz.fz_bugs);
  List.iter
    (fun (r : Fuzz.round_result) ->
      match r.Fuzz.rr_minimized with
      | None -> ()
      | Some ms ->
          check cint "reproducer is a single mutation" 1 (List.length ms);
          check cbool "reproducer is the planted drop" true
            ((List.hd ms).Fuzz.m_op = Fuzz.Drop);
          (* the reproducer's truncated base is genuinely smaller and
             the chain still applies to it *)
          let trunc = Fuzz.truncate_base base_events ms in
          check cbool "base truncated" true
            (List.length trunc < List.length base_events);
          check cbool "chain still applies to the truncated base" true
            (Fuzz.apply trunc (List.hd ms) <> None))
    rep.Fuzz.fz_rounds;
  let rep2 = run () in
  check cbool "bug campaign is deterministic" true
    (List.map (fun (r : Fuzz.round_result) -> r.Fuzz.rr_minimized)
       rep.Fuzz.fz_rounds
    = List.map (fun (r : Fuzz.round_result) -> r.Fuzz.rr_minimized)
        rep2.Fuzz.fz_rounds)

(* --- lowering --- *)

let test_script_of_mutations () =
  let drop_kick =
    { Fuzz.m_op = Fuzz.Drop; m_at = 10; m_src = 0; m_span = 0; m_key = "";
      m_delta = 0 }
  in
  let corrupt_ioregionfd =
    { Fuzz.m_op = Fuzz.Corrupt; m_at = 5; m_src = 0; m_span = 0;
      m_key = "addr"; m_delta = 4 }
  in
  let script =
    Fuzz.script_of_mutations base_events [ drop_kick; corrupt_ioregionfd ]
  in
  (* event 10 is the 4th doorbell-shaped event (kick, irq, rekick,
     syscall... no — kick@6 irq@7 rekick@8 kick@10: occurrence 3) *)
  check cbool "dropped doorbell lowers to a notify drop" true
    (List.mem (Faults.Notify_drop, 3) script);
  check cbool "corrupted descriptor lowers to a torn read" true
    (List.exists (fun (c, _) -> c = Faults.Desc_torn) script);
  check cbool "script is deterministic" true
    (script = Fuzz.script_of_mutations base_events [ drop_kick; corrupt_ioregionfd ]);
  (* timewarp contributes nothing to the fault script — it lowers to
     the skew script instead, as a (yield-index, permille) decision *)
  let warp =
    { Fuzz.m_op = Fuzz.Timewarp; m_at = 3; m_src = 0; m_span = 0;
      m_key = ""; m_delta = 4000 }
  in
  check cbool "timewarp lowers to no fault injection" true
    (Fuzz.script_of_mutations base_events [ warp ] = []);
  check cbool "timewarp lowers to a scripted skew" true
    (Fuzz.skew_script_of_mutations base_events [ warp ] = [ (3, 4000) ]);
  check cbool "skew script is deterministic" true
    (Fuzz.skew_script_of_mutations base_events [ warp ]
    = Fuzz.skew_script_of_mutations base_events [ warp ]);
  (* duplicate and splice have no lowering at all; the noop count is
     what [fuzz.lowering.noop] surfaces *)
  let dup =
    { Fuzz.m_op = Fuzz.Duplicate; m_at = 6; m_src = 0; m_span = 0;
      m_key = ""; m_delta = 0 }
  in
  check cint "noop lowerings counted" 1
    (Fuzz.lowering_noops [ warp; dup; drop_kick ]);
  check cbool "non-timewarp mutations skew nothing" true
    (Fuzz.skew_script_of_mutations base_events [ dup; drop_kick ] = [])

(* --- hangs are counted by constructor, never by message text --- *)

let test_campaign_counts_hangs () =
  let campaign verdict =
    Fuzz.run_campaign ~base:base_events ~seed:42 ~rounds:6
      ~minimize_bugs:false
      ~execute:(fun _ _ -> verdict)
      ()
  in
  let broken = campaign (Faults.Abort.Bug (Broken "hang-up on the console")) in
  check cbool "a broken console is a bug" true (broken.Fuzz.fz_bugs > 0);
  check cint "but no hang" 0 broken.Fuzz.fz_hangs;
  let hung = campaign (Faults.Abort.Bug (Hang 200e9)) in
  check cbool "executed mutants ran" true (hung.Fuzz.fz_bugs > 0);
  check cint "every executed mutant hangs" hung.Fuzz.fz_bugs
    hung.Fuzz.fz_hangs

(* --- reproducer metadata --- *)

let test_mutant_meta_roundtrip () =
  let base_meta = [ ("scenario", "attach"); ("seed", "5"); ("digest", "ff") ] in
  let verdict = Faults.Abort.Bug (Escaped "boom") in
  let meta =
    Fuzz.mutant_meta ~base_meta ~muts:sample_mutations ~prefix:12 ~verdict
  in
  check cbool "tagged as a fuzz mutant" true
    (List.assoc_opt "scenario" meta = Some Fuzz.mutant_scenario);
  match Fuzz.parse_mutant_meta meta with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok mf ->
      check cbool "chain survives" true (mf.Fuzz.mf_muts = sample_mutations);
      check cint "prefix survives" 12 mf.Fuzz.mf_prefix;
      check cstr "verdict text survives" "BUG: escaped exception: boom"
        mf.Fuzz.mf_verdict;
      check cbool "base scenario restored" true
        (List.assoc_opt "scenario" mf.Fuzz.mf_base_meta = Some "attach");
      check cbool "base seed survives" true
        (List.assoc_opt "seed" mf.Fuzz.mf_base_meta = Some "5")

(* --- the real pipeline: a recorded attach validates, and the attack
   executor survives both an empty and a scripted plan --- *)

let test_real_trace_validates_and_survives () =
  let spec = Replay.Attach { seed = 5 } in
  match Replay.execute spec with
  | Error e -> Alcotest.failf "attach execute failed: %s" e
  | Ok run ->
      check cbool "recorded attach passes the protocol model" true
        (Fuzz.validate run.Replay.run_events = []);
      let attack plan = Replay.execute_attack ~plan spec in
      let empty = Faults.create ~seed:0 ~rate:0.0 () in
      check cbool "unperturbed attack survives" true
        (attack empty = Faults.Abort.Survived);
      (* a scripted doorbell drop must be absorbed (retry/rekick), not
         break the pipeline *)
      let scripted = Faults.create ~seed:0 ~rate:0.0 () in
      Faults.set_script scripted [ (Faults.Notify_drop, 0) ];
      let v = attack scripted in
      check cbool "scripted notify drop is survivable or a clean abort" true
        (not (Faults.Abort.is_bug v))

(* A short real campaign over a recorded attach: its mutants run clean,
   and the engine's bookkeeping (mutation, validation, coverage
   hashing, corpus plumbing) costs at most 5% of the replays it drives.
   This is the suite's one wall-clock bound: bookkeeping is host work
   that never touches the virtual clock. *)
let test_campaign_bookkeeping_bound () =
  let spec = Replay.Attach { seed = 1900 } in
  let base =
    match Replay.execute spec with
    | Ok r -> r.Replay.run_events
    | Error e -> Alcotest.failf "attach execute failed: %s" e
  in
  let exec_wall = ref 0.0 in
  let attack = Replay.attack_executor ~base spec in
  let execute mutant muts =
    let t0 = Unix.gettimeofday () in
    let v = attack mutant muts in
    exec_wall := !exec_wall +. (Unix.gettimeofday () -. t0);
    v
  in
  let t0 = Unix.gettimeofday () in
  let rep = Fuzz.run_campaign ~base ~seed:9 ~rounds:8 ~execute () in
  let bookkeeping = Unix.gettimeofday () -. t0 -. !exec_wall in
  check cbool "mutants ran" true (rep.Fuzz.fz_mutants_run >= 1);
  check cint "no bugs" 0 rep.Fuzz.fz_bugs;
  if bookkeeping > 0.05 *. !exec_wall then
    Alcotest.failf "bookkeeping %.2f ms exceeds 5%% of %.2f ms of replays"
      (bookkeeping *. 1e3) (!exec_wall *. 1e3)

(* --- the drivers behind vmsh fuzz and their artifacts --- *)

(* A fault-schedule seed is a recipe like any other: recorded, it
   replays event for event and verdict for verdict. *)
let test_fuzz_seed_replays () =
  let path = Filename.temp_file "vmsh-fuzz-seed" ".vmshtrace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let spec = Replay.Fuzz_seed { seed = 3; rate = 0.2 } in
  (match Replay.record spec ~path with
  | Ok run ->
      check cbool "the seed recorded events" true
        (run.Replay.run_events <> [])
  | Error e -> Alcotest.failf "record failed: %s" e);
  (match Trace.load path with
  | Ok f ->
      check cbool "the recipe round-trips" true
        (Replay.spec_of_meta f.Trace.f_meta = Ok spec)
  | Error e -> Alcotest.failf "load failed: %s" e);
  match Result.bind (Trace.load path) (fun f -> Replay.replay f) with
  | Ok [] -> ()
  | Ok lines -> Alcotest.failf "replay diverged: %s" (String.concat "; " lines)
  | Error e -> Alcotest.failf "replay failed: %s" e

(* Seed k boosts class k mod 7, so seeds 0-6 reach every class, and a
   clean pipeline has no hang and no unclean failure among them. *)
let test_fuzz_seeds_cover_classes () =
  let r = Replay.fuzz_seeds ~seeds:7 ~rate:0.15 ~trace_seed:(Some 2) () in
  check cint "seven runs" 7 (List.length r.Replay.ss_runs);
  check cint "every fault class seen" (List.length Faults.all)
    r.Replay.ss_classes_seen;
  check cint "no hangs" 0 r.Replay.ss_hangs;
  check cint "no unclean failures" 0 r.Replay.ss_unclean;
  List.iter
    (fun s ->
      check cbool "the boosted class rotates" true
        (s.Replay.sd_boosted = List.nth Faults.all s.Replay.sd_seed))
    r.Replay.ss_runs;
  let counter name =
    List.find_map
      (fun c ->
        if Observe.Metrics.counter_name c = name then
          Some (Observe.Metrics.counter_value c)
        else None)
      (Observe.Metrics.counters r.Replay.ss_metrics)
  in
  check (Alcotest.option cint) "fuzz.seeds" (Some 7) (counter "fuzz.seeds");
  check cbool "the traced seed's trace is kept" true
    (r.Replay.ss_trace <> None)

(* A fuzz seed is a session run: its report carries the rollback
   oracle and the fd check, and both are clean on every class. *)
let test_fuzz_seeds_oracle_clean () =
  let r = Replay.fuzz_seeds ~seeds:7 ~rate:0.15 ~trace_seed:None () in
  List.iter
    (fun s ->
      let seed = Printf.sprintf "seed %d" s.Replay.sd_seed in
      check (Alcotest.list Alcotest.string) (seed ^ " oracle") []
        s.Replay.sd_oracle;
      check cint (seed ^ " leaked fds") 0 s.Replay.sd_leaked_fds)
    r.Replay.ss_runs

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Record an attach base and run the pinned campaign over it into a
   fresh corpus directory. *)
let campaign_into ~base dir =
  match
    Replay.fuzz_from_trace ~file:base ~rounds:8 ~seed:9 ~corpus:(Some dir)
      ~minimize:true ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "campaign failed: %s" e

let with_attach_base f =
  let base = Filename.temp_file "vmsh-fuzz-base" ".vmshtrace" in
  let a = Filename.temp_dir "vmsh-corpus" "" in
  let b = Filename.temp_dir "vmsh-corpus" "" in
  let rm dir =
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:(fun () -> List.iter rm [ a; b ]; Sys.remove base)
  @@ fun () ->
  (match Replay.record (Replay.Attach { seed = 5 }) ~path:base with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "record failed: %s" e);
  f ~base a b

let test_campaign_double_run () =
  with_attach_base @@ fun ~base a b ->
  let ca = campaign_into ~base a and cb = campaign_into ~base b in
  check (Alcotest.list cstr) "ledgers" ca.Replay.cp_ledger cb.Replay.cp_ledger;
  check cstr "metrics JSON"
    (Observe.Export.metrics_json ca.Replay.cp_metrics)
    (Observe.Export.metrics_json cb.Replay.cp_metrics);
  let files dir = List.sort compare (Array.to_list (Sys.readdir dir)) in
  check (Alcotest.list cstr) "corpus listings" (files a) (files b);
  check cbool "coverage and ledger persisted" true
    (List.mem "coverage.txt" (files a) && List.mem "ledger.txt" (files a));
  check cbool "mutants kept" true
    (List.exists (fun n -> String.starts_with ~prefix:"mutant-" n) (files a));
  List.iter
    (fun n ->
      check cstr n (read_file (Filename.concat a n))
        (read_file (Filename.concat b n)))
    (files a);
  check cint "no bugs" 0 ca.Replay.cp_report.Fuzz.fz_bugs

(* Every kept corpus mutant re-executes to its recorded verdict through
   the replay oracle, and a file whose recorded verdict was altered is
   reported as a divergence. *)
let test_corpus_entries_replay () =
  with_attach_base @@ fun ~base a _ ->
  ignore (campaign_into ~base a);
  let mutants =
    List.filter
      (fun n -> Filename.check_suffix n ".vmshtrace")
      (Array.to_list (Sys.readdir a))
  in
  check cbool "the campaign kept mutants" true (mutants <> []);
  List.iter
    (fun n ->
      match
        Result.bind
          (Trace.load (Filename.concat a n))
          (fun f -> Replay.replay f)
      with
      | Ok [] -> ()
      | Ok lines ->
          Alcotest.failf "%s diverged: %s" n (String.concat "; " lines)
      | Error e -> Alcotest.failf "%s: %s" n e)
    mutants;
  let path = Filename.concat a (List.hd mutants) in
  match Trace.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok f -> (
      let meta =
        List.map
          (fun (k, v) -> if k = "verdict" then (k, "BUG: planted") else (k, v))
          f.Trace.f_meta
      in
      match Replay.replay { f with Trace.f_meta = meta } with
      | Ok [ line ] ->
          check cbool "the divergence names the verdicts" true
            (String.starts_with ~prefix:"mutant verdict diverges" line)
      | Ok _ -> Alcotest.fail "an altered verdict replayed clean"
      | Error e -> Alcotest.failf "replay failed: %s" e)

(* --- ci.sh regression: an unknown --stage must list stages and exit 2
   (the old substring match let "build test" run zero stages, exit 0) --- *)

let find_ci_sh () =
  let rec up dir n =
    if n = 0 then None
    else
      let candidate = Filename.concat dir "ci.sh" in
      if Sys.file_exists candidate then Some candidate
      else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 6

let test_ci_stage_exact_match () =
  match find_ci_sh () with
  | None -> () (* not running from a build tree; nothing to check *)
  | Some ci ->
      let run arg =
        Sys.command
          (Printf.sprintf "sh %s --stage %s > /dev/null 2>&1"
             (Filename.quote ci) (Filename.quote arg))
      in
      check cint "unknown stage exits 2" 2 (run "not-a-stage");
      (* the regression: a word-boundary substring of the stage list
         used to pass validation and silently run nothing *)
      check cint "stage-list substring exits 2" 2 (run "build test")

(* --- ci.sh regression: a stage fails when any of its commands fails,
   not only its last (the stage subshell used to run as an `if`
   condition, where POSIX shells ignore `set -e`) --- *)

let test_ci_stage_fails_on_middle_command () =
  match find_ci_sh () with
  | None -> ()
  | Some ci ->
      let artifacts = Filename.concat (Filename.get_temp_dir_name ()) "vmsh-ci-stub" in
      (* source ci.sh (which runs nothing), make a one-stub stage list,
         and run its main loop *)
      let run body =
        Sys.command
          (Printf.sprintf "sh -c %s > /dev/null 2>&1"
             (Filename.quote
                (Printf.sprintf
                   "CI_ARTIFACTS=%s; . %s; STAGES=stub; stage_stub() { %s; }; main"
                   (Filename.quote artifacts) (Filename.quote ci) body)))
      in
      check cint "a failing middle command fails the run" 1 (run "false; true");
      check cint "a clean stage passes" 0 (run "true; true");
      if Sys.file_exists artifacts then Sys.rmdir artifacts

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "mutation serialization round-trips" `Quick
          test_mutation_roundtrip;
        Alcotest.test_case "every mutator round-trips the codec" `Quick
          test_mutants_roundtrip_codec;
        Alcotest.test_case "validator accepts the synthetic base" `Quick
          test_validator_accepts_base;
        Alcotest.test_case "validator rejects protocol violations" `Quick
          test_validator_rejects_violations;
        Alcotest.test_case "coverage keys are canonical" `Quick
          test_coverage_keys;
        Alcotest.test_case "campaigns are deterministic" `Quick
          test_campaign_deterministic;
        Alcotest.test_case "minimizer shrinks to the planted mutation" `Quick
          test_minimizer;
        Alcotest.test_case "campaign auto-minimizes bugs" `Quick
          test_campaign_minimizes_bugs;
        Alcotest.test_case "mutations lower to scripted faults" `Quick
          test_script_of_mutations;
        Alcotest.test_case "campaign counts hangs by constructor" `Quick
          test_campaign_counts_hangs;
        Alcotest.test_case "reproducer metadata round-trips" `Quick
          test_mutant_meta_roundtrip;
        Alcotest.test_case "campaign bookkeeping bound" `Quick
          test_campaign_bookkeeping_bound;
        Alcotest.test_case "recorded attach validates and survives attack"
          `Quick test_real_trace_validates_and_survives;
        Alcotest.test_case "a fuzz seed recording replays clean" `Quick
          test_fuzz_seed_replays;
        Alcotest.test_case "seeds 0-6 see every fault class" `Quick
          test_fuzz_seeds_cover_classes;
        Alcotest.test_case "seeds 0-6 report a clean oracle" `Quick
          test_fuzz_seeds_oracle_clean;
        Alcotest.test_case "campaign double run is byte-identical" `Quick
          test_campaign_double_run;
        Alcotest.test_case "corpus mutants replay to their verdicts" `Quick
          test_corpus_entries_replay;
        Alcotest.test_case "ci.sh rejects unknown stages" `Quick
          test_ci_stage_exact_match;
        Alcotest.test_case "ci.sh stages fail on any command" `Quick
          test_ci_stage_fails_on_middle_command;
      ] );
  ]
