(** The replay-diff oracle: deterministic re-execution of a recorded
    flight log.

    A [.vmshtrace] file carries a {e scenario recipe} in its metadata —
    which driver produced it (smoke attach, fleet run, crash-point
    sweep cell) and every seed that parameterised it. Because the whole
    substrate is a deterministic function of those seeds, {!replay} can
    re-run the scenario without the original guest and compare the
    fresh run against the file, event by event, plus the guest-state
    snapshot digest. Any divergence means either nondeterminism crept
    into the pipeline or the recording is corrupt — a second oracle
    next to {!Vmsh.Snapshot}.

    The fuzz drivers behind [vmsh fuzz] live here as well: every
    artifact they write is a recording of one of these recipes, so
    {!replay} re-runs a fault-schedule seed, a kept corpus mutant and a
    minimized reproducer like any other recording. *)

type spec =
  | Attach of { seed : int }  (** one fault-free smoke attach *)
  | Fleet_run of { seed : int; vms : int; from_baseline : bool }
      (** a whole fleet run; [from_baseline] replays the sessions as CoW
          forks of a deterministically re-baked {!Fleet.Baseline.image} *)
  | Sweep_cell of {
      seed : int;
      cls : string;
      k : int;
      hostile : string;
      from_baseline : bool;
    }
      (** one crash-matrix cell: fault class × abort-at-yield(k);
          [k = -1] is the class's probe (crash point out of reach).
          [hostile] names the adversarial-guest class attacking the
          cell (chaos-matrix recordings), or is [""] for a plain
          sweep cell; [from_baseline] forks the cell's machine from a
          re-baked {!Fleet.Baseline.image} *)
  | Serve_job of {
      job : Service.Job.t;
      start_ns : float;
      ram_mb : int;
      worker : int;
      warm_cache : bool;
    }
      (** one service job re-run in isolation: the same job, dispatch
          instant, worker slot and symbol-cache state (a live job that
          hit the service's shared cache replays against a warmed one)
          the dispatcher used, so any job's recording replays without
          the rest of the stream *)
  | Fuzz_seed of { seed : int; rate : float }
      (** one [vmsh fuzz --seeds] schedule: a qemu/5.10 session with a
          network cabled, a console round trip and echo traffic, under
          a fault plan armed on the host before boot (background
          [rate], class [seed mod 7] boosted) *)

type run = {
  run_events : Trace.event list;  (** the fresh run's flight recording *)
  run_digest : string;  (** its guest-state digest *)
}

val spec_of_meta : (string * string) list -> (spec, string) result
(** Parse a recipe back out of trace metadata. Accepts both the keys
    {!record} writes and the ones the in-tree dump-on-failure
    sites write ([fleet-seed], [sweep-seed]). *)

val execute : ?log_level:Observe.level -> spec -> (run, string) result
(** Deterministically run the scenario; [Error] only for an unknown
    fault-class or job-kind name. A serve job's or a fuzz seed's digest
    hashes its rendered outcome, since no guest outlives the run.
    [log_level] sets the re-run hosts' stderr log level (default quiet —
    replay output stays byte-comparable). *)

(** {2 Mutant execution}

    The trace-mutation fuzzer (lib/fuzz) derives a scripted
    {!Faults.t} plan from a mutated recording and asks whether the real
    pipeline survives it. *)

val execute_attack :
  ?log_level:Observe.level ->
  ?session:int ->
  plan:Faults.t ->
  spec ->
  Faults.Abort.verdict
(** Re-run the recipe's attach on a fresh machine under [plan] (for a
    fleet recipe, the one [session] the mutation touched, using the
    fleet engine's per-session host-seed derivation) as one
    {!Fleet.Session} run, and report that session's verdict: a hang
    past {!Fleet.Session.budget_ns}, an escaped exception, an oracle
    divergence or a descriptor leak is a {!Faults.Abort.Bug}; a typed
    attach failure after full rollback is a [Clean_abort]; completion
    is [Survived]. *)

val attack_executor :
  ?log_level:Observe.level ->
  base:Trace.event list ->
  spec ->
  Trace.event list ->
  Fuzz.mutation list ->
  Faults.Abort.verdict
(** [attack_executor ~base spec] is the executor a campaign judges
    protocol-consistent mutants of [base] (a recording of [spec]) with:
    lower the chain to a scripted fault and skew plan and
    {!execute_attack} the session its first mutation touches. *)

val record :
  ?log_level:Observe.level -> spec -> path:string -> (run, string) result
(** {!execute}, then save the recording (with its recipe and digest in
    the metadata) as a [.vmshtrace] file at [path]. *)

val replay :
  ?log_level:Observe.level -> Trace.file -> (string list, string) result
(** Re-run a recording ({!Trace.load}ed by the caller) and diff. A
    recipe recording re-runs its recipe and diffs events and digests; a
    fuzz-mutant file (a kept corpus mutant or a reproducer) rebuilds the
    mutant from its stored base prefix and chain, re-judges it with
    {!attack_executor} and compares the verdict. [Ok []] means the
    replay matched; [Ok lines] lists the divergences; [Error] means its
    recipe could not be read. *)

(** {2 Fault-schedule fuzzing ([vmsh fuzz --seeds])} *)

type seed_run = {
  sd_seed : int;
  sd_boosted : Faults.cls;  (** the class this seed's plan boosts *)
  sd_injected : int;  (** faults injected over the run *)
  sd_virtual_ns : float;  (** virtual time the run consumed *)
  sd_verdict : Faults.Abort.verdict;
  sd_oracle : string list;  (** the session's rollback-oracle lines *)
  sd_leaked_fds : int;  (** descriptors the session left open *)
}

type seed_sweep = {
  ss_runs : seed_run list;  (** in seed order *)
  ss_metrics : Observe.Metrics.t;
      (** [fuzz.*] outcome counters, [fuzz.class_seen.*],
          [faults.injected.*], every run's [recovery.*] counters summed,
          and the [fuzz.attach_virtual_ns] histogram *)
  ss_trace : string option;  (** the traced seed's Chrome trace *)
  ss_hangs : int;
  ss_unclean : int;  (** bugs other than hangs *)
  ss_classes_seen : int;  (** fault classes injected at least once *)
}

val fuzz_seeds :
  ?log_level:Observe.level ->
  seeds:int ->
  rate:float ->
  trace_seed:int option ->
  unit ->
  seed_sweep
(** Run the [Fuzz_seed] recipe for seeds [0 .. seeds - 1]. The run of
    [trace_seed] is traced. A seed whose verdict is a bug leaves a
    replayable recording through {!Trace.dump_on_failure}. *)

(** {2 Trace-mutation campaigns ([vmsh fuzz --from-trace])} *)

type campaign = {
  cp_report : Fuzz.report;
  cp_ledger : string list;  (** one deterministic line per mutant *)
  cp_metrics : Observe.Metrics.t;
      (** [fuzz.*] campaign counters and [fuzz.mutator_fired.*] *)
}

val fuzz_from_trace :
  ?log_level:Observe.level ->
  file:string ->
  rounds:int ->
  seed:int ->
  corpus:string option ->
  minimize:bool ->
  unit ->
  (campaign, string) result
(** Load the recording at [file], check it against the protocol model,
    and run a {!Fuzz.run_campaign} of [rounds] mutants judged by
    {!attack_executor}. With a [corpus] directory, pre-load its
    [coverage.txt], then write [coverage.txt], [ledger.txt],
    [mutant-<round>.vmshtrace] for every kept mutant and
    [repro-<round>.vmshtrace] for every minimized bug. Everything is a
    deterministic function of (trace bytes, seed, rounds). [Error] if
    the file, its recipe or its protocol check fails, or if it records
    a [Fuzz_seed] (whose session {!execute_attack} cannot re-run); raises
    [Sys_error] if the corpus cannot be written. *)
