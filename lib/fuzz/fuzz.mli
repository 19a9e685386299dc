(** Trace-mutation fuzzing of the hypervisor boundary.

    Mutates a recorded [.vmshtrace] event stream with seeded,
    structure-aware operators and judges each mutant: a
    protocol-violating stream must be rejected by the causality
    validator ([Clean_abort]); a protocol-consistent one is lowered to
    a scripted fault plan and executed for real through the attach
    pipeline with the journal + snapshot oracle live.

    The engine is a pure, deterministic function of
    [(trace, seed, rounds)] — it never touches the filesystem or wall
    clock, and the executor is injected, so tests drive campaigns with
    stub executors and [Replay.fuzz_from_trace] runs them with
    [Replay.attack_executor]. *)

type verdict = Faults.Abort.verdict

(** {2 Mutators} *)

type mutator =
  | Reorder  (** swap an adjacent, commuting event pair *)
  | Drop  (** lose a doorbell (kick / irq / notify_rekick) *)
  | Duplicate  (** repeat a doorbell *)
  | Corrupt  (** flip bits in a typed integer argument *)
  | Splice  (** graft a window from elsewhere (another session) *)
  | Timewarp  (** rescale the suffix's inter-event spacing *)

val all_mutators : mutator list
(** The six classes, in rotation order. *)

val mutator_name : mutator -> string
val mutator_of_name : string -> mutator option

type mutation = {
  m_op : mutator;
  m_at : int;  (** site index in the stream the mutation applies to *)
  m_src : int;  (** splice: source window start *)
  m_span : int;  (** splice: source window length *)
  m_key : string;  (** corrupt: the integer argument edited *)
  m_delta : int;  (** corrupt: xor mask; timewarp: factor in permille *)
}

val mutation_to_string : mutation -> string
(** [op:at:src:span:key:delta] — the form reproducer metadata carries. *)

val mutation_of_string : string -> mutation option
val mutations_to_string : mutation list -> string
val mutations_of_string : string -> mutation list option

val apply : Trace.event list -> mutation -> Trace.event list option
(** Apply one mutation; [None] when it is illegal at its site (out of
    range, causality-violating reorder, no such typed argument).
    Application re-validates everything, so untrusted reproducer
    metadata cannot smuggle an unchecked edit. *)

val apply_all : Trace.event list -> mutation list -> Trace.event list
(** Fold {!apply} over a chain, skipping mutations that have become
    illegal (minimization legitimately creates those). *)

(** {2 Causality validator} *)

val validate : Trace.event list -> string list
(** The boundary protocol model: each session's virtual time is
    monotone (sessions are clocked independently — a fleet recording
    concatenates per-host streams);
    attach lifecycle events form at most one transaction window per
    session; phases and syscall injections happen only inside an open
    window; rollbacks need a transaction; mmio lengths, GSI numbers
    and ioregionfd ops stay in range. [[]] = protocol-consistent.
    Every unmutated recording the pipeline produces must pass. *)

(** {2 Lowering to a scripted fault plan} *)

val script_of_mutations :
  Trace.event list -> mutation list -> (Faults.cls * int) list
(** Lower a mutation chain (against its base stream) to deterministic
    [(class, decision-index)] injections for {!Faults.set_script}:
    dropped doorbells become notify drops, corrupted descriptors
    become torn reads, corrupted syscall returns become injector
    bounces, reorders near injections become attach races. Duplicate
    and splice mutants execute unperturbed — the pipeline must simply
    survive them; timewarp lowers through
    {!skew_script_of_mutations} instead. *)

val skew_script_of_mutations :
  Trace.event list -> mutation list -> (int * int) list
(** Lower the chain's timewarp mutations to
    [(yield-index, factor-permille)] pairs for
    {!Faults.set_skew_script}: at the scripted yield point of the live
    attach, the harness stretches the virtual clock by the warp
    factor (a scripted timing decision, not a fault injection). *)

val lowering_noops : mutation list -> int
(** How many mutations of the chain have no runtime lowering at all
    (duplicate, splice) — the mutant stream itself is their whole
    perturbation. Campaigns surface the total as the
    [fuzz.lowering.noop] counter. *)

(** {2 Coverage} *)

val coverage_keys : Trace.event list -> string list
(** The stream's event-sequence coverage: FNV-1a hashes of every
    session-tagged 3-gram of event kinds, deduplicated and sorted —
    order-independent across identical double runs and stable across
    compiler versions. *)

(** {2 Minimization} *)

val minimize :
  still_bug:(mutation list -> bool) -> mutation list -> mutation list
(** Delta-debug a buggy mutation chain down to a minimal reproducer:
    drop halves, then single mutations, to fixpoint. Assumes
    [still_bug] holds of the input; deterministic. *)

val truncate_base : Trace.event list -> mutation list -> Trace.event list
(** Truncate a reproducer's base stream to the prefix its mutations
    actually reference — the tail is noise the reproducer replays
    without. *)

(** {2 Campaign} *)

val judge :
  execute:(Trace.event list -> mutation list -> verdict) ->
  Trace.event list ->
  mutation list ->
  verdict
(** Judge one mutant: [Clean_abort "protocol: ..."] when the causality
    validator rejects it, otherwise whatever [execute] returns. The
    campaign, the reproducer writer and [vmsh trace replay] all judge
    through here. *)

type round_result = {
  rr_round : int;
  rr_op : mutator;
  rr_muts : mutation list;  (** full mutation chain of this mutant *)
  rr_events : Trace.event list;  (** the mutant stream itself *)
  rr_verdict : verdict;
  rr_new_keys : int;  (** novel coverage keys this mutant contributed *)
  rr_minimized : mutation list option;  (** for bugs, the minimal chain *)
}

type report = {
  fz_rounds : round_result list;
  fz_mutants_run : int;
  fz_survived : int;
  fz_clean_aborts : int;
  fz_bugs : int;
  fz_minimized_bugs : int;
  fz_hangs : int;
  fz_mutator_fired : (mutator * int) list;
  fz_corpus_kept : int;  (** mutants added to the corpus this campaign *)
  fz_coverage : string list;  (** full coverage key set, sorted *)
}

val run_campaign :
  base:Trace.event list ->
  seed:int ->
  rounds:int ->
  ?minimize_bugs:bool ->
  ?seen:string list ->
  execute:(Trace.event list -> mutation list -> verdict) ->
  unit ->
  report
(** Run [rounds] mutants. Round [r] leads with mutator class
    [r mod 6] (falling forward when that class has no legal site), so
    every class fires on any non-trivial trace. Parents are drawn from
    the corpus pool (base plus kept mutants, chain depth capped);
    protocol-violating mutants are [Clean_abort]ed by the validator
    without executing; novel-coverage mutants join the pool; bugs are
    minimized via [execute] when [minimize_bugs] (default [true]).
    [seen] pre-loads coverage keys (a persisted corpus), so only
    genuinely new coverage is kept. Deterministic in all arguments. *)

(** {2 Reproducer / corpus-entry trace files} *)

val mutant_scenario : string
(** The [scenario] metadata value tagging fuzz-mutant trace files. *)

val mutant_meta :
  base_meta:(string * string) list ->
  muts:mutation list ->
  prefix:int ->
  verdict:verdict ->
  (string * string) list
(** Metadata for a corpus entry or minimized reproducer: the base
    recipe's keys (its [scenario] preserved as [base-scenario]), the
    serialized mutation chain, the base-prefix length the chain
    applies to, the verdict, and the trace-codec version. *)

type mutant_file = {
  mf_base_meta : (string * string) list;
      (** the base recipe's metadata, scenario key restored *)
  mf_muts : mutation list;
  mf_prefix : int;  (** base-prefix length the chain applies to *)
  mf_verdict : string;
      (** the recorded verdict, as {!Faults.Abort.to_string} renders it *)
}

val parse_mutant_meta :
  (string * string) list -> (mutant_file, string) result
(** Inverse of {!mutant_meta}: recover the base recipe metadata,
    mutation chain, prefix and recorded verdict from a fuzz-mutant
    trace's metadata. The verdict stays text: a replay compares its
    own {!Faults.Abort.to_string} against it. *)
