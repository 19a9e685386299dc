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
    next to {!Vmsh.Snapshot}. *)

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

type run = {
  run_events : Trace.event list;  (** the fresh run's flight recording *)
  run_digest : string;  (** its guest-state digest *)
}

val meta_of_spec : spec -> (string * string) list
(** The scenario recipe as trace metadata ([scenario], [seed], …). *)

val spec_of_meta : (string * string) list -> (spec, string) result
(** Parse a recipe back out of trace metadata. Accepts both the keys
    {!meta_of_spec} writes and the ones the in-tree dump-on-failure
    sites write ([fleet-seed], [sweep-seed]). *)

val execute : ?log_level:Observe.level -> spec -> (run, string) result
(** Deterministically run the scenario; [Error] only for an unknown
    fault-class or job-kind name. [log_level] sets the re-run hosts'
    stderr log level (default quiet — replay output stays
    byte-comparable). *)

(** {2 Mutant execution}

    The trace-mutation fuzzer (lib/fuzz) derives a scripted
    {!Faults.t} plan from a mutated recording and asks whether the real
    pipeline survives it. *)

type attack = {
  at_verdict : Faults.Abort.verdict;
  at_events : Trace.event list;  (** the attacked run's flight recording *)
  at_virtual_ns : float;  (** virtual time the attacked run consumed *)
}

val execute_attack :
  ?log_level:Observe.level ->
  ?session:int ->
  plan:Faults.t ->
  spec ->
  attack
(** Re-run the recipe's attach on a fresh machine under [plan] (for a
    fleet recipe, the one [session] the mutation touched, using the
    fleet engine's per-session host-seed derivation) as one
    {!Fleet.Session} run, and report that session's verdict: a hang
    past {!Fleet.Session.budget_ns}, an escaped exception, an oracle
    divergence or a descriptor leak is a {!Faults.Abort.Bug}; a typed
    attach failure after full rollback is a [Clean_abort]; completion
    is [Survived]. *)

val record :
  ?log_level:Observe.level -> spec -> path:string -> (run, string) result
(** {!execute}, then save the recording (with its recipe and digest in
    the metadata) as a [.vmshtrace] file at [path]. *)

val replay :
  ?log_level:Observe.level -> path:string -> unit -> (string list, string) result
(** Load [path], re-run its recipe, and diff. [Ok []] means the replay
    matched the recording event-for-event and digest-for-digest;
    [Ok lines] lists the divergences; [Error] means the file or its
    recipe could not be read. *)
