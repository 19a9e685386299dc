(** Fleet attach engine: N concurrent VMSH attaches over virtual time.

    Each session is a fully independent simulated machine — its own
    {!Hostos.Host.t} (clock, RNG, fault plan), its own hypervisor and
    guest, its own attach. The {!Sched} scheduler interleaves the
    sessions at the yield points the attach path exposes (one injected
    syscall, one KVM_RUN, one status poll per slice), always resuming
    the session whose virtual clock is furthest behind — the
    discrete-event analogue of N vmsh processes sharing one physical
    host.

    Sessions come up in one of two ways, chosen by
    {!Config.boot_source}: a {e cold boot} builds disk, hypervisor and
    guest from scratch, while {!Config.Fork_of} clones a baked
    {!Baseline.image} through per-4KiB-page copy-on-write overlays —
    boot once, fork thousands of times, each fork charged only the
    linked-clone cost (orders of magnitude below a cold boot) and
    resident only for the pages it actually diverges.

    Sessions share exactly one piece of state by design: the
    {!Vmsh.Symbol_analysis.Cache}, so the first attach pays the full
    binary analysis and the other N-1 hit the build-id cache — the
    fleet-scale payoff the bench measures. (Forked sessions also share
    their baseline's frozen pages, read-only.)

    Everything is deterministic: the same {!Config.t} gives a
    byte-identical {!report.r_schedule} and metrics. *)

module Sweep = Fleet_sweep
(** The crash-point sweep: abort-at-yield(k) × fault-class matrix with
    rollback-oracle and fd-leak post-conditions (the crash-matrix CI
    gate). *)

module Baseline = Baseline
(** Baked baseline images and copy-on-write VM forking — boot once,
    fork thousands of linked clones through per-page overlays. *)

module Machine = Machine
(** The machine every session boots: root disk, tools image, fd count.
    The tools image is frozen once per process ([Machine.tools]) and
    each [Machine.tools_image clock] is a copy-on-write
    {!Blockdev.Image.instance} of it, charged like a fresh pack. *)

module Session = Session
(** The one attach pipeline (boot or fork through the rollback oracle)
    and its verdict; the fleet, sweep, service, both fuzzers and the
    CLI's [attach] and [matrix] run it. [run ?step] hands the caller
    the booted machine and the attached session.
    A report's [digest] is lazy: it is computed only when forced
    (the fleet digest, replay, the sweep), exact however late, and
    until forced it retains the guest memory it will hash. *)

(** Fleet configuration: a builder mirroring {!Vmsh.Attach.Config}
    (make / with_* / validate). *)
module Config : sig
  type boot_source =
    | Cold_boot  (** build every session from scratch (the default) *)
    | Fork_of of Baseline.image
        (** clone every session from this baked baseline through CoW
            overlays *)

  type t

  val make : ?vms:int -> unit -> t
  (** Defaults: 1 VM, seed 7, QEMU profile, kernel v5.10, no faults,
      shared symbol cache, quiet logs, cold boot. *)

  val with_seed : int -> t -> t
  val with_profile : Hypervisor.Profile.t -> t -> t
  val with_version : Linux_guest.Kernel_version.t -> t -> t
  val with_fault_rate : float -> t -> t
  val with_share_symbols : bool -> t -> t
  val with_log_level : Observe.level -> t -> t
  val with_boot_source : boot_source -> t -> t

  val vms : t -> int
  val seed : t -> int
  val profile : t -> Hypervisor.Profile.t
  val version : t -> Linux_guest.Kernel_version.t
  val fault_rate : t -> float
  val share_symbols : t -> bool
  val log_level : t -> Observe.level option
  val boot_source : t -> boot_source
  val is_fork : t -> bool

  val validate : t -> (t, Vmsh.Vmsh_error.t) result
  (** [Invalid_config] for a non-positive [vms] or a [fault_rate]
      outside [0, 1]; [Baseline_stale] when [Fork_of img] does not
      match the configured kernel version or hypervisor profile. *)
end

type session_report = {
  s_name : string;  (** ["vm0"], ["vm1"], … *)
  s_result : (unit, string) result;  (** rendered {!Vmsh.Vmsh_error.t} *)
  s_attach_ns : float;  (** virtual ready-to-overlay attach latency *)
  s_fork_ns : float;
      (** virtual cost of standing the session up from its baseline
          ([nan] for a cold boot) *)
  s_total_ns : float;  (** session's final virtual time *)
  s_host : Hostos.Host.t;
      (** the session's simulated machine — carries its metrics
          registry and flight recorder for post-run aggregation *)
  s_digest : string Lazy.t;
      (** {!Vmsh.Snapshot.digest} of the guest after detach, computed
          when first forced ({!digest} forces every session's);
          [""] when the session died before filing its report. Forcing
          it late is exact, but until it is forced it keeps the
          session's guest memory alive — a report that drops its
          sessions must force or drop their digests too. *)
}

type report = {
  r_vms : int;
  r_seed : int;
  r_forked : bool;  (** sessions were forked from a baseline *)
  r_sessions : session_report list;  (** in session order *)
  r_yields : int;  (** scheduler suspensions across the run *)
  r_cache_hits : int;  (** symcache.hits summed over sessions *)
  r_cache_misses : int;
  r_schedule : string;
      (** one line per scheduling decision ("slice N vmK t=NS") — the
          byte-comparable witness of the interleaving *)
}

val run : Config.t -> (report, Vmsh.Vmsh_error.t) result
(** Boot (or fork) and attach [Config.vms] sessions concurrently. The
    config is {!Config.validate}d first — a stale baseline or invalid
    combination is rejected as a typed error before any session runs.
    A session failure is reported in its {!session_report}, never
    raised; forked sessions additionally verify their per-clone
    isolation on the console (a fork answering with another clone's —
    or the baseline's — hostname is a failure). When [VMSH_TRACE_DIR]
    is set each failed session dumps a replayable [.vmshtrace]
    artifact. *)

val record : Observe.Metrics.t -> label:string -> report -> unit
(** Fold a report into a metrics registry: [fleet.attach_ns.<label>]
    (and, for forked runs, [fleet.fork_ns.<label>]) histograms over
    the successful sessions, plus [symcache.hits] / [symcache.misses]
    / [fleet.yields.<label>] / [fleet.failures.<label>] counters. *)

val percentile_of : float list -> float -> float
(** [percentile_of xs 0.99]: nearest-rank percentile (the
    [⌈p·n⌉]-th smallest value); [nan] for an empty list. *)

val attach_p : report -> float -> float
(** [attach_p r 0.99]: percentile over the successful sessions' attach
    latencies (virtual ns); [nan] when none succeeded. *)

val fork_p : report -> float -> float
(** Same percentile over the successful sessions' fork (stand-up)
    latencies; [nan] for a cold-boot report. *)

val digest : report -> string
(** One hex digest folding every session's {!session_report.s_digest}
    in session order — the guest-state half of the replay-diff
    oracle. *)

val flight_events : report -> Trace.event list
(** The fleet's merged flight recording: every session's events
    concatenated in session order, each tagged with its session id.
    Deterministic for a given seed, so a replayed fleet diffs clean. *)

val metrics_json : report -> string
(** One fleet-wide JSON document:
    [{"fleet": <merged>, "sessions": {"vm0": <per-session>, ...}}].
    The merged registry folds every session's counters and histogram
    buckets together (so fleet p50/p99 are over all sessions' samples,
    and forked runs carry [fleet.fork_ns] plus the [overlay.*]
    occupancy counters) and includes the [fleet.attach_ns.fleet]
    summary histogram. *)
