(** Deterministic, seeded fault plans for the simulated substrate.

    A plan decides — from its own private RNG stream, never from the
    host's — whether a given operation should suffer a simulated
    transient fault. Each decision point in the substrate names a
    {!cls}; the plan draws once per armed query, so identical seeds and
    identical call sequences replay byte-identically (the IRIS
    property). A disabled plan never draws and never allocates metric
    counters, which keeps the no-faults run bit-identical to a build
    without this library. *)

(** The fault classes, each standing in for a real-world failure of the
    corresponding host interface (see DESIGN.md for the mapping). *)
type cls =
  | Inject_eintr  (** injected syscall interrupted before executing *)
  | Inject_eagain  (** injected syscall bounced with EAGAIN *)
  | Vm_rw_efault  (** transient process_vm_readv/writev EFAULT *)
  | Attach_race  (** PTRACE_ATTACH loses a race with another stop *)
  | Notify_drop  (** ioeventfd doorbell write lost *)
  | Desc_torn  (** torn read of a virtqueue available-ring slot *)
  | Link_burst  (** bursty loss on a network link *)

val all : cls list
val name : cls -> string
(** Stable kebab-case name, used in metric keys
    ([faults.injected.<name>]) and CLI output. *)

val of_name : string -> cls option

type t

val disabled : t
(** The inert default: {!fire} is always [false], no RNG draws, no
    metric registration. *)

val create :
  seed:int ->
  ?rate:float ->
  ?cap:int ->
  ?classes:cls list ->
  ?burst:int ->
  unit ->
  t
(** [create ~seed ()] arms every class at the given [rate] (default
    0.15) with at most [cap] injections per class (default unlimited).
    [classes] restricts the plan to a subset; [burst] is the number of
    consecutive frames lost per [Link_burst] firing (default 3). *)

val set_class : t -> cls -> rate:float -> cap:int -> unit
(** Override one class's rate/cap, e.g. to guarantee coverage of a
    class in one fuzz schedule. *)

val armed : t -> bool
val seed : t -> int
val burst : t -> int

val set_metrics : t -> Observe.Metrics.t option -> unit
(** Mirror every injection into a [faults.injected.<class>] counter of
    the given registry (the host arms this when the plan is
    installed). *)

val fire : t -> cls -> bool
(** Ask the plan whether this operation faults. Draws from the plan's
    RNG only when the plan is armed and the class has a non-zero rate;
    counts the injection when it fires. Every armed query also counts
    one {e decision} for the class (see {!set_script}). *)

(** {2 Scripted injections}

    The trace-mutation fuzzer derives exact perturbations from a
    mutated flight recording — "drop the 4th doorbell", "tear the 2nd
    descriptor read". A script is a list of [(class, decision-index)]
    pairs: the class's n-th armed {!fire} query fires
    deterministically, without an RNG draw, so a zero-rate scripted
    plan draws no randomness at all and scripting never shifts a
    probabilistic replay. *)

val set_script : t -> (cls * int) list -> unit
(** Install the script (replacing any previous one). A no-op on
    {!disabled}. *)

val script : t -> (cls * int) list

val decisions : t -> cls -> int
(** Armed {!fire} queries seen for this class so far. *)

val injected : t -> cls -> int
val total_injected : t -> int

(** {2 Crash points}

    The [abort-at-yield(k)] pseudo-class: deterministically kill the
    guarded operation at its k-th cooperative yield point. Unlike the
    probabilistic classes it draws nothing from the RNG stream (so
    arming it never shifts a probabilistic replay), and it is not part
    of {!all} — the crash-point sweep enumerates k exhaustively instead
    of sampling. *)

exception Crash_point of int
(** Raised by {!yield_tick} at the armed yield index. The attach path
    converts it into a clean [Vmsh_error] after rolling back. *)

val set_abort_at_yield : t -> int option -> unit
(** Arm ([Some k]) or disarm ([None]) the crash point and reset the
    yield counter. A no-op on {!disabled}, which is a shared constant
    every host without a plan points at. *)

val abort_at_yield : t -> int option

val yield_tick : t -> unit
(** Count one yield point; raises {!Crash_point} when the armed index
    is reached. A no-op on an unarmed plan. *)

val yield_ticks : t -> int
(** Yield points seen since the crash point was last (dis)armed. *)

(** {2 Yield hooks}

    Deterministic observers of the same yield-point stream the crash
    sweep enumerates. Neither draws from the RNG stream nor perturbs
    the yield count. All are no-ops on {!disabled}. *)

val set_on_yield : t -> (int -> unit) option -> unit
(** Install a hook called with the yield index at every {!yield_tick}
    of an armed plan — the seam an adversarial-guest engine uses to
    run guest-side steps exactly where a real guest would race the
    attach. *)

val set_skew_script : t -> (int * int) list -> unit
(** [(yield index, factor in permille)] pairs: at each scripted index,
    {!yield_tick} fires the {!set_on_skew} hook with the factor — the
    scripted lowering of a timewarp trace mutation. *)

val skew_script : t -> (int * int) list

val set_on_skew : t -> (int -> unit) option -> unit
(** The skew executor (the harness advances the virtual clock by the
    scripted proportion); separated from the script so lowering stays
    decoupled from clock ownership. *)

(** {2 Shared abort taxonomy}

    The three-way verdict every perturbation harness (fault matrix,
    crash-point sweep, trace-mutation fuzzer) classifies a run into. *)

module Abort : sig
  (** Why a run is a bug. Each cause renders as the text the ledgers,
      results files and reproducer metadata carry. *)
  type bug =
    | Hang of float
        (** virtual nanoseconds the run consumed, past its budget *)
    | Escaped of string  (** an exception escaped; its printed form *)
    | Broken of string  (** attached, then misbehaved (dead console, ...) *)
    | Oracle of string  (** the first rollback-oracle discrepancy *)
    | Leaked_fds of int  (** host descriptors left open *)

  type verdict =
    | Survived  (** completed; oracle clean; nothing leaked *)
    | Clean_abort of string
        (** failed with a round-trippable error after full rollback *)
    | Bug of bug

  val label : verdict -> string
  (** ["survived"] / ["clean-abort"] / ["BUG"] — the ledger keys. *)

  val detail : verdict -> string
  (** The abort message or the bug's text; [""] for {!Survived}. *)

  val is_bug : verdict -> bool

  val to_string : verdict -> string
  (** [label], then [": "] and {!detail} unless the run survived — the
      text reproducer metadata records and replay compares. *)
end
