(** Hypervisor-boundary flight recorder.

    A {!Recorder.t} is an always-on, bounded-memory ring of KVM-boundary
    events — ioctls, MMIO/PIO exits, eventfd kicks and notify re-kicks,
    injected syscalls, virtqueue pump stages, journal rollback replays —
    each tagged with the virtual timestamp, the session id, and (through
    the header metadata) the fault-plan seed. Recording is pure
    observation: it never advances virtual time and never draws from any
    RNG, so two identically-seeded runs produce byte-identical
    [.vmshtrace] files.

    The on-disk format is a compact string-table-interned binary
    encoding ({!encode}/{!decode}); the header carries the scenario
    recipe (kind, seed, vms, fault class, crash point) that the
    replayer uses to re-drive the run without the original guest. *)

type value = I of int | S of string

type event = {
  kind : string;  (** dot-separated event class, e.g. ["kvm.exit.mmio"] *)
  ts : float;  (** virtual nanoseconds *)
  session : int;  (** fleet session index; 0 for single-VM runs *)
  args : (string * value) list;
}

type file = {
  f_meta : (string * string) list;  (** scenario recipe + tags *)
  f_dropped : int;  (** events overwritten by the bounded ring *)
  f_events : event list;
}

(** The recorder writes two classes of record into one ring.
    {e Boundary} records are the flight recording: always on, saved by
    {!save}, compared by replay. {e Detail} records exist only while
    tracing is switched on ({!Recorder.set_detail}): span begin/end
    pairs and tracing-only instants. They are rendered into the Chrome
    trace and printed by [vmsh attach -v], and never written to a
    [.vmshtrace] file. *)
type phase =
  | Boundary
  | Begin  (** span opens; [args] are its attributes *)
  | End  (** span closes; [args] are its counter deltas *)
  | Instant  (** tracing-only point event *)

(** Bounded ring of records. Created once per {!Hostos.Host.t};
    capacity bounds memory, oldest records are overwritten. The ring
    starts small and doubles as records arrive, so memory follows what
    a run records up to the capacity. *)
module Recorder : sig
  type t

  val create : ?capacity:int -> now:(unit -> float) -> unit -> t
  (** Default capacity 65536 records. [now] reads the virtual clock. *)

  val now : t -> float

  val set_enabled : t -> bool -> unit
  (** Disabling turns boundary {!record}s into no-ops. *)

  val detail : t -> bool

  val set_detail : t -> bool -> unit
  (** Switch detail records on or off. Switching on also starts a new
      {!stream} window. Off by default. *)

  val set_session : t -> int -> unit
  (** Tag subsequent events with a fleet session index. *)

  val session : t -> int

  val set_meta : t -> string -> string -> unit
  (** Insert-or-overwrite a header key; insertion order is preserved. *)

  val meta : t -> (string * string) list

  val record :
    t -> ?phase:phase -> kind:string -> ?args:(string * value) list -> unit -> unit
  (** [phase] defaults to [Boundary]. A detail record is dropped unless
      {!detail} is on. *)

  val events : t -> event list
  (** The boundary records still in the ring, oldest first. *)

  val stream : t -> (phase * event) list
  (** Every record, boundary and detail, written since detail records
      were last switched on (since creation if they never were). *)

  val stream_dropped : t -> int
  (** Records of the {!stream} window already overwritten. *)

  val total : t -> int  (** boundary records ever recorded, including dropped *)

  val dropped : t -> int  (** boundary records overwritten *)
end

(** {2 Mutation-safe accessors & causality metadata}

    Used by the trace-mutation fuzzer (lib/fuzz) to edit recorded
    events without breaking the codec's typing, and to decide which
    adjacent events may legally be reordered. *)

val int_arg : event -> string -> int option
val str_arg : event -> string -> string option

val with_int_arg : event -> string -> int -> event
(** Replace (or append) an integer argument, preserving arg order. *)

val with_ts : event -> float -> event
val with_session : event -> int -> event

val commutes : event -> event -> bool
(** May these two adjacent events be swapped without violating
    causality? Different sessions always commute; within a session,
    lifecycle events and same-kind pairs (per-kind FIFOs) never do. *)

val codec_version : string
(** The on-disk format version (the magic string). Nightly fuzz runs
    key their corpus cache on it. *)

val encode : meta:(string * string) list -> ?dropped:int -> event list -> string
(** Serialize to the binary [.vmshtrace] format (magic "VMSHTRC1",
    string-table interned, little-endian, byte-stable). *)

val decode : string -> (file, string) result

val write :
  string -> meta:(string * string) list -> dropped:int -> event list -> unit
(** [write path ~meta ~dropped events]: {!encode} the events into a
    [.vmshtrace] file at [path]. Every recording the program writes
    goes through here. Raises [Sys_error] if [path] cannot be written. *)

val save :
  Recorder.t -> ?extra_meta:(string * string) list -> string -> unit
(** {!write} the recorder's boundary records to [path], appending
    [extra_meta] after the recorder's own header entries. Detail
    records are never saved. *)

val load : string -> (file, string) result
(** Read and decode a [.vmshtrace] file. *)

val diff : event list -> event list -> string list
(** Event-stream diff: [[]] means the streams are identical. Each
    returned line describes one divergence (first 16 reported, then a
    summary line). *)

val stat : event list -> (string * int) list
(** Per-kind event counts, in order of first appearance. *)

val pp_event : Format.formatter -> event -> unit

val dump_on_failure :
  Recorder.t ->
  name:string ->
  ?extra_meta:(string * string) list ->
  unit ->
  string option
(** If [VMSH_TRACE_DIR] is set and not empty, write
    [<dir>/<name>.vmshtrace] and return
    the path. Never raises: I/O errors are swallowed (the artifact is
    best-effort; the failure being reported must survive). *)
