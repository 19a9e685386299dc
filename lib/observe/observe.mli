(** Virtual-time tracing spans, metric histograms, and exporters.

    A tracer [t] keeps {e metrics} (counters, gauges, log-bucketed
    histograms) and writes {e spans} into its host's flight recorder
    ({!Trace.Recorder}) as detail records: a [Begin] record, then an
    [End] record whose args are the per-span deltas of the global event
    counters. Time is the recorder's clock, in this repo the virtual
    nanosecond clock of {!Hostos.Clock}. Recording never advances
    virtual time, so enabling tracing cannot change any simulated
    result, and two identical runs export byte-identical traces.

    Detail records are off by default: [span t ~name f] is just [f ()]
    until {!enable}. Metrics are always-on (they are pure observation
    with zero virtual cost). *)

(** Counters, gauges, and log-bucketed histograms. Histogram quantiles
    carry a bounded relative error of about half a bucket (~4.5%). *)
module Metrics : sig
  type t
  type counter
  type gauge
  type histogram

  val create : unit -> t

  val counter : t -> string -> counter
  (** Find-or-create by name; registration order is preserved. *)

  val incr : ?by:int -> counter -> unit
  val set_counter : counter -> int -> unit
  val counter_value : counter -> int
  val gauge : t -> string -> gauge
  val set_gauge : gauge -> float -> unit
  val gauge_value : gauge -> float
  val histogram : t -> string -> histogram
  val observe : histogram -> float -> unit
  val count : histogram -> int
  val mean : histogram -> float
  val min_value : histogram -> float
  val max_value : histogram -> float

  val percentile : histogram -> float -> float
  (** [percentile h 99.0] estimates p99 from the log buckets, clamped
      to the observed min/max. *)

  val counter_name : counter -> string
  val histogram_name : histogram -> string
  val counters : t -> counter list
  val gauges : t -> gauge list
  val histograms : t -> histogram list

  val merge_into : into:t -> t -> unit
  (** Fold one registry into another: counters and histogram buckets
      add, gauges take the source's value. Used to aggregate
      per-session fleet metrics into one fleet-wide registry. *)
end

type t

val create :
  recorder:Trace.Recorder.t ->
  ?counters:(unit -> (string * int) list) ->
  unit ->
  t
(** [create ~recorder ~counters ()] builds a tracer with tracing off.
    Spans go into [recorder] and read its clock; [counters] reads the
    global counter vector whose deltas annotate each span (the list
    must keep a stable order). *)

val enabled : t -> bool

val enable : t -> unit
(** Switch the recorder's detail records on (spans and tracing-only
    instants) and start a new {!Export.chrome_trace} window. *)

val disable : t -> unit
val now : t -> float

val recorder : t -> Trace.Recorder.t
(** Where spans go; tracing-only instants are written to it directly
    as [Trace.Instant] records. *)

val metrics : t -> Metrics.t

val span :
  t -> name:string -> ?attrs:(string * Trace.value) list -> (unit -> 'a) -> 'a
(** Run [f] inside a named span. With tracing off this is exactly
    [f ()]. Spans nest; the [End] record is written even if [f]
    raises. *)

(** {2 Leveled stderr logging}

    Structured, virtual-time-stamped log lines. The default level is
    {!Quiet}, which emits nothing, so stderr stays byte-identical to a
    build without logging unless a run opts in (e.g. the CLI's
    [--log-level] flag). *)

type level = Quiet | Info | Debug

val set_log_level : t -> level -> unit
val log_level : t -> level
val level_of_string : string -> level option
val level_to_string : level -> string

val log : t -> level -> ('a, unit, string, unit) format4 -> 'a
(** [log t Info "attached %s" name] prints
    ["[vt <virtual-ns>] info  attached <name>"] to stderr when the
    tracer's level admits it; otherwise the format arguments are
    consumed and discarded. *)

module Export : sig
  val escape : string -> string
  (** The body of a JSON string literal: quote, backslash and control
      characters escaped. *)

  val chrome_trace : t -> string
  (** Chrome [trace_event] JSON (open in chrome://tracing or Perfetto)
      of the recorder's {!Trace.Recorder.stream}: spans as [B]/[E]
      pairs, boundary and detail instants as [i] events named by their
      recorder kind. Timestamps are virtual nanoseconds in the format's
      microsecond field, byte-stable across identical runs. *)

  val metrics_json : Metrics.t -> string
  (** Flat JSON snapshot: counters, gauges, histogram stats
      (count/mean/min/max/p50/p90/p95/p99/p999). Always valid JSON:
      non-finite stats are clamped to finite numbers. *)

  val num : float -> string
  (** Byte-stable, always-finite JSON number formatting. *)

  val histogram_stats_json : Metrics.histogram -> string
end
