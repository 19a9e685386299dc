(** VirtIO console device (device id 3): queue 0 receives (device to
    guest), queue 1 transmits (guest to device).

    The device half shuttles bytes between the virtqueues and a pair of
    host byte channels (one end of VMSH's pseudo-terminal); the driver
    half gives guest code blocking [read_line]/[write] primitives. *)

val device_id : int

module Device : sig
  val process_tx : Queue.Device.t -> Gmem.t -> sink:(bytes -> unit) -> int
  (** Drain guest transmissions into [sink]; returns chains completed. *)

  val feed_rx : Queue.Device.t -> Gmem.t -> bytes -> int
  (** Copy host input into posted guest receive buffers; returns the
      number of bytes delivered (0 if the guest posted no buffers). *)
end

module Driver : sig
  type t

  val init :
    obs:Observe.t ->
    name:string ->
    gmem:Gmem.t ->
    access:Mmio.access ->
    alloc:(size:int -> int) ->
    (t, string) result
  (** Probe and post the initial receive buffers. Guest code. Transmit
      latency (virtual ns) goes into ["<name>.tx_ns"] on [obs]'s
      metrics; with tracing on, a ["<name>.tx"] instant carries [ns]
      and [bytes]. *)

  val write : t -> bytes -> unit
  (** Transmit, blocking until the device consumed the buffer. *)

  val read_line : t -> string
  (** Block (via [Yield_until]) until a full '\n'-terminated line
      arrived, and return it without the terminator. *)
end
