(** VirtIO network device (device id 1): queue 0 receives, queue 1
    transmits, one Ethernet frame per descriptor chain behind a
    [hdr_size]-byte zeroed virtio-net header (no offloads negotiated).

    The device half bridges chains to raw frame bytes for a host-side
    network (see [Net] in lib/net); the driver half gives guest code
    frame-granular blocking send/recv over pre-posted receive buffers.
    The frame codec itself lives with the guest network stack — this
    layer moves opaque octets. *)

val device_id : int

val hdr_size : int
(** Bytes of virtio-net header preceding each frame on the wire. *)

val config : mac:int -> bytes
(** Device config space advertising the 48-bit station address. *)

module Device : sig
  val feed_rx : Queue.Device.t -> Gmem.t -> bytes -> bool
  (** Deliver one frame into the next posted receive chain. [false]
      when the guest has no buffer (frame dropped) or it was too
      small. *)

  val process_tx : Queue.Device.t -> Gmem.t -> sink:(bytes -> unit) -> int
  (** Drain pending transmit chains, passing each frame (header
      stripped) to [sink]; returns frames sent. *)
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
  (** Probe, read the MAC from config space and post the initial
      receive buffers. Guest code. Transmit latency (virtual ns) goes
      into ["<name>.tx_ns"] on [obs]'s metrics; with tracing on, a
      ["<name>.tx"] instant carries [ns] and [bytes]. *)

  val mac : t -> int
  (** The station address the device advertised. *)

  val send : t -> bytes -> unit
  (** Transmit one encoded frame, blocking until the device consumed
      the chain (and, in a synchronous fabric, until any immediate
      response has been delivered back into the receive ring). *)

  val rx_ready : t -> bool
  (** Effect-free: frames pending or completions ready. Safe inside a
      [Yield_until] predicate. *)

  val try_recv : t -> bytes option
  (** Drain the receive ring; pop the next whole frame if any. *)

  val recv : t -> bytes
  (** Blocking receive of one whole frame. *)
end
