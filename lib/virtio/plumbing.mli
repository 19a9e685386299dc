(** Virtqueue plumbing shared by the four device pairs (blk, console,
    net, 9p).

    Every side-loaded or emulated device here is an ordinary split-
    virtqueue device, so the steps that move one request are the same
    for all of them: the driver posts a chain, notifies the device and
    waits; the device pops the chain, gathers what the driver wrote,
    scatters its answer into the writable buffers and posts the chain
    used. Only the request codec differs per device. *)

(** {1 Driver (guest) half} *)

module Driver : sig
  val kick : Mmio.access -> queue:int -> unit
  (** Write [queue] to the queue-notify register. *)

  val submit :
    Mmio.access ->
    Queue.Driver.t ->
    queue:int ->
    out:(int * int) list ->
    in_:(int * int) list ->
    unit
  (** Post one chain (parking via [Yield_until] while the ring is
      full), kick [queue], and park until the device completed it. *)

  (** Where a driver records its per-request latency. *)
  type meter

  val meter : Observe.t -> name:string -> meter

  val measure : meter -> string -> bytes:int option -> (unit -> 'a) -> 'a
  (** [measure m op ~bytes f] runs [f] and records its virtual duration
      into the histogram ["<name>.<op>_ns"]; with tracing on, also a
      ["<name>.<op>"] instant with args [ns] and, when [bytes] is
      given, [bytes]. *)

  (** Pre-posted receive buffers on queue 0 (console and net). *)
  type rx_pool

  val rx_pool :
    Mmio.access -> Queue.Driver.t -> bufs:int array -> buf_size:int -> rx_pool
  (** Post every buffer in [bufs] (guest-physical addresses, each
      [buf_size] bytes), kicking queue 0 once per buffer. *)

  val post_rx : rx_pool -> int -> unit
  (** Post one receive buffer and kick queue 0. *)

  val drain_rx : rx_pool -> (int -> int -> unit) -> unit
  (** For every completed receive chain, call [f addr written] (with
      [written] clamped to the buffer size), then repost the buffer. *)

  val rx_pending : rx_pool -> bool
  (** Effect-free: completions are waiting. Safe inside a
      [Yield_until] predicate. *)
end

(** {1 Device (host) half} *)

module Device : sig
  val serve_one :
    Queue.Device.t -> (Queue.Device.buffer list -> int) -> int option
  (** Pop the next available chain, serve it with [f] (which returns
      the bytes it wrote into the chain) and post it used with that
      length. [None] when the ring is empty. *)

  val serve : Queue.Device.t -> (Queue.Device.buffer list -> int) -> int
  (** {!serve_one} until the ring is empty; returns the chains served. *)

  val readable_len : Queue.Device.buffer list -> int
  (** The summed length of the chain's readable buffers. *)

  val gather_into : Gmem.t -> Queue.Device.buffer list -> bytes -> int
  (** [gather_into g chain dst] copies the chain's readable buffers, in
      chain order and one read each, to consecutive bytes of [dst] from
      offset 0, and returns {!readable_len}. [dst] must hold that
      many. *)

  val gather : Gmem.t -> Queue.Device.buffer list -> bytes
  (** {!gather_into} a fresh buffer of exactly {!readable_len} bytes. *)

  val scatter : Gmem.t -> Queue.Device.buffer list -> bytes -> len:int -> int
  (** [scatter g chain src ~len] writes the first [len] bytes of [src]
      into the chain's writable buffers in order, [min len remaining]
      bytes each, straight from [src], and returns the bytes
      written. *)
end
