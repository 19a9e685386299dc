(** VirtIO block device (device id 2): request codec, device-side
    processing, and the guest driver.

    Request layout per the spec: a 16-byte read-only header {type: u32,
    reserved: u32, sector: u64}, data buffers, and a trailing 1-byte
    device-writable status. Sectors are 512 bytes. *)

val device_id : int
val sector_size : int
val sectors_per_block : int

val t_in : int  (** read from device *)

val t_out : int  (** write to device *)

val t_flush : int
val t_discard : int
val status_ok : int
val status_ioerr : int
val status_unsupp : int

module Device : sig
  (** What the device does with sectors — the storage behind it. Data
      moves between the storage and the first [len] bytes of the
      device's payload buffer. *)
  type backend = {
    capacity_sectors : int;
    read_into : sector:int -> bytes -> len:int -> unit;
    write_from : sector:int -> bytes -> len:int -> unit;
    flush : unit -> unit;
    discard : sector:int -> len:int -> unit;
  }

  val backend_of_blockdev : Blockdev.Dev.t -> backend
  (** Serve a host block device (or packed image) through
      {!Blockdev.Dev.read_range_into} and {!Blockdev.Dev.write_range}. *)

  (** A device: its backend and the buffer every request's data moves
      through. *)
  type t

  val create : backend -> t
  (** The payload buffer is allocated at the first request and reused
      by every later one. It doubles from 4 KiB, up to 256 KiB (the
      largest request the driver posts), when a request needs more. A
      chain whose data is longer, which only a hostile driver posts,
      gets a transient buffer of its own size. *)

  val config : capacity_sectors:int -> bytes
  (** Device config space (capacity at offset 0). *)

  val process : Queue.Device.t -> Gmem.t -> t -> int
  (** Drain the available ring: execute every pending request, post used
      entries. Returns the number of requests completed (caller raises
      the interrupt if positive). A read is copied from the backend
      into the payload buffer and scattered from it; a write is
      gathered into it and handed to the backend. A header descriptor
      shorter than 16 bytes is malformed (completed with [written = 0]
      and no status); a discard segment shorter than 16 bytes completes
      with [status_ioerr]. *)
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
  (** Probe the transport, set up queue 0 and the DMA slot pool, read
      the capacity from config space. Runs as guest code. Each request's
      latency (queue-in to completion, virtual ns) goes into
      ["<name>.read_ns"], ["<name>.write_ns"], ["<name>.flush_ns"] or
      ["<name>.discard_ns"] on [obs]'s metrics; with tracing on, a
      ["<name>.<op>"] instant carries [ns] and [bytes]. *)

  val capacity_sectors : t -> int

  val queue : t -> Queue.Driver.t
  (** The request queue — exposed so an in-guest adversary (the
      hostile-guest engine) can reach its own ring addresses. *)

  val read : t -> sector:int -> len:int -> bytes
  (** Issue one request (up to 256 KiB); blocks the calling guest
      context via [Yield_until] until completion. *)

  val write : t -> sector:int -> bytes -> unit
  val flush : t -> unit
  val discard : t -> sector:int -> count:int -> unit

  val to_blockdev : t -> Blockdev.Dev.t
  (** 4 KiB block-device view for mounting a file system on top. *)
end
