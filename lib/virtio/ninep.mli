(** A virtio-9p-style host file-sharing device (device id 9).

    Stands in for QEMU's virtio-9p in the Fig. 6 file-IO comparison:
    instead of a block device, every file operation travels as a message
    through one virtqueue and is served against a *host-side* file
    system (with the host's own page cache in the path — the double
    caching that cripples qemu-9p's IOPS in the paper).

    The wire format is a simplified 9P: one request/response exchange
    per operation, path-addressed. *)

val device_id : int

type request =
  | Read of { path : string; off : int; len : int }
  | Write of { path : string; off : int; data : bytes }
  | Create of string
  | Stat of string

type response = { status : int; payload : bytes }

val encode_request : request -> bytes
val decode_request : bytes -> request option
val encode_response : response -> bytes
val decode_response : bytes -> response option

module Device : sig
  (** Host-side handler executing operations (over the host FS). *)
  type backend = { handle : request -> response }

  val backend_of_simplefs :
    clock:Hostos.Clock.t -> Blockdev.Simplefs.t -> backend
  (** The 9p server both qemu-9p and vmsh-9p run, over a SimpleFS tree.
      Every message charges [clock] 2 context switches, 4 syscalls and
      4 fs ops (path walk, open and I/O through the host's file
      system), and Read and Write add [max 1 ⌈len/4096⌉] page-cache
      hits: the double stack that costs qemu-9p its IOPS. Write creates
      a missing file; Create of an existing path succeeds. *)

  val process : Queue.Device.t -> Gmem.t -> backend -> int
  (** Serve every available request; returns the number served. *)
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
  (** Probe and allocate the request and response buffers. Guest code.
      Each message's latency (virtual ns) goes into ["<name>.<op>_ns"]
      on [obs]'s metrics, one histogram per message type (read, write,
      create, stat); with tracing on, a ["<name>.<op>"] instant carries
      [ns] only. *)

  val read : t -> path:string -> off:int -> len:int -> bytes Hostos.Errno.result
  val write : t -> path:string -> off:int -> bytes -> int Hostos.Errno.result
  val create : t -> path:string -> unit Hostos.Errno.result
  val stat_size : t -> path:string -> int Hostos.Errno.result
end
