(** The block-device interface: what a file system mounts on.

    A record of closures so the same file-system code runs over an
    in-memory backend on the host, over the qemu-blk VirtIO device, or
    over VMSH's vmsh-blk device inside the guest — the substitution at
    the heart of the paper's robustness experiment (§6.1). *)

type t = {
  block_size : int;
  blocks : int;
  read_block : int -> bytes;
  (** [read_block i] returns exactly [block_size] bytes. *)
  write_block : int -> bytes -> unit;
  read_into : int -> bytes -> int -> unit;
  (** [read_into i dst off] is [read_block i] copied into [dst] at
      [off], without allocating a block buffer. *)
  write_from : int -> bytes -> int -> unit;
  (** [write_from i src off] is [write_block i] of the [block_size]
      bytes of [src] at [off], without a sub-buffer. *)
  flush : unit -> unit;  (** barrier / FUA; devices count these *)
  trim : int -> int -> unit;  (** [trim first count] discards blocks *)
}

val block_size : int
(** The simulation-wide block size (4096). *)

val make :
  block_size:int ->
  blocks:int ->
  read_block:(int -> bytes) ->
  write_block:(int -> bytes -> unit) ->
  flush:(unit -> unit) ->
  trim:(int -> int -> unit) ->
  t
(** A device from its block operations alone; [read_into] and
    [write_from] copy through [read_block] and [write_block]. *)

val size_bytes : t -> int

val read_range_into : t -> off:int -> bytes -> len:int -> unit
(** [read_range_into t ~off dst ~len] copies [len] bytes at byte offset
    [off] into [dst] from its start: whole blocks through [read_into],
    the partial edges through [read_block]. *)

val read_range : t -> off:int -> len:int -> bytes
(** {!read_range_into} a fresh buffer. *)

val write_range : t -> off:int -> bytes -> len:int -> unit
(** [write_range t ~off src ~len] writes the first [len] bytes of [src]
    at byte offset [off]: whole blocks through [write_from], the
    partial edges as a read-modify-write of the block. *)

val observe : Observe.t -> name:string -> t -> t
(** A transparent wrapper recording per-block-operation latency
    (virtual ns) into histograms ["<name>.read_ns"], ["<name>.write_ns"]
    and ["<name>.flush_ns"] on the tracer's metrics registry. *)

val sub : t -> first_block:int -> blocks:int -> t
(** A window onto a contiguous range of an existing device (partition).
    Block [i] is the parent's block [first_block + i]; an [i] outside
    [\[0, blocks)] raises [Invalid_argument], and a trim is clamped to
    the window. *)
