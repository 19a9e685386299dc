(** Split virtqueues (VirtIO 1.1 §2.6) serialized in guest memory.

    Layout per queue of size [qsz]:
    - descriptor table: [qsz] × 16 bytes — {addr: u64, len: u32,
      flags: u16, next: u16}
    - available ring: u16 flags, u16 idx, [qsz] × u16 ring
    - used ring: u16 flags, u16 idx, [qsz] × {u32 id, u32 len}

    Both halves operate on the same guest bytes through a {!Gmem.t}; the
    driver half additionally owns the free-descriptor list (driver-local
    state that never lives in shared memory, as in a real driver). *)

val desc_f_next : int
val desc_f_write : int

val bytes_needed : qsz:int -> int * int * int * int
(** [(desc_off, avail_off, used_off, total)] relative offsets for
    carving one queue's rings out of a contiguous allocation. *)

(** {1 Driver (guest) half} *)

module Driver : sig
  type t

  val create : Gmem.t -> qsz:int -> desc:int -> avail:int -> used:int -> t
  (** Attach to rings at the given guest-physical addresses and
      initialise indices to zero. *)

  val qsz : t -> int

  val rings : t -> int * int * int
  (** [(desc, avail, used)] guest-physical ring addresses — what an
      in-guest adversary knows about its own queues (the hostile-guest
      engine corrupts rings through this). *)

  val free_list : t -> int list
  (** The free descriptor indices, in the order {!add} takes them. *)

  val add :
    t -> out:(int * int) list -> in_:(int * int) list -> int option
  (** [add q ~out ~in_] links the device-readable [(addr, len)] buffers
      and device-writable ones into a descriptor chain, publishes it in
      the available ring and returns the chain head, or [None] when out
      of descriptors. *)

  val used_pending : t -> bool
  (** Whether the device published used elements we have not consumed.
      Pure read — safe inside parked-context predicates, where MMIO
      effects must not be performed. *)

  val poll_used : t -> (int * int) option
  (** Next unseen used element as [(head, written)]; frees the chain's
      descriptors, walking it from guest memory. The walk stops at an
      index that is out of range or already free, and the indices it
      freed go to the front of the free list, head last. A used element
      for a head not in flight is dropped. *)

  val completed : t -> head:int -> bool
  (** Whether a given chain head has been returned by the device
      (drains [poll_used] internally). *)

  val in_flight : t -> int
end

(** {1 Device (host) half} *)

module Device : sig
  type t

  (** One buffer of a request chain as the device sees it. *)
  type buffer = { addr : int; len : int; writable : bool }

  val create :
    ?torn:(unit -> bool) ->
    ?on_requeue:(unit -> unit) ->
    ?validate:(buffer -> bool) ->
    ?on_quarantine:(int -> unit) ->
    ?on_ring_reset:(unit -> unit) ->
    ?quarantine_limit:int ->
    Gmem.t ->
    qsz:int ->
    desc:int ->
    avail:int ->
    used:int ->
    t
  (** [torn] is polled once per {!pop} of a non-empty ring; when it
      returns [true] the ring-slot read is simulated as torn (a garbage
      head). [on_requeue] is called each time an invalid head forces a
      re-read of the slot.

      [validate] is the per-buffer bounds check (typically: the guest
      physical range is backed and the length sane). A chain with any
      buffer failing it — or whose [next] links loop, revisit a
      descriptor, or leave the table — is {e quarantined}: completed
      with [written = 0] (so a real-but-mutated request never hangs the
      driver), counted, and reported through [on_quarantine head].
      After [quarantine_limit] (default 8) quarantines the ring is
      gracefully reset — every pending entry drained, plausible heads
      completed empty, [on_ring_reset] fired — instead of crashing. *)

  val pop : t -> (int * buffer list) option
  (** Next available chain as [(head, buffers)], or [None] if the ring
      is empty. Out-of-range heads (torn or corrupt ring slots) are
      re-read once and skipped if still invalid — a chain is never built
      from an invalid descriptor index. Malformed or out-of-bounds
      chains are quarantined (see {!create}) and skipped. *)

  val read_chain_checked : t -> int -> buffer list * bool
  (** [read_chain_checked q head] walks the chain from [head] as {!pop}
      does: the buffers up to the first bad link, and whether there was
      one (a [next] that loops, revisits a descriptor or leaves the
      table). No bounds validation; exposed for tests. *)

  val push_used : t -> head:int -> written:int -> unit

  val quarantined : t -> int
  (** Chains quarantined over the device's lifetime. *)

  val ring_resets : t -> int
end
