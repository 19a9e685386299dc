(** Raw byte memory and virtual address spaces.

    A {!t} is a byte buffer (e.g. the physical memory of a guest, or an
    anonymous mmap region in a host process). An {!Addr_space.t} maps
    virtual address ranges onto offsets inside such buffers, exactly like
    the page-granular mappings of a host process: guest physical memory
    appears inside the hypervisor's address space through one of these
    mappings (paper, Fig. 3).

    Memory is sparse: {!create} and {!cow} build a per-4 KiB-page
    overlay over an immutable base, and a page becomes resident only on
    the first write that differs from its base. Because [t] is abstract
    and every mutation goes through this module, a page that was never
    materialised is equal to its base — all zeros for {!create} — by
    construction. {!page_digest} relies on that invariant. *)

type t
(** A contiguous byte buffer with little-endian accessors — a
    per-4KiB-page overlay over the all-zero base ({!create}) or over a
    frozen image ({!cow}), or a flat wrap of caller bytes
    ({!of_bytes}). *)

val create : int -> t
(** [create len] is [len] zero bytes, allocated sparsely: untouched
    pages read from one shared zero page; the first write that differs
    from zero materialises a private page, and a write of zeros onto an
    untouched page stays silent. Not a CoW buffer in the sense of
    {!is_cow}/{!cow_stats}. *)

val of_bytes : bytes -> t
(** A flat buffer over [bytes] itself (no copy, no overlay). *)

val length : t -> int

val page_size : int
(** Overlay granularity: 4096. *)

type page_digests
(** The per-page digests of one frozen base, computed on first use.
    Whoever owns the frozen image owns these and hands them to every
    {!cow} view of it. *)

val page_digests : bytes -> page_digests
(** An empty digest memo for [base]. *)

val cow : ?digests:page_digests -> bytes -> t
(** [cow base] is a copy-on-write view over the frozen [base]: reads
    fall through to [base]; the first write that *diverges* from the
    base copies that 4KiB page into a private overlay. Writing bytes
    identical to the base is recorded as a silent write and copies
    nothing, so a deterministic replay against the overlay stays fully
    shared. [base] must never be mutated while any view is alive. With
    [digests] (which must be [page_digests base]), {!page_digest} of a
    whole still-shared page is hashed once across all views; raises
    [Invalid_argument] for a memo of another base. *)

val freeze : t -> bytes
(** A private snapshot of the full current contents (base + overlay
    for overlay buffers) — the frozen image a {!cow} view forks from. *)

val page_digest : t -> int -> int -> Digest.t
(** [page_digest m off len] equals [Digest.bytes (read_bytes m off len)]
    without the copy: a range inside one page is hashed in place, a
    whole untouched page of a {!create}d buffer answers with a
    precomputed zero-page digest, and a whole still-shared page of a
    {!cow} view with [digests] answers from that memo. A materialised
    page is always hashed, even if it holds zeros or its base bytes
    again. *)

val resident_pages : t -> int
(** Pages held privately: the materialised pages of an overlay, every
    page of a flat buffer. *)

val is_cow : t -> bool
(** [true] only for {!cow} views over a baseline image. *)

(** Overlay occupancy counters of a {!cow} buffer. *)
type cow_stats = {
  cs_pages_total : int;  (** pages spanned by the buffer *)
  cs_pages_copied : int;  (** privately materialised pages *)
  cs_silent_writes : int;  (** writes that matched the base (no copy) *)
  cs_resident_bytes : int;  (** private overlay footprint in bytes *)
}

val cow_stats : t -> cow_stats option
(** [None] unless {!is_cow}: flat and zero-base buffers have no
    baseline to share. *)

val cow_reclaim : t -> int
(** Drop private overlay pages whose content re-converged with the
    shared base (e.g. page tables a fork's boot replay rebuilt
    byte-identically) so they stop counting as resident. Returns the
    number of pages reclaimed; 0 unless {!is_cow}. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_u64 : t -> int -> int
(** [read_u64 m off] reads 8 little-endian bytes as a non-negative OCaml
    int. The simulation restricts all stored values to 62 bits, so this
    cannot overflow. Raises [Invalid_argument] on a value with the two top
    bits set. *)

val write_u64 : t -> int -> int -> unit
val read_i32 : t -> int -> int
(** Sign-extending 32-bit read (for PREL32 relative references). *)

val write_i32 : t -> int -> int -> unit
val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit
val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
val fill : t -> int -> int -> char -> unit

val read_cstr : t -> int -> max:int -> string option
(** [read_cstr m off ~max] reads a NUL-terminated string of at most [max]
    bytes; [None] if no terminator is found within [max] bytes. *)

val write_cstr : t -> int -> string -> unit

module Addr_space : sig
  type mem = t

  (** One virtual mapping: [len] bytes at virtual address [base], backed
      by [backing] starting at [backing_off]. *)
  type mapping = {
    base : int;
    len : int;
    backing : mem;
    backing_off : int;
    tag : string;  (** human-readable origin, e.g. "guest-ram" or "mmap" *)
  }

  type t

  val create : unit -> t
  val mappings : t -> mapping list
  val map : t -> mapping -> unit
  (** Raises [Invalid_argument] if the range overlaps an existing one. *)

  val unmap : t -> base:int -> unit
  val find : t -> int -> mapping option
  (** Mapping containing the given virtual address, if any. *)

  val find_free : t -> hint:int -> len:int -> int
  (** A free virtual base of [len] bytes at or above [hint]. *)

  val resolve : t -> int -> (mem * int) option
  (** [resolve t va] is the backing buffer and offset for [va]. *)

  val read : t -> int -> int -> bytes
  (** [read t va len] reads across mapping boundaries. Raises
      [Invalid_argument] on an unmapped address. *)

  val write : t -> int -> bytes -> unit
  val read_u64 : t -> int -> int
  val write_u64 : t -> int -> int -> unit

  val cow_totals : t -> cow_stats
  (** Summed {!cow_stats} over every distinct CoW buffer mapped in
      this address space (zeros when none is mapped) — the overlay
      footprint of a forked process. *)

  val cow_reclaim_all : t -> int
  (** {!cow_reclaim} over every distinct CoW buffer mapped here;
      returns the total number of pages reclaimed. *)
end
