(** Raw byte memory and virtual address spaces.

    A {!t} is a byte buffer (e.g. the physical memory of a guest, or an
    anonymous mmap region in a host process). An {!Addr_space.t} maps
    virtual address ranges onto offsets inside such buffers, exactly like
    the page-granular mappings of a host process: guest physical memory
    appears inside the hypervisor's address space through one of these
    mappings (paper, Fig. 3).

    Memory is sparse: every {!t} is a per-4 KiB-page overlay over an
    immutable {!frozen} image, and a page becomes resident only on the
    first write that differs from its base, or, for a {!generate}d
    page, on the first write, digest, log or scalar read; a byte-range
    read of a generated page runs its generator straight into the
    caller's bytes and leaves the page generated. Because [t] and
    [frozen] are abstract and every mutation goes through this module,
    a page that was never materialised is equal to its base page — all
    zeros for {!create} — or to its generator's bytes, by construction.
    {!page_digest} relies on that invariant, and the write log
    ({!mark}) relies on a second one: every mutation passes the log
    hook before the bytes change. Plain [bytes] are never a buffer:
    {!read_into} and {!write_from} copy between a caller's bytes and a
    buffer. *)

type t
(** A contiguous byte buffer with little-endian accessors — a
    per-4KiB-page overlay over the all-zero image ({!create}) or over a
    {!frozen} one ({!cow}). *)

type frozen
(** An immutable image: a length and one slot per 4 KiB page, each
    either the one shared zero page (a page never written, or all
    zeros) or a page of its own that nothing ever writes. It costs its
    non-zero pages, not its length, and carries each page's digest once
    computed, shared by every {!cow} view of it. *)

val create : int -> t
(** [create len] is [len] zero bytes: an overlay over the all-zero
    image, which holds no page, so the buffer allocates only its own
    page array. The first write that differs from zero materialises a
    private page, and a write of zeros onto an untouched page stays
    silent (the test reads only the written bytes, never a zero page).
    Not a CoW buffer in the sense of {!is_cow}/{!cow_stats}. *)

val cow : frozen -> t
(** [cow f] is a copy-on-write view over [f]: reads fall through to
    [f]'s pages; the first write that *diverges* from the base copies
    that 4KiB page into a private overlay. Writing bytes identical to
    the base is recorded as a silent write and copies nothing, so a
    deterministic replay against the overlay stays fully shared. *)

val freeze : t -> frozen
(** The frozen image of the buffer's current bytes. Base pages are
    shared, private pages copied, all-zero pages folded into the zero
    page, and a {!generate}d page's generator is run once into a page
    of the image's own (an image keeps no generator). Later writes to
    the buffer never show in the image. *)

val of_pages : int -> (int * bytes) list -> frozen
(** [of_pages len pages] is the image of [len] bytes holding each
    [(i, p)]'s [p] as page [i] and zeros elsewhere. It keeps the given
    bytes without copying them: the caller must never write them
    again. Raises [Invalid_argument], naming the page, for an index
    outside the image, a page whose length is not its slot's
    ([page_size], less for a short last page) or an index given
    twice. *)

val frozen_pages : frozen -> (int * bytes) list
(** The image's pages that are not all zeros, in ascending order, as
    fresh copies: what {!of_pages} rebuilds it from. *)

val frozen_length : frozen -> int

val length : t -> int

val page_size : int
(** Overlay granularity: 4096. *)

val generate :
  t -> off:int -> len:int ->
  (pos:int -> bytes -> off:int -> len:int -> unit) -> unit
(** [generate m ~off ~len f] makes the range \[[off], [off + len]) of a
    {!create}d buffer hold [f]'s bytes: byte [off + k] reads as the byte
    [f ~pos:k dst ~off:o ~len:n] writes to [dst.(o)] when [pos <= k <
    pos + n]. Nothing is materialised by the call; each page of the
    range is materialised from [f] the first time anything writes,
    digests, logs or scalar-reads it, so it behaves exactly as if the
    bytes had been written. A byte-range read ({!read_bytes}, {!blit},
    {!read_into}, {!Addr_space.read_into}) of a page still generated calls [f] into
    the destination instead and materialises nothing, so each such
    read runs [f] again. [f] must be deterministic and is kept until the
    buffer dies. The call counts as a write for the write log. Raises
    [Invalid_argument] on a {!cow} buffer, on a range
    outside the buffer, or on one that does not start on a page
    boundary and end on one or at the buffer's end. *)

val page_digest : t -> int -> int -> Digest.t
(** [page_digest m off len] equals [Digest.bytes (read_bytes m off len)]
    without the copy: a range inside one page is hashed in place, a
    whole untouched zero page answers with a precomputed digest, and a
    whole untouched page of a {!frozen} image with the image's memo,
    hashed once across all its views. A materialised page is always
    hashed, even if it holds zeros or its base bytes again. *)

(** {1 Write log}

    A mark records nothing when it is taken. Each page's first write
    after a mark stores the page's digest at the mark, before the bytes
    change; a page never written since a mark still holds its content
    at the mark. So comparing a buffer at two marks costs one digest
    per page written in between.

    The log also answers {i who} wrote a page, for one writer the
    caller singles out (the guest, through [Kvm.Vm.write_phys]): each
    {!attribute}d write sets the page's bit in the newest mark's
    bitmap, as KVM's [KVM_GET_DIRTY_LOG] does.

    Memory bound: a buffer's first mark allocates one [int] per page;
    each mark then holds at most one digest per page first written
    after it, plus one bit per page of the buffer from its first
    attributed write on, and lives as long as its buffer. *)

type mark
(** One point in a buffer's write history. *)

val mark : t -> mark
(** [mark m] starts logging [m]'s writes from now on. *)

val marked : mark -> t
(** The buffer the mark was taken on. *)

val digest_at : mark -> int -> Digest.t
(** [digest_at k i] is the digest page [i] held when [k] was taken
    ([Digest.bytes] of the page's [page_size] bytes, fewer for a short
    last page). Hashes only a materialised page never written since. *)

val iter_written : mark -> mark -> first:int -> count:int -> (int -> unit) -> unit
(** [iter_written a b ~first ~count f] calls [f i], in ascending
    order, for every page [i] in \[[first], [first + count]) written
    since the earlier of the two marks; every other page in the window
    held the same bytes at both. Raises [Invalid_argument] for marks of
    two buffers. *)

val attribute : t -> int -> int -> unit
(** [attribute m off len] records every page overlapping
    \[[off], [off + len]) as written by the attributed writer, whether
    or not the write changes its bytes. Call it for each such write;
    it does not write. Records nothing before [m]'s first mark. Raises
    [Invalid_argument] for a range outside the buffer. *)

val iter_attributed :
  ?until:mark -> mark -> first:int -> count:int -> (int -> unit) -> unit
(** [iter_attributed k ~first ~count f] calls [f i], once each and in
    ascending order, for every page [i] in \[[first], [first + count])
    {!attribute}d since [k] was taken. With [until], only those
    attributed between the two marks, whichever is older. Reads one bit
    per page of each mark in between, never the pages. Raises
    [Invalid_argument] for marks of two buffers. *)

val resident_pages : t -> int
(** Pages held privately: the materialised pages (a {!generate}d page
    counts once it has been written, digested, logged or scalar-read;
    byte-range reads leave it out). *)

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
(** [None] unless {!is_cow}: a zero-base buffer has no baseline to
    share. *)

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
val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit

val read_into : t -> int -> bytes -> int -> int -> unit
(** [read_into m off dst doff len] copies [len] bytes at [off] into
    [dst] at [doff], allocating nothing. Raises [Invalid_argument] when
    either range is out of bounds. *)

val write_from : t -> int -> bytes -> int -> int -> unit
(** [write_from m off src soff len] copies [len] bytes of [src] from
    [soff] to [off], page by page like every write: a page it leaves
    equal to its base stays shared. Raises [Invalid_argument] when
    either range is out of bounds. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy between two buffers (the same one allowed), through a
    temporary. *)
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

  val read_into : t -> int -> bytes -> int -> int -> unit
  (** [read_into t va dst off len] copies [len] bytes at [va], across
      mapping boundaries, into [dst] at [off]. Raises
      [Invalid_argument] on an unmapped address. *)

  val write_from : t -> int -> bytes -> int -> int -> unit
  (** [write_from t va src off len] copies [len] bytes of [src] at
      [off] to [va]. Mappings before an unmapped address are written
      before it raises [Invalid_argument]. *)

  val read : t -> int -> int -> bytes
  (** {!read_into} a fresh buffer. *)

  val write : t -> int -> bytes -> unit
  (** {!write_from} all of a buffer. *)

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
