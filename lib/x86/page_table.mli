(** Four-level x86-64 page tables encoded as real 8-byte entries.

    The tables live inside guest physical memory: [read_u64]/[write_u64]
    callbacks give access to that memory by physical address. The VMSH
    sideloader performs its guest-memory discovery by walking these
    structures exactly as the hardware (or a real introspection tool)
    would — starting from CR3, masking flag bits, indexing 9 bits per
    level — so bugs in table construction or interpretation are real
    bugs, not modelling artefacts. *)

type access = { read_u64 : int -> int; write_u64 : int -> int -> unit }
(** Physical-memory accessors used by the walker and builder. *)

(** Page-table entry flag bits (subset of the architectural layout; NX is
    omitted because simulation addresses are restricted to 62 bits). *)
module Flags : sig
  val present : int
  val writable : int
  val user : int
  val huge : int  (** in an L2 entry: maps a 2 MiB page *)

  val all : int
  (** Mask of all flag bits (low 12). *)
end

type alloc = unit -> int
(** Allocator returning the physical address of a fresh zeroed 4 KiB page
    for intermediate tables. *)

val entry : phys:int -> flags:int -> int
val entry_phys : int -> int
val entry_flags : int -> int
val is_present : int -> bool

val map_page :
  access -> alloc:alloc -> root:int -> virt:int -> phys:int -> flags:int -> unit
(** [map_page acc ~alloc ~root ~virt ~phys ~flags] installs a 4 KiB
    mapping in the table rooted at physical address [root], allocating
    intermediate levels as needed. [virt] and [phys] must be page
    aligned. *)

val map_range :
  access -> alloc:alloc -> root:int -> virt:int -> phys:int -> len:int ->
  flags:int -> unit
(** Map [len] bytes (rounded up to pages) contiguously. Uses 2 MiB huge
    pages when virt, phys and the remaining length are 2 MiB aligned. *)

val translate : access -> root:int -> int -> int option
(** [translate acc ~root va] walks the table and returns the physical
    address backing [va], or [None] if any level is non-present. *)

val iter_present :
  access -> root:int -> f:(virt:int -> phys:int -> huge:bool -> unit) -> unit
(** Enumerate every present leaf mapping (the primitive behind VMSH's
    kernel-location scan over the KASLR range). *)
