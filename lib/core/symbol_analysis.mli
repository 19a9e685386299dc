(** The binary analysis that recovers the guest kernel's layout
    (paper §4.2).

    Starting from nothing but CR3, the analyzer: walks the guest's page
    tables to find the lowest mapping inside the fixed KASLR region (the
    kernel image base); copies the image out through the hypervisor;
    locates the [.ksymtab_strings] section by scanning for a region of
    NUL-separated names around a known anchor symbol; then searches for
    the [.ksymtab] entry table by trying all known layout epochs *in
    parallel* and keeping the candidate whose entries consistently
    reference string starts (the paper's consistency check); finally
    reads [linux_banner] to learn the kernel version. *)

(** Image-relative locations of the two scanned sections — re-read at
    use time to catch a guest that mutates them after the scan. *)
type witness = {
  w_table_off : int;  (** ksymtab table start, image offset *)
  w_strings_lo : int;  (** strings region, image offsets [lo, hi) *)
  w_strings_hi : int;
}

type analysis = {
  kernel_base : int;  (** virtual base chosen by KASLR *)
  image_len : int;  (** contiguously mapped bytes copied for analysis *)
  layout : Linux_guest.Kernel_version.ksymtab_layout;
  symbols : (string * int) list;  (** exported name -> virtual address *)
  version : Linux_guest.Kernel_version.t;
  witness : witness;
}

val anchor_symbol : string
(** The symbol name whose presence anchors the strings-section scan. *)

val find_kernel_base : Hyp_mem.t -> cr3:int -> (int * int, string) result
(** [(base, mapped_len)] of the kernel image within the KASLR range. *)

type scan
(** What one streamed pass over a kernel image finds, and the few
    windows of it that {!strings_region} and {!tables} read. *)

val scan_image : ?window:int -> Bytes.t -> kbase:int -> scan
(** [scan_image img ~kbase] feeds [img] (mapped at [kbase]) to the
    streamed scan an uncached {!analyze} runs, in windows of [window]
    bytes (default a page; a positive multiple of 8, else
    [Invalid_argument]), each copied into one of the scan's buffers. A
    C kernel lists each window's anchor candidates (a NUL followed by
    ['p']) and the aligned 8-byte slots whose word is not zero and
    whose top byte suits some layout, in ascending order; built with
    GCC or clang for x86-64, it takes 32 bytes a step with AVX2 on a CPU
    that has it, and runs a scalar loop elsewhere. Each candidate gets
    the one 64-bit compare with ["\000printk\000"]; each slot keeps
    the layouts whose entry fits and whose value points into the image,
    with its two words. The scan keeps a window only while the current
    run of NUL-or-printable bytes, the widest strings region so far or
    the bytes up to the NUL that ends that region's last name reach
    into it; all-zero windows share one page. *)

val portable_scan_image : ?window:int -> Bytes.t -> kbase:int -> scan
(** {!scan_image} through the scalar kernel, whichever kernel this CPU
    runs for {!scan_image}; the two find the same events. It exists so
    the unit suite can check both kernels on one machine. *)

val strings_region : scan -> (int * int, string) result
(** The [.ksymtab_strings] region of the scanned image, as image offsets
    [(lo, hi)]: every ["\000printk\000"] match is widened to the
    maximal span of NUL-separated printable names around it, and the
    widest span wins (the first of equally wide ones). *)

val tables :
  scan ->
  (Linux_guest.Kernel_version.ksymtab_layout * int * (string * int) list) list
(** [tables scan] is, for each layout, the longest run of entries whose
    values point into the image and whose name pointers land on string
    starts inside the scan's {!strings_region}. One triple per layout,
    in the order absolute (value first), absolute (name first), PREL32:
    the layout, the run's image offset and its (name, value) pairs —
    [(0, [])] when no entry is valid or the scan found no region.
    Starts are tried every 8 bytes; the first of equally long runs
    wins, and the search resumes past each new best run. Every valid
    entry passes the scan's slot filter, so only the scan's slots whose
    name pointers land on string starts are visited. *)

(** Memoization across attaches to identically-built kernels, keyed by
    the build-id note found in the image's first page. A hit skips the
    full image copy and both section scans (only the page-table walk
    and an offset rebase remain); counters [symcache.hits] /
    [symcache.misses] are bumped on the analyzed host's registry when a
    cache is supplied. *)
module Cache : sig
  type t

  val create : unit -> t
end

val analyze : ?cache:Cache.t -> Hyp_mem.t -> cr3:int -> (analysis, string) result
(** Without [cache] (the default) behaviour is exactly the uncached
    analysis — byte-identical traces for existing single-attach runs. *)

val resolve : analysis -> string -> int option
(** Look up an exported symbol's address. *)

val revalidate :
  ?names:string list -> Hyp_mem.t -> cr3:int -> analysis ->
  (unit, string) result
(** Use-time TOCTOU check: bounds-recheck the witness, re-read the
    ksymtab table and strings region from the live guest, re-derive the
    live (name, value) pairs with the analysis's layout and compare by
    name against {!analysis.symbols}. [?names] restricts the check to
    the symbols the caller is about to rely on — the right scope for a
    cache-hit analysis, where filler exports and table order
    legitimately differ between VMs of one build while the used
    symbols' layout offsets do not. [Error] names the first divergence:
    a symbol that moved or vanished, or scanned pages the guest
    ballooned away. Pure reads. *)
