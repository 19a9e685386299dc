(** The rollback oracle: snapshots of guest memory and vCPU registers.

    {!capture} takes a write-log mark ({!Hostos.Mem.mark}) on each
    memslot's backing and digests each vCPU's register file; it hashes
    no memory and costs no virtual time. {!diff} compares two snapshots
    modulo an exclusion interval set, proving that a detached or
    aborted attach restored the guest byte-for-byte; it hashes only the
    4 KiB pages written since the earlier capture.

    Memory bound: a capture holds at most one page digest per guest
    page first written after it, for as long as the guest memory
    lives. *)

type t

val page_size : int

val capture : Kvm.Vm.t -> t

val dirty_since : Kvm.Vm.t -> t -> (int * int) list
(** Intervals the guest itself has written since the snapshot was
    captured — the legitimate mutations the oracle must not blame on
    VMSH. Union these with the journal's {!Journal.late_writes} as the
    [exclude] argument to {!diff}. *)

val diff : before:t -> after:t -> exclude:(int * int) list -> string list
(** Every discrepancy, as human-readable lines in slot and page order;
    [[]] means clean. Checks memslot-set equality, per-page digests
    outside the excluded pages (page-granular), and register files. *)

val check : before:t -> after:t -> exclude:(int * int) list -> bool

val digest : t -> string
(** One hex digest over every page and register digest at the capture
    — equal iff the captured guest states are equal. Computed on
    demand: it hashes each materialised page not written since the
    capture. The replay-diff oracle compares this between a live run
    and its replay. *)
