(** The rollback oracle: snapshots of guest memory and vCPU registers.

    {!capture} takes a write-log mark ({!Hostos.Mem.mark}) on each
    memslot's backing and digests each vCPU's register file; it hashes
    no memory and costs no virtual time. {!diff} compares two snapshots
    modulo the pages the guest wrote in between and an exclusion
    interval set, proving that a detached or aborted attach restored
    the guest byte-for-byte; it hashes only the 4 KiB pages written
    since the earlier capture.

    Memory bound: a capture holds at most one page digest per guest
    page first written after it, plus one bit per guest page once the
    guest writes while it is the newest capture, for as long as the
    guest memory lives. *)

type t

val page_size : int

val capture : Kvm.Vm.t -> t

val dirty_since : Kvm.Vm.t -> t -> (int * int) list
(** The pages the guest itself has written ({!Kvm.Vm.write_phys})
    since the snapshot was captured, as [(page_gpa, page_size)]
    intervals in ascending order. Read from the write log's
    attribution bitmaps; the VM argument is not consulted. {!diff}
    already skips these pages, so this is for callers that report or
    check them. *)

val diff : before:t -> after:t -> exclude:(int * int) list -> string list
(** Every discrepancy, as human-readable lines in slot and page order;
    [[]] means clean. Checks memslot-set equality, per-page digests,
    and register files. Pages are compared at page granularity and
    skipped when the guest wrote them between the two captures (two
    captures of one buffer) or when any [exclude] interval, such as
    the journal's {!Journal.late_writes}, overlaps them. *)

val check : before:t -> after:t -> exclude:(int * int) list -> bool

val digest : t -> string
(** One hex digest over every page and register digest at the capture
    — equal iff the captured guest states are equal. Computed on
    demand: it hashes each materialised page not written since the
    capture. The replay-diff oracle compares this between a live run
    and its replay. *)
