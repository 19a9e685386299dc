(** The guest-mutation journal: attach's undo log.

    Every side effect the attach pipeline performs on guest or
    hypervisor state is recorded as a named undo closure; {!replay}
    runs them newest-first, restoring the guest in reverse mutation
    order (DESIGN.md §4f tabulates mutation → undo entry → replay
    order). {!Attach.detach} and every abort path drive it.

    The log is kept small by {!note_owned} (writes wholly inside
    overlay-owned ranges are undone wholesale by the range's own
    teardown entry) and frozen by {!seal} once the attach commits:
    post-seal device writes only add their pages to {!late_writes},
    the snapshot oracle's exclusion set.

    Memory bound: the undo entries of one attach, plus one table entry
    per guest page written after the seal. *)

type t

val create : unit -> t

val record : t -> what:string -> (unit -> unit) -> unit
(** Push an undo entry (no-op once sealed). [what] names the mutation
    in rollback-failure reports and {!labels}. The closure should raise
    [Vmsh_error.Error] on failure. *)

val length : t -> int
val labels : t -> string list
(** Entry names, newest first (= replay order). *)

val seal : t -> unit
(** Commit the transaction: stop recording undo entries; subsequent
    {!note_late_write}s accumulate instead. *)

val sealed : t -> bool

val note_owned : t -> gpa:int -> len:int -> unit
(** Mark a guest-physical range the overlay allocated for itself; byte
    writes wholly inside it are exempt from journaling. *)

val owns : t -> gpa:int -> len:int -> bool

val note_late_write : t -> gpa:int -> len:int -> unit
(** Record the pages of a post-seal device write for the oracle's
    exclusion set. *)

val late_writes : t -> (int * int) list
(** Every page a post-seal write touched so far, as
    [(page_gpa, 4096)] intervals in ascending order. *)

val replay : ?metrics:Observe.Metrics.t -> t -> (unit, Vmsh_error.t) result
(** Run every undo newest-first and consume the log (an entry never
    replays twice). A failing undo does not stop the replay — later
    (older) entries still restore what they can — but the first failure
    is returned, wrapped in a [Context] naming the entry. When [metrics]
    is given and the log was non-empty, bumps [rollback.replays] and
    [rollback.entries] (registered lazily so fault-free runs stay
    byte-identical). *)
