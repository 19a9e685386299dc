(** The guest's page cache, interposed between a file system and its
    block device.

    Buffered reads that hit the cache cost a memory-speed copy; misses
    go to the device (and through the whole VirtIO path). Writes are
    write-back: they dirty cache blocks and only reach the device on
    eviction or flush. [bypass] models O_DIRECT, which is what makes the
    paper's fio direct-IO results so much worse than the page-cache-
    friendly Phoronix workloads (§6.3). *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

type t

val create : clock:Hostos.Clock.t -> capacity_blocks:int -> t
val stats : t -> stats

val wrap :
  ?bulk_read:(first:int -> count:int -> bytes) ->
  t -> dev_id:int -> Blockdev.Dev.t -> Blockdev.Dev.t
(** A cached view of [dev]; blocks are keyed by [(dev_id, block)].
    When [bulk_read] is given (e.g. a VirtIO driver's multi-sector
    read), a miss fetches the whole readahead window in one device
    request — the mechanism that lets buffered sequential file IO
    approach raw device IOPS. The view's [read_into] and [write_from]
    move a hit in one blit between the caller's buffer and the cached
    block; [read_block] and [write_block] go through them. *)

val flush : t -> unit
(** Write back every dirty block (fsync / unmount). *)

val drop : t -> unit
(** Write back and forget everything (echo 3 > drop_caches). *)

val bypass : t -> (unit -> 'a) -> 'a
(** Run with O_DIRECT semantics: reads and writes inside go straight to
    the device; writes invalidate overlapping cache entries and reads
    see dirty cached data first (coherence). *)
