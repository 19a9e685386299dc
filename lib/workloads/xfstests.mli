(** An xfstests-style correctness battery for the block/FS stack
    (paper §6.1).

    619 "quick-group" cases organised in families that probe distinct
    behaviours: block-boundary and indirection-threshold IO, truncation,
    rename/link/unlink semantics, directory structure, ENOSPC, crash-
    consistency via remount, metadata counters, fsync, plus the three
    quota-reporting cases (which fail on any file system without quota
    support — as they do on qemu-blk and vmsh-blk in the paper) and a
    sustained-load checksum test. A handful of cases require XFS-only
    features and are skipped, mirroring the "not applicable" skips of
    the real suite. *)

type outcome = Pass | Fail of string | Skip of string

type features = {
  quota : bool;  (** quota reporting available (native XFS: yes) *)
  xfs_attrs : bool;  (** XFS extended attributes *)
}

val native_features : features
val simplefs_features : features

type test = {
  id : string;  (** e.g. "generic/0042" *)
  group : string;
  run : Blockdev.Simplefs.t -> features -> outcome;
}

val all : unit -> test list
(** The full battery (619 cases). *)

type summary = {
  total : int;
  passed : int;
  failed : int;
  skipped : int;
  failures : (string * string) list;
}

val run_suite :
  make_fs:(unit -> Blockdev.Simplefs.t) ->
  ?in_ctx:((unit -> outcome) -> outcome) ->
  features -> summary
(** Run every case on a fresh file system from [make_fs]; [in_ctx] wraps
    each case's execution (e.g. [Vmm.in_guest] when the device under
    test lives behind VirtIO). *)
