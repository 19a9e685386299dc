(** SimpleFS: a block-backed inode file system.

    The stand-in for XFS in the paper's robustness experiment: every
    operation translates to genuine block reads/writes on a {!Dev.t}, so
    mounting it over qemu-blk or vmsh-blk exercises the full VirtIO data
    path. On-disk layout: superblock, block bitmap, inode table, data
    blocks; inodes address 12 direct, one indirect and one
    double-indirect block (max file size ~1 GiB at 4 KiB blocks).

    Quotas are intentionally not implemented: the three xfstests quota-
    reporting cases fail here exactly as they do in the paper (§6.1, on
    both qemu-blk and vmsh-blk).

    Operations are not atomic against each other: a device op can park
    the guest task that issued it, and a second task running an
    operation on the same file system meanwhile can lose a directory
    entry or take the same free block (each buffer keeps its own bytes,
    nothing more). No shipped workload runs two guest tasks on one file
    system at once. *)

type t
type ino = int

type kind = File | Dir | Symlink

type stat = {
  st_ino : ino;
  st_kind : kind;
  st_size : int;
  st_nlink : int;
  st_mode : int;
  st_uid : int;
  st_gid : int;
  st_mtime : int;
}

type statfs = {
  f_blocks : int;
  f_bfree : int;
  f_inodes : int;
  f_ifree : int;
}

(** {1 Formatting and mounting} *)

val mkfs : Dev.t -> ?inodes:int -> unit -> t Hostos.Errno.result
(** Format the device and return a mounted handle. Fails with [EINVAL]
    if the device is too small for the metadata. *)

val mount : Dev.t -> t Hostos.Errno.result
(** Fails with [EINVAL] on a bad superblock magic. *)

val sync : t -> unit
(** Persist in-memory allocation counters to the superblock and issue a
    device flush. *)

val root : t -> ino

val device : t -> Dev.t
(** The block device this file system is mounted on. *)

(** {1 Namespace operations (absolute paths, '/'-separated)} *)

val lookup : t -> string -> ino Hostos.Errno.result
val create : t -> ?mode:int -> string -> ino Hostos.Errno.result
val mkdir : t -> ?mode:int -> string -> ino Hostos.Errno.result

(** [mkdir_p] creates a directory and any missing ancestors. *)
val mkdir_p : t -> string -> unit Hostos.Errno.result
val symlink : t -> target:string -> string -> ino Hostos.Errno.result
val readlink : t -> string -> string Hostos.Errno.result
val hardlink : t -> existing:string -> string -> unit Hostos.Errno.result
val unlink : t -> string -> unit Hostos.Errno.result
val rmdir : t -> string -> unit Hostos.Errno.result
val rename : t -> src:string -> dst:string -> unit Hostos.Errno.result
val readdir : t -> string -> (string * ino) list Hostos.Errno.result
val stat : t -> string -> stat Hostos.Errno.result
val statfs : t -> statfs
val exists : t -> string -> bool

(** {1 File data} *)

val read : t -> ino -> off:int -> len:int -> bytes Hostos.Errno.result
(** Short reads at EOF; sparse holes read as zeros. *)

val write : t -> ino -> off:int -> bytes -> int Hostos.Errno.result
(** Extends the file as needed; [ENOSPC] when blocks run out. *)

val truncate : t -> string -> int -> unit Hostos.Errno.result
val fsync : t -> ino -> unit
val read_file : t -> string -> bytes Hostos.Errno.result
val write_file : t -> string -> bytes -> unit Hostos.Errno.result
(** Create-or-replace convenience. *)

val chmod : t -> string -> int -> unit Hostos.Errno.result
val chown : t -> string -> uid:int -> gid:int -> unit Hostos.Errno.result
val set_mtime : t -> string -> int -> unit Hostos.Errno.result

(** {1 Unsupported features} *)

val quota_report : t -> string Hostos.Errno.result
(** Always [Error ENOSYS] — see the module preamble. *)
