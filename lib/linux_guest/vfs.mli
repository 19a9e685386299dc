(** The guest's virtual file system: mount tables with namespaces.

    Each mount namespace owns a mountpoint-to-filesystem table; paths
    resolve by longest-prefix match. VMSH's container overlay works by
    cloning a namespace, mounting its image as the new root and moving
    the original mounts under /var/lib/vmsh (§4.4) — all expressible
    with the operations here. *)

type fs =
  | Simple of Blockdev.Simplefs.t
  | Pseudo of (unit -> (string * string) list)
      (** generated read-only files, e.g. a /proc view: [(name, content)] *)

type mount = { mid : int; source : string; fs : fs }

type t

val create : unit -> t * int
(** The VFS and its initial (root) namespace id. *)

val new_namespace : t -> from:int -> int
(** Clone a namespace's mount table (CLONE_NEWNS). *)

val mounts : t -> ns:int -> (string * mount) list
(** (mountpoint, mount) pairs, longest mountpoint first. *)

val mount : t -> ns:int -> at:string -> source:string -> fs -> unit
val umount : t -> ns:int -> at:string -> unit Hostos.Errno.result

val move_mounts_under : t -> ns:int -> prefix:string -> unit
(** Re-prefix every mountpoint (the "/" mount moves to [prefix]
    itself) — the overlay's relocation of the original guest tree. *)

val resolve : t -> ns:int -> string -> (mount * string) option
(** The mount responsible for a path and the path relative to it. *)

(** {1 File operations (dispatched through the mount table)} *)

val read_file : t -> ns:int -> string -> bytes Hostos.Errno.result
val write_file : t -> ns:int -> string -> bytes -> unit Hostos.Errno.result
val read_at : t -> ns:int -> string -> off:int -> len:int -> bytes Hostos.Errno.result
val write_at : t -> ns:int -> string -> off:int -> bytes -> int Hostos.Errno.result
val exists : t -> ns:int -> string -> bool
val mkdir_p : t -> ns:int -> string -> unit Hostos.Errno.result
val unlink : t -> ns:int -> string -> unit Hostos.Errno.result
val readdir : t -> ns:int -> string -> string list Hostos.Errno.result
val stat_size : t -> ns:int -> string -> int Hostos.Errno.result
