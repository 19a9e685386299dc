(** Building file-system images from manifests.

    VMSH serves its tools to the guest as a block-device image holding a
    SimpleFS; this module packs a list of files (the "container image"
    of the guest overlay) into such an image, and can diff/strip
    manifests for the de-bloating experiment (§6.4). *)

type entry = {
  path : string;  (** absolute path inside the image *)
  size : int;  (** file size in bytes *)
  content : string option;
      (** explicit content; [None] fills [size] deterministic
          pseudo-random bytes (a stand-in for binaries) *)
}

type manifest = entry list

val file : ?content:string -> string -> int -> entry
(** [file path size] is a manifest entry. *)

val total_size : manifest -> int

val pack :
  ?extra_blocks:int -> ?clock:Hostos.Clock.t -> manifest ->
  (Backend.t * Simplefs.t) Hostos.Errno.result
(** Build a backend just large enough for the manifest (plus
    [extra_blocks] of headroom) and populate a SimpleFS with it —
    directories are created implicitly. *)

(** {1 Frozen images}

    An image every session serves unchanged is packed once and frozen;
    each user gets a copy-on-write {!instance} of it. An instance is
    indistinguishable from a fresh {!pack} of the same manifest: the
    same bytes, the same {!Backend.stats}, and the same charges on its
    clock — a pack charges only through its backend, one
    [Clock.device_op ~blocks:1] per block read, block write and flush,
    and an instance replays exactly that many. *)

type frozen
(** A packed image's bytes and its pack's backend statistics. *)

val freeze : manifest -> frozen Hostos.Errno.result
(** [freeze m] is {!pack}[ m] with no clock and the default headroom,
    frozen ([Hostos.Mem.freeze] of its backing) together with its
    backend stats. *)

val instance : clock:Hostos.Clock.t -> frozen -> Backend.t
(** A fresh backend over a {!Hostos.Mem.cow} view of the frozen bytes,
    its stats set to the pack's, its pack charges replayed on [clock].
    Writes and trims stay private to the instance; siblings and the
    frozen bytes never see them. *)

val strip : manifest -> keep:(string -> bool) -> manifest
(** Remove entries whose path the predicate rejects. *)

val synthetic_content : path:string -> int -> string
(** The deterministic filler used for [content = None] entries. *)
