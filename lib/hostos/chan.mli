(** Unidirectional in-memory byte channel (pipe / socket buffer). *)

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] makes an empty channel. [capacity] bounds the
    number of buffered bytes (default 64 KiB); writes beyond it fail with
    [EAGAIN] as a non-blocking pipe would. *)

val write : t -> bytes -> int Errno.result
(** Append bytes; returns the number accepted. *)

val read : t -> int -> bytes Errno.result
(** [read t len] removes and returns up to [len] buffered bytes;
    [Error EAGAIN] when empty. *)

val available : t -> int
val close : t -> unit
