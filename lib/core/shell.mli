(** The interactive shell served from VMSH's file-system image.

    Runs as guest code inside the overlay's mount namespace: every file
    it touches resolves through the overlay (its own image at [/], the
    original guest tree under [/var/lib/vmsh]). The command set covers
    the paper's use cases: inspection (ls/cat/ps/mounts/dmesg), repair
    (write/chpasswd — use case #2) and package auditing (pkg-list —
    use case #3). *)

val overlay_prefix : string
(** Where the original guest mounts are moved: "/var/lib/vmsh". *)

val prompt : string
(** ["vmsh> "], written when the shell waits for the next command, so
    every reply on the console ends with it. *)

val exec : Linux_guest.Guest.t -> Linux_guest.Gproc.t -> string -> string
(** Execute one command line and return its output (always newline-
    terminated for non-empty output). Unknown commands report an
    error. Runs as guest code. *)

val run :
  Linux_guest.Guest.t -> Linux_guest.Gproc.t ->
  Virtio.Console.Driver.t -> unit
(** The interactive loop: banner, prompt, read-eval-print until "exit".
    Blocks on console input via [Yield_until]. *)

val mkpasswd : user:string -> password:string -> string
(** The shadow-file line chpasswd writes (deterministic digest). *)
