(** The container-based guest overlay (paper §4.4) and the guest
    userspace program that builds it.

    The program is what the side-loaded library writes to disk and
    executes inside the guest. It mounts VMSH's file-system image as the
    root of a fresh mount namespace, moves every original mount under
    /var/lib/vmsh (so the guest tree stays reachable but cannot be
    clobbered by accident), applies the credentials/namespace/cgroup
    context of a target container when attaching to one, and finally
    runs the interactive shell on VMSH's console. *)

type cfg = {
  container_pid : int option;
      (** attach into this guest process's container context *)
  command : string option;
      (** run one command and exit instead of the interactive shell *)
}

val default_cfg : cfg

val program_bytes : cfg -> bytes
(** The serialized guest program "binary" the side-loaded library writes
    to disk: a [#!vmsh-guest-program v1] line, then the configuration.
    This module registers the interpreter for that first line with
    {!Linux_guest.Guest.register_interpreter} once, when it initialises;
    the interpreter reads the configuration back with
    {!cfg_of_program}. *)

val cfg_of_program : bytes -> cfg option
(** The configuration {!program_bytes} encoded ([None] for anything
    else). Only an absent field is encoded as ["-"]: a command that
    starts with ['-'] or ['\\'] is written with one more ['\\'] in
    front, and every command reads back as itself. *)

val setup_namespace :
  Linux_guest.Guest.t -> Linux_guest.Gproc.t -> cfg ->
  image_fs:Blockdev.Simplefs.t -> (unit, string) result
(** The overlay construction itself (exposed separately for tests):
    clone namespace, relocate mounts, mount the image as root, apply
    container context. *)
