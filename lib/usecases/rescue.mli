(** Use case #2 (paper §6.5): the agent-less VM rescue system.

    A user locked out of their VM gets their password reset *while the
    VM keeps running*: VMSH attaches a minimal recovery image containing
    chpasswd and rewrites /etc/shadow of the original guest through the
    overlay — no reboot, no guest agent, no SSH. *)

val reset_password :
  Hostos.Host.t -> vmm:Hypervisor.Vmm.t -> user:string -> password:string ->
  (string, Faults.Abort.verdict) result
(** Attach the recovery image (chpasswd and a couple of diagnostics
    tools), run [chpasswd user password] in the overlay, detach: one
    {!Usecase.attach}. Returns the tool's output. The guest's /etc/shadow now carries the entry
    {!Vmsh.Shell.mkpasswd} produces. *)

val verify_password_set :
  Hypervisor.Vmm.t -> Linux_guest.Guest.t -> user:string -> password:string ->
  bool
(** Check the guest's shadow file (from outside, for tests). *)
