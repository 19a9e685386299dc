(** Console responsiveness (Fig. 7): round-trip latency of an echo
    command through a pseudo-terminal.

    The vmsh-console number is *measured*: a real command travels
    through the attached session's console device, the guest shell and
    back, accruing the mechanism's costs on the virtual clock, plus the
    host-side terminal path (pty line discipline + reader wake-up),
    which is charged from the calibrated constants below. native and
    ssh are cost models of the same terminal path without/with the ssh
    stack. *)

type measurement = { m_name : string; latency_ms : float }

val native : Hostos.Clock.t -> measurement
(** Echo round trip on a local pts. *)

val ssh : Hostos.Clock.t -> measurement
(** Echo round trip through sshd on localhost. *)

val vmsh : Vmsh.Attach.session -> Hostos.Clock.t -> measurement
(** Echo round trip through the attached VMSH console (drives the
    session's pump; uses the guest shell's echo-like path). *)
