(** Dependability service (paper §2.3): fine-grained monitoring.

    Cloud providers today collect only coarse outside metrics of a VM
    (total CPU, total memory); VMSH gives them the guest-OS view —
    process list, per-mount disk usage, kernel log — without a guest
    agent. This monitor attaches, samples through the overlay shell and
    returns a structured report. *)

type process = { m_pid : int; m_uid : int; m_name : string; m_cgroup : string }

type mount_usage = {
  m_source : string;
  m_mountpoint : string;
  total_kb : int;
  used_kb : int;
  avail_kb : int;
}

type report = {
  processes : process list;
  mounts : mount_usage list;
  dmesg_tail : string list;  (** last few kernel-log lines *)
}

val parse_ps : string -> process list
(** Parse the overlay shell's [ps] output. *)

val parse_df : string -> mount_usage list

val collect :
  Hostos.Host.t -> vmm:Hypervisor.Vmm.t ->
  (report, Faults.Abort.verdict) result
(** Attach, sample, detach: one {!Usecase.attach} with the monitor
    image. *)

val pp_report : Format.formatter -> report -> unit
