(** Guest-memory discovery via eBPF (paper §5, "Sideloader").

    No KVM API exposes the VM's physical memory layout, so VMSH attaches
    a small eBPF program to the [kvm_vm_ioctl] kernel entry point and
    then injects a harmless VM ioctl to trigger it. The program walks
    the kernel's memslot table reachable from its context and streams
    (id, gpa, size, hva) records back through its output buffer. Attaching
    requires CAP_BPF — the privilege VMSH drops right afterwards. *)

val discover :
  Tracee.t -> (Hyp_mem.slot list, Vmsh_error.t) result
(** Attach the program, trigger it, parse the slots, detach the
    program. Fails when the calling process lacks CAP_BPF. *)

val program_name : string

val encode_slots : Hyp_mem.slot list -> bytes
(** The output wire format (also used by tests). *)

val decode_slots : bytes -> Hyp_mem.slot list option
