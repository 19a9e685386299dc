(** Minimal eBPF model: programs attachable to named kernel hook points.

    VMSH uses a single small program attached to [kvm_vm_ioctl] to read
    the kernel-internal memslot table (guest-physical to hypervisor-
    virtual mappings), because no KVM API exposes it (paper §5). The
    model keeps the two properties that matter for the reproduction:
    attaching requires privilege (CAP_BPF / CAP_SYS_ADMIN — the reason
    VMSH must start privileged and drop capabilities afterwards), and
    the program only observes data reachable from the hook's context. *)

type kdata = ..
(** Kernel-internal data exposed to a hook's context. Extended by the
    KVM library with its memslot table. *)

type kdata += No_data

type ctx = {
  hook : string;
  args : int array;  (** hook arguments, e.g. the ioctl code *)
  kdata : kdata;
  mutable output : bytes option;
      (** perf-buffer style channel back to the attaching process *)
}

type prog = {
  name : string;
  insn_count : int;  (** claimed program size, checked by the verifier *)
  run : ctx -> unit;
}

val verify : prog -> unit Errno.result
(** Static admission check (size limit only in this model). *)
