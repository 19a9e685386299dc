(** The KVM virtual machine object: memslots, vCPUs, interrupts, the
    guest execution loop, and the /dev/kvm ioctl surface.

    Guest code runs as OCaml closures that perform the {!Mmio} and
    {!Yield_until} effects; [KVM_RUN] executes them under a handler that
    turns unclaimed MMIO accesses into genuine exits (continuations are
    parked in the vCPU and resumed on re-entry, mirroring how hardware
    suspends the guest at the faulting instruction). *)

type memslot = {
  slot : int;
  gpa : int;  (** guest-physical base *)
  size : int;
  hva : int;  (** base in the hypervisor's virtual address space *)
}

(** Effects performed by guest code. *)
type mmio_request =
  | Mmio_read of { addr : int; len : int }
  | Mmio_write of { addr : int; data : bytes }

type _ Effect.t +=
  | Mmio : mmio_request -> bytes Effect.t
        (** Access a guest-physical address not backed by RAM. Reads
            resolve to the returned bytes. *)
  | Yield_until : (unit -> bool) -> unit Effect.t
        (** Block the current guest context until the predicate holds
            (e.g. a virtio completion has been posted). *)

type t
type vcpu

exception Guest_error of string
(** Raised by the guest execution loop when guest code reaches a state
    the model cannot represent (e.g. an unhandled exit reason). *)

type Hostos.Ebpf.kdata += Kvm_memslots of memslot list
      (** Kernel-internal data exposed to eBPF programs attached to the
          [kvm_vm_ioctl] hook — the memslot table VMSH's discovery
          program dumps. *)

(** Hooks the guest kernel model installs on the VM. *)
type runtime = {
  on_irq : gsi:int -> unit;
      (** interrupt delivery: called at guest scheduling points for each
          pending GSI *)
  resolve_rip : X86.Regs.t -> (unit -> unit) option;
      (** if the vCPU's instruction pointer was redirected somewhere
          special (VMSH's side-loaded library), return the guest code to
          execute there *)
}

val host : t -> Hostos.Host.t
val owner : t -> Hostos.Proc.t
(** The hypervisor process that created the VM. *)

val set_runtime : t -> runtime -> unit

val enqueue_task : t -> name:string -> (unit -> unit) -> unit
(** Queue runnable guest work (the guest kernel model schedules workload
    steps through this). *)

val has_work : t -> bool
(** Runnable tasks or parked contexts remain. *)

val has_runnable : t -> bool
(** Whether re-entering KVM_RUN can make progress right now: queued
    tasks, pending direct GSIs, or signalled irqfds. Parked contexts
    with nothing to wake them do not count — a guest blocked on console
    input is idle, not stuck. *)

(** {1 Guest physical memory} *)

val memslots : t -> memslot list

val read_phys_into : t -> int -> bytes -> off:int -> len:int -> unit
(** [read_phys_into t pa buf ~off ~len]: the in-guest view of RAM,
    [len] bytes at [pa] copied into [buf] at [off]. Resolves through
    the memslots to the hypervisor memory backing them. Raises on
    unbacked addresses. *)

val read_phys : t -> int -> int -> bytes
(** {!read_phys_into} a fresh buffer. *)

val memslot_backing : t -> memslot -> Hostos.Mem.t * int
(** The buffer behind a registered memslot and the slot's offset in it:
    page [p] of the slot is page [off / page_size + p] of the buffer.
    KVM_SET_USER_MEMORY_REGION accepts only a page-aligned slot that
    lies inside one buffer, so the offset is page-aligned. Raises
    [Invalid_argument] for a slot the VM does not hold. *)

val write_phys_from : t -> int -> bytes -> off:int -> len:int -> unit
(** A write by the guest itself (its kernel, or a device completing
    the guest's own request): besides writing, it attributes the pages
    in the backing's write log ({!Hostos.Mem.attribute}), which is how
    the rollback oracle excludes the guest's own writes. Writes through
    the hypervisor's mapping of the same RAM (VMSH's path) are not
    attributed. [write_phys_from t pa buf ~off ~len] writes [len]
    bytes of [buf] from [off]. *)

val write_phys : t -> int -> bytes -> unit
(** {!write_phys_from} all of a buffer. *)

val generate_phys :
  t -> int -> len:int ->
  (pos:int -> bytes -> off:int -> len:int -> unit) -> unit
(** [generate_phys t pa ~len f]: a guest write of [f]'s bytes to the
    [len] bytes at [pa], attributed like {!write_phys} but materialised
    page by page on first access ({!Hostos.Mem.generate}). Raises
    [Invalid_argument] under the conditions {!Hostos.Mem.generate}
    does, e.g. on a forked VM's RAM. *)

val read_phys_u64 : t -> int -> int

val write_phys_u64 : t -> int -> int -> unit
(** {!write_phys} of 8 little-endian bytes. *)

val is_ram : t -> int -> bool

val pt_access : t -> X86.Page_table.access
(** Physical accessors for the page-table walker. *)

(** {1 vCPUs} *)

val vcpus : t -> vcpu list
val vcpu_index : vcpu -> int
val vcpu_regs : vcpu -> X86.Regs.t
val vcpu_run_page : vcpu -> Hostos.Mem.t

(** {1 Interrupt and notification plumbing} *)

val set_gsi_irqfd_support : t -> bool -> unit
(** Whether KVM_IRQFD with a plain GSI is accepted. Cloud Hypervisor
    configures its VMs for PCIe MSI-X only, which is what makes it
    incompatible with VMSH's MMIO transport (paper §6.2). *)

val signal_gsi : t -> gsi:int -> unit
(** Kernel-side interrupt injection: pend the GSI directly (used by
    in-process devices that hold no eventfd). *)

val add_eventfd_waiter : t -> fd:Hostos.Fd.t -> (unit -> unit) -> unit
(** Register a callback invoked when the given ioeventfd is signalled by
    a guest doorbell (models the VMM iothread wake-up). *)

val add_ioregion_pump : t -> (unit -> unit) -> int
(** Register a callback that drains ioregionfd sockets and posts
    responses (models the VMSH device thread being scheduled). Returns
    a pump id for {!remove_ioregion_pump}. *)

val remove_ioregion_pump : t -> int -> unit
(** Unregister a pump by id (detach/rollback of the device thread). *)

val remove_msi_route : t -> gsi:int -> unit
(** Drop an MSI route installed via KVM_SET_GSI_ROUTING (rollback). *)

(** {1 Creation and the ioctl surface} *)

val dev_kvm : Hostos.Host.t -> Hostos.Proc.t -> Hostos.Fd.t
(** Open /dev/kvm in the given process: the returned fd accepts
    KVM_CREATE_VM and KVM_GET_VCPU_MMAP_SIZE. *)

val vm_of_fd : Hostos.Fd.t -> t option
(** Recover the VM behind a "anon_inode:kvm-vm" descriptor. *)

val vcpu_of_fd : Hostos.Fd.t -> vcpu option

val run_vcpu : Hostos.Host.t -> Hostos.Proc.t -> Hostos.Proc.thread ->
  vcpu_fd:Hostos.Fd.t -> Api.exit_info
(** Convenience for VMM loops: ioctl(KVM_RUN) through the (hookable)
    syscall path, then decode the exit from the run page. *)
