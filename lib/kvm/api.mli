(** KVM ioctl ABI: request codes and in-memory struct layouts.

    The simulated hypervisors and the VMSH sideloader both speak this
    binary ABI: structs are serialized into process memory and their
    pointers passed through the ioctl syscall, exactly as with the real
    API. Codes follow the real KVM values where they exist;
    [set_ioregion] uses a placeholder code because the ioregionfd
    feature was only a proposal when the paper was written. *)

(** {1 ioctl request codes} *)

val create_vm : int
val create_vcpu : int
val set_user_memory_region : int
val run : int
val get_regs : int
val set_regs : int
val irqfd : int
val ioeventfd : int
val set_ioregion : int
val set_gsi_routing : int
val get_vcpu_mmap_size : int

val name : int -> string
(** Human-readable name of a request code (for logs and eBPF hooks). *)

val user_mem_slots : int
(** 509: KVM_SET_USER_MEMORY_REGION rejects slot ids from here up with
    EINVAL. x86's KVM_USER_MEM_SLOTS in the paper's kernels
    (arch/x86/include/asm/kvm_host.h: 512 slots less 3 private ones). *)

(** {1 Exit reasons (kvm_run.exit_reason)} *)

val exit_hlt : int
val exit_mmio : int
val exit_shutdown : int

(** {1 struct kvm_userspace_memory_region} *)

type memory_region = {
  slot : int;
  flags : int;
  guest_phys_addr : int;
  memory_size : int;
  userspace_addr : int;
}

val memory_region_size : int
val write_memory_region : Hostos.Mem.Addr_space.t -> ptr:int -> memory_region -> unit
val read_memory_region : Hostos.Mem.Addr_space.t -> ptr:int -> memory_region

(** {1 struct kvm_regs (including CR3, see note)}

    The real API splits CR3 into kvm_sregs; we carry it in the same blob
    to avoid a second, structurally identical ioctl round trip. *)

val regs_size : int
val write_regs : Hostos.Mem.Addr_space.t -> ptr:int -> X86.Regs.t -> unit
val read_regs : Hostos.Mem.Addr_space.t -> ptr:int -> X86.Regs.t

val regs_to_bytes : X86.Regs.t -> bytes
(** Same blob layout, for callers holding raw bytes (e.g. VMSH after a
    process_vm_readv of the struct it injected). *)

val regs_of_bytes : bytes -> X86.Regs.t

(** {1 struct kvm_irqfd} *)

type irqfd_req = { irqfd_fd : int; gsi : int; irqfd_flags : int }

val irqfd_req_size : int
val write_irqfd_req : Hostos.Mem.Addr_space.t -> ptr:int -> irqfd_req -> unit
val read_irqfd_req : Hostos.Mem.Addr_space.t -> ptr:int -> irqfd_req

(** {1 struct kvm_ioeventfd} *)

type ioeventfd_req = {
  datamatch : int;
  ioev_addr : int;
  ioev_len : int;
  ioev_fd : int;
  ioev_flags : int;
}

val write_ioeventfd_req : Hostos.Mem.Addr_space.t -> ptr:int -> ioeventfd_req -> unit
val read_ioeventfd_req : Hostos.Mem.Addr_space.t -> ptr:int -> ioeventfd_req

(** {1 struct kvm_ioregion (ioregionfd proposal)} *)

type ioregion_req = {
  region_gpa : int;
  region_size : int;
  region_rfd : int;  (** kvm reads responses from here *)
  region_wfd : int;  (** kvm writes requests here *)
  region_flags : int;
}

val ioregion_req_size : int
val read_ioregion_req : Hostos.Mem.Addr_space.t -> ptr:int -> ioregion_req

(** {1 struct kvm_irq_routing (single MSI entry)} *)

type msi_route = { route_gsi : int; msi_addr : int; msi_data : int }

val msi_route_size : int
val write_msi_route : Hostos.Mem.Addr_space.t -> ptr:int -> msi_route -> unit
val read_msi_route : Hostos.Mem.Addr_space.t -> ptr:int -> msi_route

(** {1 The mmapped kvm_run page} *)

val run_page_size : int

(** Decoded view of the exit information in a kvm_run page. *)
type exit_info =
  | Exit_hlt
  | Exit_mmio of { phys_addr : int; len : int; is_write : bool; data : bytes }
  | Exit_shutdown
  | Exit_other of int

val write_exit : Hostos.Mem.t -> exit_info -> unit
(** Encode into a run page (kernel side). *)

val exit_size : int
(** 32: the bytes of a run page that hold its exit. *)

val decode_exit : bytes -> exit_info
(** Decode the exit from the first {!exit_size} bytes of a run page,
    as the hypervisor reads them from its mapping or VMSH reads them
    from the hypervisor's memory. *)

val write_mmio_response : Hostos.Mem.t -> bytes -> unit
(** Store MMIO read data for completion on re-entry (hypervisor side). *)

val read_mmio_response : Hostos.Mem.t -> len:int -> bytes
(** Fetch completion data (kernel side, on KVM_RUN re-entry). *)

(** {1 ioregionfd wire format}

    One request message per MMIO access and one response message per
    read, as in the upstream proposal (fixed 32-byte frames). *)

type ioregion_msg =
  | Ioreg_read of { offset : int; len : int }
  | Ioreg_write of { offset : int; data : bytes }

val encode_ioregion_msg : ioregion_msg -> bytes
val decode_ioregion_msg : bytes -> ioregion_msg option
val encode_ioregion_resp : bytes -> bytes
val decode_ioregion_resp : bytes -> bytes option
