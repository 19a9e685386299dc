(** VMSH's VirtIO devices, emulated inside the VMSH process (§4.3).

    Unlike qemu-blk, these devices live *outside* the hypervisor: they
    reach the virtqueues in guest memory through process_vm_readv-style
    remote accesses ({!Hyp_mem}), and their MMIO doorbells arrive
    through one of two transports:

    - {b wrap_syscall}: ptrace interception around every syscall of the
      hypervisor, peeking at KVM_RUN exits — taxes the whole hypervisor
      (Fig. 6's wrap_syscall rows);
    - {b ioregionfd}: the in-kernel MMIO-to-socket dispatch, invisible
      to the hypervisor (no tax on qemu-blk).

    Devices are added through a typed registry: {!create} claims the
    guest-physical region, {!register} places each device at the next
    free window and GSI. Register windows, PCI config windows and GSIs
    are all functions of the registration index, so callers never
    hard-code a device order. *)

type transport = Wrap_syscall | Ioregionfd

val show_transport : transport -> string

type kind = Klib_builder.kind = Console | Blk | Net | Ninep
(** The devices of {!Klib_builder.devices}. *)

type t

type handle
(** One registered device: window, interrupt route, queue state. *)

val gsi_plan : kind list -> (kind * int) list
(** The GSIs {!register} will assign to this registration order
    (registration index [i] gets GSI [24 + i]) — lets the attach
    sequence create irqfds before the devices exist. *)

val create :
  mem:Hyp_mem.t -> tracee:Tracee.t ->
  image:Blockdev.Backend.t ->
  ?pci:bool ->
  ?net:Net.Fabric.t * Net.Link.port -> ?mac:int -> unit -> t
(** Claim the device region; no devices exist until {!register}.
    [image] is the file-system image served by vmsh-blk (and, as a file
    tree, by vmsh-9p). [net] cables the NIC to one port of a
    {!Net.Link} on a deterministic fabric — without it the NIC still
    probes but transmits into the void. With [pci] the devices
    additionally expose PCI config spaces (vendor id, BAR0, MSI-X GSI)
    ahead of their register windows — the VirtIO-over-PCI transport. *)

val register : t -> kind -> irqfd:Hostos.Fd.t -> handle
(** Place a device of [kind] at the next free window/GSI and wire its
    doorbell handlers. [irqfd] is VMSH's local end of the descriptor
    passed back from the hypervisor. Raises [Invalid_argument] when the
    region is full or [kind] is already registered. *)

val unregister : t -> handle -> unit
(** Rollback of {!register}: drop the handle (its window and GSI become
    free again) and uncable the NIC's fabric-port handler if it was the
    network device. Safe to call in any order, but the journal replays
    registrations newest-first. *)

val handles : t -> handle list
(** Registration order. *)

val placement : handle -> Klib_builder.placement
(** Where the kernel library drives the device: its PCI config window
    under PCI, its register window otherwise, and its GSI. *)

val region : t -> int * int
(** [(base, len)] of the full guest-physical region VMSH claims — the
    range to trap (register windows, plus config spaces under PCI). *)

val handle_mmio_read : t -> addr:int -> len:int -> bytes option
(** [None] when the address is outside VMSH's windows. *)

val handle_mmio_write : t -> addr:int -> data:bytes -> bool
(** [false] when the address is outside VMSH's windows. *)

val install_wrap_syscall : t -> unit
(** Hook the tracee's syscalls; KVM_RUN exits for VMSH's MMIO windows
    are serviced and transparently re-entered. *)

val uninstall_wrap_syscall : t -> unit

val ioregion_pump : t -> sock:Hostos.Fd.t -> unit -> unit
(** The service loop run when KVM pushes request frames into VMSH's end
    of the ioregionfd socket: drain, dispatch, respond. *)

(** {1 Console plumbing (host side)} *)

val feed_console_input : t -> bytes -> unit
(** Deliver host-terminal input to the guest's receive queue (raising
    the console interrupt). *)

val read_console_output : t -> bytes
(** Drain what the guest transmitted. *)

val stats_requests : t -> int
(** Block requests served (for tests and benches). *)
