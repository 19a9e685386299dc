(** The VirtIO MMIO transport (device register machine and driver probe).

    The device half is transport-agnostic: it only sees register reads
    and writes at offsets within its 4 KiB window, no matter whether
    they arrive via a KVM exit handled in the hypervisor, via VMSH's
    wrap_syscall interception, or via ioregionfd frames. The driver half
    runs as guest code and performs its accesses through caller-supplied
    closures (which the guest kernel implements with real MMIO
    effects). *)

(** {1 Register offsets} *)

val reg_magic : int
val reg_version : int
val reg_device_id : int
val reg_queue_sel : int
val reg_queue_num_max : int
val reg_queue_num : int
val reg_queue_ready : int
val reg_queue_notify : int
val reg_int_status : int
val reg_int_ack : int
val reg_status : int
val reg_queue_desc_lo : int
val reg_queue_desc_hi : int
val reg_queue_avail_lo : int
val reg_queue_avail_hi : int
val reg_queue_used_lo : int
val reg_queue_used_hi : int
val reg_config : int

val magic_value : int
(** 0x74726976, "virt". *)

val status_acknowledge : int
val status_driver : int
val status_driver_ok : int

(** {1 Device half} *)

module Device : sig
  type queue_state = {
    mutable num : int;
    mutable ready : bool;
    mutable desc : int;
    mutable avail : int;
    mutable used : int;
  }

  type t

  val create :
    device_id:int -> num_queues:int -> ?qmax:int -> config:bytes -> unit -> t

  val set_notify : t -> (queue:int -> unit) -> unit
  (** Invoked when the driver writes QUEUE_NOTIFY. *)

  val read : t -> off:int -> len:int -> bytes
  val write : t -> off:int -> bytes -> unit
  val queue : t -> int -> queue_state
  val assert_irq : t -> unit
  (** Latch the used-buffer interrupt bit (the caller still signals the
      guest's GSI / irqfd). *)

  val irq_pending : t -> bool
end

(** {1 Driver half (guest code)} *)

type access = {
  mread : off:int -> len:int -> bytes;
  mwrite : off:int -> bytes -> unit;
}

val probe :
  access -> gmem:Gmem.t -> expect_device:int ->
  alloc:(size:int -> int) -> queues:int ->
  (Queue.Driver.t array, string) result
(** Full driver handshake: verify magic/version/device id, negotiate
    each queue's size, allocate ring memory with [alloc] (returning a
    guest-physical address), publish the addresses, flip QUEUE_READY and
    set DRIVER_OK. *)

val read_config_u64 : access -> int -> int
(** Read a 64-bit field from device config space. *)
