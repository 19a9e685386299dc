(** Builder of the side-loaded guest kernel library (paper §5).

    Emits a genuine ET_DYN ELF image whose [.text] holds the klib
    bytecode followed by an embedded data area (descriptor structs,
    strings, the guest userspace program) and a status page. Undefined
    symbols are the guest kernel functions; internal references use
    relocations against a local base symbol, so the image is fully
    position-independent until {!Elfkit.Elf.link} runs.

    The builder conditions two things on the detected kernel version,
    exactly as the paper reports having to: the [kernel_write] call ABI
    (old: offset by value; new: position pointer) and the version tags
    of the two structures passed to driver/thread creation.

    The set of devices the library registers is declared here once, as
    {!devices}: the host-side registry ({!Devices}), the attach
    sequence and the error notes ({!Vmsh_error}) all read it. *)

type layout = {
  text_len : int;  (** bytecode + data bytes *)
  status_off : int;  (** page-aligned offset of the status page *)
  blob_off : int;  (** offset of the saved-registers blob within image *)
  total_len : int;  (** full image size incl. status page *)
}

(** Values the guest library stores at [status_off]. *)
val status_devices_ready : int

val status_done : int
val status_err_open : int
val status_err_write : int
val status_err_spawn : int

(** {1 The side-loaded device set} *)

type kind = Console | Blk | Net | Ninep

type device = {
  kind : kind;
  name : string;  (** short name in metrics, events and journal entries *)
  virtio_id : int;  (** VirtIO device type *)
  err_status : int;  (** status the library stores when registration fails *)
  note : string;  (** what {!Vmsh_error} says failed at [err_status] *)
}

val devices : device list
(** Every device the library registers, once each, in registration
    order. *)

val device : kind -> device

type placement = { kind : kind; window : int; gsi : int }
(** Where the host placed one registered device: the window the library
    drives (the PCI config window under PCI, the register window
    otherwise) and its GSI. *)

val required_imports : string list
(** The kernel functions the library links against. *)

val build :
  version:Linux_guest.Kernel_version.t ->
  guest_program:bytes ->
  pci:bool ->
  placement list ->
  Elfkit.Elf.t * layout
(** Registers each placed device in list order, failing with its
    [err_status], then writes [guest_program] to disk and spawns it.
    With [pci], the library registers the devices through
    [register_virtio_pci_dev] and the windows are PCI config spaces
    (the VirtIO-over-PCI transport for Cloud Hypervisor). *)
