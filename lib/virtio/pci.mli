(** Minimal VirtIO-over-PCI transport (the paper's future-work item for
    Cloud Hypervisor support, implemented here).

    Only what the attach path needs is modelled: a per-device
    configuration window (a PCI config-space header with vendor/device
    identification, BAR0 pointing at the register window, and a
    vendor-specific capability carrying the MSI-X interrupt's GSI), in
    front of the same {!Mmio} register machine used by the MMIO
    transport. Interrupt delivery uses MSI routes installed in KVM
    instead of plain-GSI irqfds. *)

val vendor_virtio : int
(** 0x1af4, Red Hat / virtio. *)

val header_size : int

module Config : sig
  val encode : device_type:int -> bar0:int -> msix_gsi:int -> bytes
  (** A config-space header: vendor/device id at 0x00/0x02, BAR0 at
      0x10/0x14, and a vendor capability at 0x40 holding the MSI-X
      GSI. *)

  type decoded = {
    vendor : int;
    device : int;
    device_type : int;
    bar0 : int;
    msix_gsi : int;
  }

  val decode : bytes -> decoded option
  (** [None] if the vendor/device ids are not virtio's. *)

  val probe :
    read:(off:int -> len:int -> bytes) -> decoded option
  (** Guest-side probe: read the header field by field through the
      given config-space accessor (each read is a real config access). *)
end
