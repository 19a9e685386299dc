(** Guest address-space layout constants.

    Real x86-64 kernel virtual addresses live in the sign-extended upper
    canonical half (0xffff8000_00000000 and up), which does not fit the
    non-negative 62-bit integers this simulation uses for addresses.
    We therefore place the equivalent regions in the top of the positive
    48-bit space. The *structure* is the same as Linux's: a direct map of
    all physical memory at a fixed offset, and a KASLR text region of
    fixed size and alignment into which the kernel image is randomised at
    boot (a fixed number of 2 MiB slots — the property §4.2 of the paper
    exploits to locate the kernel). *)

val page_size : int

val kaslr_base : int
(** Lowest virtual address the kernel image may be randomised to. *)

val kaslr_size : int
(** Size of the KASLR region (1 GiB, i.e. 512 slots of 2 MiB). *)

val kaslr_align : int
(** Slot granularity of kernel randomisation (2 MiB). *)

val kaslr_slots : int
(** Number of possible kernel base addresses. *)

val direct_map_base : int
(** Virtual base of the all-of-physical-memory direct map. *)

val virtio_mmio_base : int
(** Guest-physical base where hypervisors place VirtIO MMIO windows. *)

val virtio_mmio_stride : int
(** Size of (and distance between) per-device MMIO windows (4 KiB). *)

val vmsh_mmio_base : int
(** Guest-physical MMIO window VMSH claims for its own devices; chosen
    above the hypervisor-owned windows so it can never collide. *)

val hyp_pci_base : int
(** Base of the hypervisor-owned PCI window (Cloud Hypervisor places its
    own VirtIO devices here: config space then BAR, per device). *)

val vmsh_pci_base : int
(** Base of the PCI window VMSH claims when using the VirtIO-over-PCI
    transport: two config spaces followed by two register BARs. *)

val phys_to_direct : int -> int
(** Virtual address of a physical address through the direct map. *)

val direct_to_phys : int -> int
