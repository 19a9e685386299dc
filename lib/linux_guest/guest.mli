(** The synthetic guest Linux kernel.

    [boot] assembles a bootable guest inside an existing KVM VM (whose
    RAM the hypervisor already registered): it encodes a kernel image —
    text, banner, ksymtab sections in the version's layout — into guest
    physical memory at a KASLR-randomised virtual base, builds genuine
    4-level page tables (direct map + kernel mapping), points the vCPU's
    CR3/RIP at them, and installs the VM runtime hooks (interrupt
    delivery and the side-loaded-library interpreter).

    Everything VMSH later discovers by binary analysis — the kernel
    base, the symbol sections, the banner — exists only as bytes in
    guest memory placed here. *)

type t

(** {1 Boot} *)

val boot :
  vm:Kvm.Vm.t -> version:Kernel_version.t -> rng:Hostos.Rng.t ->
  ?cache_blocks:int -> ?prebuilt_image:bytes -> unit -> t
(** Requires RAM at guest-physical 0 (memslot registered by the VMM).
    Device probing and root mounting are queued as the guest's init
    task — drive the vCPU (e.g. [Vmm.run_until_idle]) to complete
    boot. [prebuilt_image] (a forked VM replaying its baseline's boot)
    skips the expensive image encoding and installs the given bytes
    instead; the caller must supply the same [rng] stream the image
    was built under, or the symbol layout will not match. *)

val kernel_image : t -> bytes
(** The kernel image as guest RAM holds it now, read back from guest
    memory (which materialises every page of its generated noise) —
    what a baseline freezes right after boot so its forks can pass it
    back as [prebuilt_image]. *)

val vm : t -> Kvm.Vm.t
val version : t -> Kernel_version.t
val kernel_virt : t -> int
(** Where KASLR placed the kernel (ground truth, for tests only). *)

val scanner_target_regions : t -> (int * int * int) list
(** [(phys, virt, len)] of the ksymtab strings and table regions — the
    guest structures the attach scanner reads, and therefore what an
    adversarial guest mutates to race the scan (the hostile-guest
    engine's targets). *)

val page_cache : t -> Page_cache.t
val crashed : t -> string option
(** A kernel-level fault (bad side-load, bad opcode...), if any. *)

val dmesg : t -> string list

(** {1 Memory services} *)

val alloc_pages : t -> count:int -> int
(** Allocate fresh guest-physical pages (identity in the direct map). *)

val translate : t -> int -> int option
(** Virtual-to-physical through the live page tables (vCPU 0 CR3). *)

val vwrite : t -> va:int -> bytes -> unit

(** {1 Files and processes} *)

val vfs : t -> Vfs.t
val root_ns : t -> int
val rootfs : t -> Blockdev.Simplefs.t option
val procs : t -> Gproc.t list
val find_proc : t -> gpid:int -> Gproc.t option
val init_proc : t -> Gproc.t

val spawn_proc :
  t -> name:string -> ?uid:int -> ?mnt_ns:int -> ?cgroup:string ->
  ?caps:string list -> ?apparmor:string -> unit -> Gproc.t

val spawn_container : t -> name:string -> image:(string * string) list -> Gproc.t
(** A containerised process: fresh mount namespace (with the given
    extra files visible at /), restricted capabilities, its own cgroup
    and an AppArmor profile — the target of container-aware attach. *)

val file_read : t -> ns:int -> string -> bytes Hostos.Errno.result
val file_write : t -> ns:int -> string -> bytes -> unit Hostos.Errno.result

(** {1 Boot-time VirtIO devices (hypervisor-emulated)} *)

val boot_blk_exn : t -> Virtio.Blk.Driver.t
val boot_ninep : t -> Virtio.Ninep.Driver.t option
(** The hypervisor's 9p file-sharing device (QEMU profile only). *)

(** {1 Side-loading support (consumed by VMSH)} *)

val exports : t -> (string * int) list
(** Ground-truth exported symbol table (tests compare the analyzer's
    result against this; VMSH itself never reads it). *)

val register_interpreter :
  magic:string -> (bytes -> (t -> Gproc.t -> unit) option) -> unit
(** Exec of a file whose first line is [magic] hands its bytes to the
    interpreter; the closure it returns runs as the new process ([None]:
    an unknown binary). The simulation's stand-in for machine code (see
    DESIGN.md). Call it only while a module initialises: every guest in
    the process shares the table. *)

val vmsh_blk : t -> Virtio.Blk.Driver.t option
(** The driver instance the side-loaded library registered, if any. *)

val vmsh_console : t -> Virtio.Console.Driver.t option

val vmsh_net : t -> Virtio.Net.Driver.t option
(** The side-loaded NIC driver, if the klib registered one. *)

val vmsh_ninep : t -> Virtio.Ninep.Driver.t option
(** The side-loaded 9p file-sharing driver, if any. *)

(** {1 Struct layouts passed to kernel functions}

    Helpers shared with the library builder so both sides agree on the
    *intended* encoding; whether the encoding matches what the booted
    kernel expects is checked at run time via the version tags. *)

val encode_virtio_desc : version_tag:int -> device_type:int -> mmio_base:int ->
  gsi:int -> bytes

val encode_thread_struct : version_tag:int -> kind:int -> arg:int -> bytes

val o_creat : int
val o_wronly : int
