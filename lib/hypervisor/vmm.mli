(** A userspace VMM running over the simulated KVM.

    One [t] is one hypervisor process with mapped guest RAM, a qemu-blk
    style VirtIO block device (ioeventfd doorbell + irqfd completion +
    an iothread doing pread/pwrite syscalls against the disk image — so
    a tracer taxing the process's syscalls taxes exactly this path),
    optionally a 9p device, and a KVM_RUN exit loop. *)

type t

type fork_source = { fs_ram : Hostos.Mem.frozen; fs_databuf : Hostos.Mem.frozen }
(** Frozen per-VM memory regions of a baked baseline: guest RAM and
    the VMM's 256 KiB disk bounce buffer (see {!freeze_fork_state}).
    {!create} maps them at [ram_mb] MiB and 256 KiB, so their lengths
    must be those. *)

val create :
  Hostos.Host.t -> profile:Profile.t -> disk:Blockdev.Backend.t ->
  ?ram_mb:int -> ?vcpus:int -> ?disable_seccomp:bool ->
  ?ninep_root:Blockdev.Simplefs.t -> ?fork:fork_source -> unit -> t
(** Spawn the hypervisor process, create the VM, map RAM, register the
    memslot, create vCPUs and instantiate the profile's devices.
    [disable_seccomp] models running Firecracker with its filters off
    (required for VMSH attach, §6.2). *)

val host : t -> Hostos.Host.t
val proc : t -> Hostos.Proc.t
val pid : t -> int
val profile : t -> Profile.t
val kvm_vm : t -> Kvm.Vm.t
val disk : t -> Blockdev.Backend.t
val guest : t -> Linux_guest.Guest.t option
val guest_exn : t -> Linux_guest.Guest.t

val boot :
  ?boot_rng:Hostos.Rng.t -> ?prebuilt_image:bytes -> t ->
  version:Linux_guest.Kernel_version.t -> Linux_guest.Guest.t
(** Install the synthetic guest kernel and run the vCPU until the
    guest's init task completes (devices probed, root mounted).
    [boot_rng] overrides the RNG stream the guest boots under (a fork
    replays its baseline's stream so KASLR, symbol layout and every
    allocation land identically); [prebuilt_image] skips the image
    encoding and installs the given bytes (the baseline's frozen
    kernel image). *)

val freeze_fork_state : t -> fork_source
(** Freeze the regions a fork shares (guest RAM, bounce buffer).
    Call on a baked baseline VM at the attach-ready point. *)

exception Stuck of string
(** Raised when the guest can make no progress (all contexts parked and
    no interrupts pending) or the exit budget is exhausted. *)

val run_until_idle : ?max_exits:int -> t -> unit
(** Drive vCPU 0: re-enter KVM_RUN, emulating this VMM's own MMIO
    devices on exits, until the guest goes idle. *)

val run_task : t -> name:string -> (unit -> unit) -> unit
(** Enqueue guest work and drive it to completion. *)

val in_guest : t -> (unit -> 'a) -> 'a
(** Run a thunk as guest code (effects allowed) and return its value.
    Raises [Failure] if the guest context parked forever. *)

val crashed : t -> bool
