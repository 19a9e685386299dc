(** The fio model: fixed-pattern IO jobs against every storage target of
    Fig. 6 — the raw host device (native), qemu-blk and vmsh-blk with
    direct/block IO, and file IO through the guest FS or qemu-9p.

    Time is read from the virtual clock, so throughput and IOPS emerge
    from the mechanism each path exercises (exits, context switches,
    remote copies, cache hits). *)

type pattern = Seq_read | Seq_write | Rand_read | Rand_write

type target =
  | Native of Blockdev.Backend.t
      (** the host NVMe, no virtualisation *)
  | Guest_raw of Virtio.Blk.Driver.t
      (** direct/block IO on a VirtIO disk (O_DIRECT on /dev/vdX) *)
  | Guest_fs of {
      fs : Blockdev.Simplefs.t;
      cache : Linux_guest.Page_cache.t;
      path : string;
      direct : bool;
    }  (** file IO through the guest file system *)
  | Guest_ninep of { drv : Virtio.Ninep.Driver.t; path : string }
      (** file IO over the 9p host share *)

type job = {
  pattern : pattern;
  block_size : int;  (** bytes per IO *)
  total_bytes : int;
  span_bytes : int;  (** region the offsets are drawn from *)
}

val job : ?span:int -> pattern -> block_size:int -> total:int -> job

type result = {
  ops : int;
  bytes : int;
  elapsed_ns : float;
  throughput_mb_s : float;
  iops : float;
}

val run :
  Hypervisor.Vmm.t option -> clock:Hostos.Clock.t -> rng:Hostos.Rng.t ->
  target -> job -> result
(** [run vmm ~clock ~rng target job]: guest targets need the [vmm] to
    drive the vCPU; [Native] runs host-side. The target file for
    [Guest_fs]/[Guest_ninep] is created and sized beforehand (setup is
    not measured). *)
