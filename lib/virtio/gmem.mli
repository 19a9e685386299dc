(** Guest-physical memory accessors.

    Virtqueue code on both sides of the device boundary manipulates the
    same bytes in guest memory, but *how* those bytes are reached
    differs: the guest driver reads its own RAM, the hypervisor reads
    the RAM it mapped, and VMSH reads another process's memory via
    process_vm_readv. A [t] abstracts exactly that access path (and its
    cost). *)

type t = {
  read_into : addr:int -> bytes -> off:int -> len:int -> unit;
      (** [read_into ~addr buf ~off ~len] copies [len] bytes at guest
          address [addr] into [buf] at [off]. *)
  write_from : addr:int -> bytes -> off:int -> len:int -> unit;
      (** [write_from ~addr buf ~off ~len] copies [len] bytes of [buf]
          from [off] to [addr]. *)
}
(** The two copies every access path provides: between guest memory
    and a caller's buffer, with no intermediate buffer of its own. *)

val read : t -> addr:int -> len:int -> bytes
(** {!field-read_into} a fresh buffer. *)

val write : t -> addr:int -> bytes -> unit
(** {!field-write_from} all of a buffer. *)

val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit
val read_u64 : t -> int -> int
val write_u64 : t -> int -> int -> unit

val of_vm : Kvm.Vm.t -> t
(** In-guest view: direct physical access, no charge (the guest touching
    its own RAM is already priced into the workload model). *)
