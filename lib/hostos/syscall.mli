(** Syscall numbers, ABI decoding and the in-kernel dispatch path.

    Syscalls are invoked through a thread's register file following the
    genuine x86-64 convention (number in [rax], arguments in [rdi, rsi,
    rdx, r10, r8, r9], result in [rax], [-errno] on failure). VMSH's
    syscall injection therefore prepares real register state, and the
    seccomp filters and ptrace hooks on this path behave as on Linux. *)

(** Real x86-64 syscall numbers for the calls the simulation supports. *)
module Nr : sig
  val read : int
  val write : int
  val close : int
  val pread64 : int
  val pwrite64 : int
  val mmap : int
  val munmap : int
  val ioctl : int
  val socket : int
  val connect : int
  val sendmsg : int
  val recvmsg : int
  val eventfd2 : int
  val process_vm_readv : int
  val name : int -> string
end

val mmap_area_base : int
(** Where anonymous mmaps of host processes are placed. *)

val invoke : Host.t -> Proc.t -> Proc.thread -> unit
(** Execute the syscall described by the thread's registers: seccomp
    check, tracer entry hook, dispatch, tracer exit hook (with possible
    transparent re-entry), result placed in [rax]. Charges syscall cost
    to the host clock. *)

val call : Host.t -> Proc.t -> Proc.thread -> nr:int -> args:int array -> int
(** Convenience for simulated process code: load [nr]/[args] into the
    registers, [invoke], return [rax]. At most 6 arguments. *)

(** Simplified wire format used by this kernel's [sendmsg]/[recvmsg] for
    SCM_RIGHTS: the message buffer contains a u32 count followed by that
    many u32 descriptor numbers. Helpers to build/parse it: *)

val encode_scm_rights : int list -> bytes
