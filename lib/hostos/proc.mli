(** Simulated host processes and threads.

    A process owns a virtual address space and a descriptor table; each
    thread owns an x86-64 register file (the target of ptrace GETREGS /
    SETREGS) and an optional seccomp filter (Firecracker installs these
    per thread, which is what breaks VMSH's syscall injection unless
    disabled — paper §6.2). *)

(** Linux capabilities relevant to VMSH's privilege story. *)
type cap = CAP_SYS_PTRACE | CAP_BPF | CAP_SYS_ADMIN | CAP_SETUID
[@@deriving show, eq]

type seccomp = {
  filter_name : string;
  allows : int -> bool;  (** predicate over syscall numbers *)
}

type thread = {
  tid : int;
  mutable thread_name : string;
  regs : X86.Regs.t;
  mutable seccomp : seccomp option;
}

(** What the tracer decides after inspecting a completed syscall:
    deliver the result to the tracee, or transparently re-enter the same
    syscall (how [wrap_syscall] hides VMSH's MMIO exits from the
    hypervisor). *)
type exit_action = Deliver | Reenter

(** Callbacks a tracer installs around the tracee's syscalls
    (PTRACE_SYSCALL interception, the basis of [wrap_syscall]). *)
type syscall_hook = {
  on_entry : thread -> unit;
  on_exit : thread -> exit_action;
}

type t = {
  pid : int;
  mutable proc_name : string;
  mutable uid : int;
  mutable caps : cap list;
  aspace : Mem.Addr_space.t;
  fds : (int, Fd.t) Hashtbl.t;
  mutable next_fd : int;
  mutable threads : thread list;
  mutable tracer : int option;  (** pid of the attached tracer, if any *)
  mutable hook : syscall_hook option;
  mutable exited : bool;
  mutable mmap_backing : (int -> Mem.t) option;
      (** when set, the next mmap syscalls take their backing buffer
          from this allocator (given the requested length) instead of
          a fresh zeroed one — how a forked VMM maps guest RAM as a
          CoW overlay over a shared baseline instead of allocating
          private pages. The installer clears it when done. *)
}

val create : pid:int -> name:string -> uid:int -> t
(** A process with a single main thread (tid = pid). *)

val add_thread : t -> name:string -> thread
val main_thread : t -> thread
val find_thread : t -> tid:int -> thread option

val install_fd : t -> (num:int -> Fd.t) -> Fd.t
(** Allocate the next descriptor number and register the fd built by the
    callback for it. *)

val fd : t -> int -> Fd.t Errno.result
(** Look up an open descriptor. *)

val close_fd : t -> int -> unit Errno.result

val fd_numbers : t -> int list
(** Open descriptor numbers, ascending (contents of /proc/<pid>/fd). *)

val has_cap : t -> cap -> bool
val drop_cap : t -> cap -> unit
