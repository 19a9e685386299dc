(** The traced hypervisor: KVM descriptor discovery and syscall
    injection (paper §4.1, §5 "Sideloader").

    Discovery walks /proc/<pid>/fd and resolves the symlink labels to
    find the descriptors that belong to KVM, and /proc/<pid>/maps to
    find the mmapped kvm_run page of each vCPU. Injection prepares the
    x86-64 syscall ABI register state in a stopped thread, steps one
    syscall in the tracee's context (so its seccomp filters apply —
    which is exactly what breaks stock Firecracker), and restores. *)

type vcpu_handle = { index : int; fd_num : int; run_hva : int }

type t

val pid : t -> int
val vm_fd : t -> int
val vcpus : t -> vcpu_handle list
val vmsh_proc : t -> Hostos.Proc.t
val host : t -> Hostos.Host.t

val phase :
  Hostos.Host.t ->
  string ->
  ?attrs:(string * Trace.value) list ->
  (unit -> 'a) ->
  'a
(** [phase h name f] runs one attach phase: its virtual duration goes
    into the [stage.attach.<name>_ns] histogram and an [attach.phase]
    flight-recorder event (even if [f] raises), inside a span of the
    same name, with a debug log line. *)

val attach :
  ?seccomp_heuristic:bool -> Hostos.Host.t -> vmsh:Hostos.Proc.t ->
  pid:int -> (t, Vmsh_error.t) result
(** ptrace-attach, PTRACE_INTERRUPT, discover the KVM fds and map a
    scratch page in the tracee for argument structs.

    [seccomp_heuristic] enables, from the very first injected syscall,
    the thread-probing heuristic the paper lists as future work: when
    an injected syscall is killed by a thread's seccomp filter (EPERM),
    retry it on each other thread of the tracee — Firecracker's API
    thread carries a laxer filter than its vCPU threads, so injection
    can succeed without disabling seccomp. *)

val detach : t -> unit

val inject : t -> nr:int -> args:int array -> (int, Vmsh_error.t) result
(** Run one syscall in the tracee; negative returns are surfaced as
    errors with the errno name. With the seccomp heuristic enabled,
    EPERM results are retried on every thread before giving up. *)

val scratch : t -> int
(** Hypervisor-virtual address of the injected scratch page. *)

val inject_ioctl :
  t -> fd:int -> code:int -> ?arg:bytes -> unit -> (int, Vmsh_error.t) result
(** Write [arg] (if any) to scratch and inject ioctl(fd, code, scratch). *)

val get_vcpu_regs : t -> vcpu_handle -> (X86.Regs.t, Vmsh_error.t) result
(** Injected KVM_GET_REGS + remote read of the result struct. *)

val set_vcpu_regs : t -> vcpu_handle -> X86.Regs.t -> (unit, Vmsh_error.t) result

val hook_syscalls :
  t -> on_entry:(Hostos.Proc.thread -> unit) ->
  on_exit:(Hostos.Proc.thread -> Hostos.Proc.exit_action) -> unit

val unhook_syscalls : t -> unit

val connect_back :
  ?on_socket:(int -> unit) -> t -> path:string -> (int, Vmsh_error.t) result
(** Inject socket() + connect() towards [path]; returns the tracee-side
    descriptor. [on_socket] fires between the two injections, as soon as
    the descriptor exists — the attach journal uses it to record the
    close-undo before the connect()'s own crash point can abort. *)

val send_fds_back : t -> sock_fd:int -> int list -> (unit, Vmsh_error.t) result
(** Inject sendmsg(SCM_RIGHTS) passing tracee descriptors to whoever
    accepted the connection (i.e. VMSH itself). *)
