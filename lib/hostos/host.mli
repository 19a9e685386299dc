(** The simulated host kernel: process table, /proc, eBPF attach points,
    UNIX-domain sockets and remote-memory syscalls.

    One [t] is one machine. All state is reachable from it — nothing is
    global — so tests can run many independent hosts. *)

type t = {
  clock : Clock.t;
  observe : Observe.t;
      (** Metrics, plus tracing spans written into [recorder]; tracing
          is off until [Observe.enable] is called on it. *)
  recorder : Trace.Recorder.t;
      (** The host's one event ring: always-on boundary records of the
          KVM boundary, tagged with the host seed (and the fault-plan
          seed once {!arm_faults} runs), plus detail records while
          tracing is on. Pure observation: never advances the clock,
          never draws from [rng]. *)
  rng : Rng.t;
  mutable procs : Proc.t list;
  mutable next_pid : int;
  ebpf_progs : (string, Ebpf.prog list ref) Hashtbl.t;
  unix_listeners : (string, Fd.t Queue.t) Hashtbl.t;
      (** bound path -> queue of not-yet-accepted peer socket ends *)
  mutable faults : Faults.t;
      (** Fault plan consulted at every substrate decision point;
          defaults to [Faults.disabled] (never draws, never fires). *)
}

val create : ?seed:int -> ?costs:Clock.costs -> unit -> t

val arm_faults : t -> Faults.t -> unit
(** Install a fault plan, wire its [faults.injected.*] counters into
    this host's metric registry, and tag the flight-recorder header
    with the plan's seed. *)

val spawn : t -> name:string -> ?uid:int -> ?caps:Proc.cap list -> unit -> Proc.t
(** Create a process with a fresh pid and a single main thread. *)

val reap : t -> Proc.t -> unit
(** Drop a finished process from the table. One that still holds
    descriptors stays, so a descriptor count over the table still sees
    its leak. Charges nothing and records nothing. *)

val find_proc : t -> pid:int -> Proc.t option
val proc_exn : t -> pid:int -> Proc.t

val proc_fd_listing : t -> pid:int -> (int * string) list
(** All of /proc/<pid>/fd at once: (number, label) pairs. *)

val proc_comm : t -> pid:int -> string Errno.result
(** /proc/<pid>/comm. *)

val pids : t -> int list
(** The pid of every process in the table, in spawn order. *)

val proc_maps : t -> pid:int -> (int * int * string) list
(** /proc/<pid>/maps: (base, length, tag) of every mapping, ascending.
    VMSH uses this to locate the mmapped kvm_run pages of vCPU fds. *)

(** {1 eBPF} *)

val attach_ebpf :
  t -> caller:Proc.t -> hook:string -> Ebpf.prog -> unit Errno.result
(** Verifies the program and requires CAP_BPF or CAP_SYS_ADMIN. *)

val detach_ebpf : t -> hook:string -> name:string -> unit

val fire_ebpf : t -> hook:string -> args:int array -> Ebpf.kdata -> bytes option
(** Run every program attached to [hook]; the last program output wins.
    Called from kernel paths such as kvm_vm_ioctl. *)

(** {1 UNIX-domain sockets with fd passing} *)

val unix_bind : t -> Proc.t -> path:string -> Fd.t Errno.result
(** Create a listening socket at [path] in the caller's fd table. *)

val unix_unbind : t -> path:string -> unit
(** Forget the listener at [path] (rollback of {!unix_bind}); pending
    unaccepted connections are dropped. The listener fd itself is closed
    separately by its owner. *)

val unix_connect : t -> Proc.t -> path:string -> Fd.t Errno.result
(** Connect to a bound path; the peer end is queued for [unix_accept]. *)

val unix_accept : t -> Proc.t -> listener:Fd.t -> Fd.t Errno.result

val send_fd : t -> sock:Fd.t -> Fd.t -> unit Errno.result
(** SCM_RIGHTS: enqueue a descriptor towards the peer. *)

val recv_fd : t -> Proc.t -> sock:Fd.t -> Fd.t Errno.result
(** Dequeue a passed descriptor and install it in the receiver's table
    under a fresh number (sharing the open file description). *)

(** {1 Remote process memory (process_vm_readv / process_vm_writev)} *)

type direction = Read | Write

val remote_copy :
  t ->
  direction ->
  caller:Proc.t ->
  pid:int ->
  addr:int ->
  len:int ->
  more:(int * int) list ->
  bytes ->
  off:int ->
  unit Errno.result
(** The one syscall body behind every call below: [remote_copy t dir
    ~caller ~pid ~addr ~len ~more buf ~off] is a process_vm_readv
    ([Read]) or process_vm_writev ([Write]) of the remote segment
    [(addr, len)] followed by the [more] segments, against consecutive
    bytes of [buf] from [off]. The lookup (ESRCH) and the permission
    check (EPERM) come first and charge nothing; then one fault draw
    (EFAULT, one syscall charged) or one syscall plus the remote-copy
    cost of the summed length. A single-segment call ([more = \[\]])
    allocates nothing on success. *)

val process_vm_readv :
  t ->
  caller:Proc.t ->
  pid:int ->
  iov:(int * int) list ->
  bytes ->
  off:int ->
  unit Errno.result
(** [process_vm_readv t ~caller ~pid ~iov buf ~off] copies every
    remote [(addr, len)] segment, in order, into consecutive bytes of
    [buf] from [off]. One syscall entry covers the batch: one
    permission check (same uid or CAP_SYS_PTRACE), one fault-injection
    draw, remote-copy cost charged on the summed length. Any unreadable
    segment fails the whole call with EFAULT; [buf] may then be partly
    written. *)

val process_vm_read :
  t -> caller:Proc.t -> pid:int -> addr:int -> len:int -> bytes Errno.result
(** {!process_vm_readv} of one segment into a fresh buffer. *)

val process_vm_write :
  t -> caller:Proc.t -> pid:int -> addr:int -> bytes -> unit Errno.result
(** A process_vm_writev of all of a buffer to one segment. *)
