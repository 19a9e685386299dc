(** Virtual monotonic clock and event accounting.

    The simulation does not run in real time: every modelled hardware or
    kernel event (context switch, syscall, VMEXIT, byte copy, ...) charges
    a cost in virtual nanoseconds to a {!t}. Benchmarks report durations
    read from this clock, so the measured shapes emerge from the *counted
    mechanism* (how many exits, how many copies) rather than from wall
    time of the simulator itself. *)

(** Per-event cost table, in nanoseconds (or ns/byte for copies).
    The defaults are calibrated against commodity x86 servers (an
    i9-9900K-class machine); see {!default_costs}. *)
type costs = {
  ns_context_switch : float;  (** direct cost of one context switch *)
  ns_syscall : float;  (** user->kernel->user round trip *)
  ns_vmexit : float;  (** lightweight VMEXIT handled in-kernel *)
  ns_vmexit_userspace : float;  (** VMEXIT handled by the userspace VMM *)
  ns_ptrace_stop : float;  (** one ptrace stop + resume of the tracee *)
  ns_per_byte_copy : float;  (** memcpy cost per byte *)
  ns_per_byte_remote_copy : float;  (** process_vm_readv/writev per byte *)
  ns_page_cache_hit : float;  (** serving 4KiB from the guest page cache *)
  ns_irq_injection : float;  (** posting an irqfd interrupt *)
  ns_socket_msg : float;  (** one message over a local socket (ioregionfd) *)
  ns_device_4k : float;  (** backing-store service time per 4KiB block *)
  ns_fs_op : float;  (** in-kernel file-system metadata operation *)
}

val default_costs : costs

(** Cumulative event counters. Exposed so tests can assert on mechanism
    (e.g. "vmsh-blk performs twice the context switches of qemu-blk"). *)
type counters = {
  mutable context_switches : int;
  mutable syscalls : int;
  mutable vmexits : int;
  mutable mmio_exits : int;
  mutable ptrace_stops : int;
  mutable bytes_copied : int;
  mutable bytes_copied_remote : int;
  mutable page_cache_hits : int;
  mutable page_cache_misses : int;
  mutable irq_injections : int;
  mutable socket_msgs : int;
  mutable device_ops : int;
  mutable fs_ops : int;
}

type t

val create : ?costs:costs -> unit -> t
val now_ns : t -> float
(** Current virtual time in nanoseconds since creation. *)

val counters : t -> counters
val costs : t -> costs

val advance : t -> float -> unit
(** [advance t ns] moves virtual time forward unconditionally. *)

val snapshot : t -> counters
(** A copy of the current counters (for differential measurements). *)

(** Charging helpers: each bumps the matching counter and advances time. *)

val context_switch : t -> unit
val syscall : t -> unit
val vmexit : t -> unit
val vmexit_userspace : t -> unit
val mmio_exit : t -> unit
val ptrace_stop : t -> unit
val copy_bytes : t -> int -> unit
val copy_bytes_remote : t -> int -> unit
val page_cache_hit : t -> unit
val page_cache_miss : t -> unit
val irq_injection : t -> unit
val socket_msg : t -> unit
val device_op : t -> blocks:int -> unit
val fs_op : t -> unit

val restore_section : t -> (unit -> 'a) -> 'a
(** [restore_section t f] runs [f] and then rewinds both the virtual
    time and the counters to their values at entry (also on
    exception). VM forking replays the baseline's deterministic boot
    inside such a section: the replay reconstructs simulator state but
    the clone never booted, so none of its events are chargeable; the
    caller accounts the true fork cost separately. *)

val to_fields : counters -> (string * int) list
(** The counters as a stably-ordered (name, value) vector — the shape
    the tracing layer diffs to attribute events to spans. *)
