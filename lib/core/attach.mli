(** End-to-end VMSH attach: the vm-exec abstraction (paper §3, §4).

    [attach] performs the full sequence against a running hypervisor
    process, with no cooperation from it:

    + ptrace-attach and discover the KVM descriptors through /proc;
    + dump the memslot table with the eBPF program, then drop
      privileges;
    + read vCPU 0's registers by injected KVM_GET_REGS; walk the page
      tables from CR3; run the symbol analysis (kernel base, ksymtab,
      version);
    + create irqfds inside the hypervisor and smuggle them back over an
      injected UNIX-socket connection (SCM_RIGHTS);
    + stand up the vmsh-blk / vmsh-console devices on the chosen MMIO
      transport;
    + build the kernel library for the detected kernel version, link it
      against the recovered symbol addresses, side-load it, and redirect
      the vCPU through its trampoline;
    + drive the VM (via the caller's [pump]) until the library reports
      the overlay process is running.

    The caller owns the pump because in this simulation the hypervisor's
    vCPU loop must be driven explicitly; with a real VMM the guest
    simply keeps running.

    Attach sessions are configured through the {!Config} builder and
    report failures as a structured {!Vmsh_error.t}. Between its major
    phases the sequence offers cooperative yield points ({!Sched.yield}),
    so a fleet scheduler can interleave many concurrent attaches over
    virtual time; outside a scheduler the yields are no-ops. *)

type net_attachment = { fabric : Net.Fabric.t; port : Net.Link.port }
(** Cable the side-loaded NIC to one [port] of a deterministic
    {!Net} fabric; the port must belong to [fabric]. *)

(** Validated attach configuration: a builder ({!make} plus [with_*]
    setters, each returning an updated value) and an explicit
    {!validate} step. [attach] validates internally, so callers only
    call {!validate} when they want the error before spending an
    attach attempt. *)
module Config : sig
  type t

  val make : unit -> t
  (** ioregionfd transport, bulk copies, interactive shell, privileges
      dropped after discovery. Every attach journals its mutations and
      re-validates the scanned kernel structures at use time; neither
      can be turned off. *)

  val with_transport : Devices.transport -> t -> t
  val with_copy_mode : Hyp_mem.copy_mode -> t -> t

  val with_container_pid : int -> t -> t
  (** Container-aware attach target. *)

  val with_command : string -> t -> t
  (** One-shot command instead of a shell. *)

  val with_seccomp_heuristic : bool -> t -> t
  (** Probe the hypervisor's threads for one whose seccomp filter
      admits each injected syscall (lets VMSH attach to stock
      Firecracker without disabling its filters — the heuristic the
      paper leaves as future work, implemented here). *)

  val with_pci : bool -> t -> t
  (** Use the VirtIO-over-PCI transport: PCI config spaces in front of
      the register windows and MSI-routed interrupts — attaches to
      Cloud Hypervisor's MSI-X-only irqchip (the paper's other
      future-work item, implemented here). *)

  val with_net : net_attachment -> t -> t
  (** Without a net attachment the NIC still probes but transmits into
      the void. *)

  val with_faults : Faults.t -> t -> t
  (** Arm this fault plan on the host at attach time (fleet sessions
      carry per-session plans this way). *)

  val with_symbol_cache : Symbol_analysis.Cache.t -> t -> t
  (** Share a build-id-keyed symbol cache across attaches; see
      {!Symbol_analysis.Cache}. *)

  val validate : t -> (t, string) result
  (** Reject combinations no attach can serve: PCI over the
      wrap_syscall transport, a net port cabled on a different fabric
      than the one supplied, a non-positive container pid, an empty
      command. *)

  val transport : t -> Devices.transport
  val command : t -> string option
  val seccomp_heuristic : t -> bool
  val pci : t -> bool
  val net : t -> net_attachment option
end

type session

val attach :
  Hostos.Host.t -> hypervisor_pid:int -> fs_image:Blockdev.Backend.t ->
  ?config:Config.t -> pump:(unit -> unit) -> unit ->
  (session, Vmsh_error.t) result
(** [Vmsh_error.to_string] renders the same messages the CLI printed
    when errors were bare strings.

    Attach is transactional: every mutation of guest or hypervisor
    state (overwritten guest bytes, PTE installs, the vCPU redirect,
    memslot additions, remote mmaps, eventfds, sockets, device and
    irqfd/ioregionfd wiring) is journaled, and every abort path —
    including a {!Faults.Crash_point} from the sweep harness and the
    virtual-time watchdogs on the guest-ready poll and the device
    handshake — replays the journal in reverse and drops ptrace, as
    {!detach} does, before returning its [Error]. A failed undo
    surfaces as {!Vmsh_error.Rollback_failed}.

    Just before the loader patches the guest, the scanned kernel
    structures (ksymtab + strings region) are re-validated against
    their witness. A mismatch earns the guest one cache-bypassing
    rescan; a second mismatch aborts with
    {!Vmsh_error.Guest_misbehavior}. *)

val vmsh_process : session -> Hostos.Proc.t
val devices : session -> Devices.t
val config : session -> Config.t
val analysis : session -> Symbol_analysis.analysis
val status : session -> int
(** Current status word of the side-loaded library. *)

val console_send : session -> string -> unit
(** Type a line into the attached console (appends the newline). *)

val console_recv : session -> string
(** Pump the VM and collect pending console output, without the
    {!Shell.prompt} that ends it when the shell waits for input. *)

val console_roundtrip : session -> string -> string
(** [console_send] + [console_recv]: one command, its output. *)

val journal : session -> Journal.t option
(** The session's sealed mutation journal; always [Some], since every
    attach journals (the option type is kept for existing callers).
    Its late-write pages feed the snapshot oracle's exclusion set. *)

val detach : session -> (unit, Vmsh_error.t) result
(** Replay the mutation journal in reverse — unwinding device
    registrations, irqfd/ioregionfd wiring, sockets, the side-loaded
    memslot and every journaled guest byte — then drop ptrace (always
    last: injected undos need the tracee stopped). Leaves guest memory
    and vCPU registers byte-identical to the pre-attach snapshot, modulo
    pages the guest itself dirtied. [Error (Rollback_failed _)] when an
    undo entry failed; ptrace is dropped regardless. *)
