(** VMSH's window into guest memory, through the hypervisor process.

    Built from the memslot table recovered by the eBPF program: guest-
    physical addresses resolve to hypervisor-virtual addresses, which
    are then read/written with process_vm_readv / process_vm_writev.
    Two copy strategies are supported — the optimised bulk path the
    paper ships, and the 8-bytes-at-a-time fallback used before that
    optimisation ("doubles the performance", §5) — selectable for the
    ablation benchmark. *)

type slot = Kvm.Vm.memslot = { slot : int; gpa : int; size : int; hva : int }
(** One KVM memslot, id included, as the eBPF dump reports it. *)

type copy_mode =
  | Bulk
      (** one process_vm call per transfer, directly between the
          hypervisor and the device file (the paper's optimisation) *)
  | Chunked_4k
      (** the pre-optimisation path: pread/pwrite through a local bounce
          buffer, 4 KiB at a time — an extra syscall and an extra copy
          per page ("doubles the performance in Phoronix", §5) *)
  | Peek_u64
      (** PTRACE_PEEKDATA-style: one call per 8 bytes (the naive
          fallback a debugger-API-only implementation would use) *)

type t

val create :
  Hostos.Host.t -> vmsh:Hostos.Proc.t -> hypervisor_pid:int ->
  slots:slot list -> ?mode:copy_mode -> unit -> t

val host : t -> Hostos.Host.t
val slots : t -> slot list

(** [add_slot] records a memslot VMSH itself registered (its own
    guest-physical allocation at the top of the address space). *)
val add_slot : t -> slot -> unit

val remove_slot : t -> gpa:int -> unit
(** Forget the slot based at [gpa] (rollback of [add_slot]). *)

val mode : t -> copy_mode
val set_mode : t -> copy_mode -> unit

val set_journal : t -> Journal.t option -> unit
(** Attach a guest-mutation journal: every subsequent {!write_phys}
    first records the overwritten bytes as an undo entry (or, once the
    journal is sealed, its late-write pages). [None] detaches it —
    rollback itself writes through the raw path. *)

val journal : t -> Journal.t option

val top_of_guest_phys : t -> int
(** One past the highest guest-physical address backed by a slot — where
    VMSH places its own memory ("hypervisors allocate from low to
    high", §4.2). *)

val backed : t -> gpa:int -> len:int -> bool
(** Whether the whole guest-physical range resolves to memslots — the
    descriptor bounds check, free of side effects (no syscalls, no
    raises). *)

val read_phys_into : t -> gpa:int -> bytes -> off:int -> len:int -> unit
(** [read_phys_into t ~gpa buf ~off ~len] copies [len] guest-physical
    bytes into [buf] at [off]: under [Bulk], one vectored
    process_vm_readv for the whole range, however many memslots back
    it. The one read path; raises [Failure] on unbacked addresses or
    access errors. *)

val read_phys : t -> gpa:int -> len:int -> bytes
(** {!read_phys_into} a fresh buffer. *)

val write_phys_from : t -> gpa:int -> bytes -> off:int -> len:int -> unit
(** [write_phys_from t ~gpa buf ~off ~len] writes [len] bytes of [buf]
    from [off]. With a journal set, the overwritten bytes are recorded
    first (see {!set_journal}). *)

val write_phys : t -> gpa:int -> bytes -> unit
(** {!write_phys_from} all of a buffer. *)

val read_phys_u64 : t -> int -> int
val write_phys_u64 : t -> int -> int -> unit

val pt_access : t -> X86.Page_table.access
(** Page-table accessors over this remote view (what the sideloader's
    CR3 walk uses). *)

val virt_pages :
  t -> cr3:int -> va:int -> len:int ->
  (gpa:int -> pos:int -> len:int -> unit) -> bool
(** [virt_pages t ~cr3 ~va ~len f] is the page loop of every
    guest-virtual read: for each page-bounded piece of
    [\[va, va + len)] in order, walk the tables to its guest-physical
    address, then call [f ~gpa ~pos ~len] ([pos]: the piece's offset in
    the range), which reads it. [false] at the first unmapped page; the
    pieces before it have been handed over by then. *)

val read_virt : t -> cr3:int -> va:int -> len:int -> bytes option
(** {!virt_pages} with one {!read_phys_into} per page into a fresh
    buffer; [None] if any page is unmapped. *)

val read_hva : t -> hva:int -> len:int -> bytes
(** Raw hypervisor-virtual read (e.g. the kvm_run pages), in the
    current {!copy_mode}. *)

val write_hva : t -> hva:int -> bytes -> unit
