(** Side-loading the kernel library into the guest (paper §4.1–4.2).

    Allocates fresh guest-physical memory at the top of the guest
    address space (hypervisors hand out physical addresses from low to
    high, so the top is collision-free), by injecting an mmap plus a
    KVM_SET_USER_MEMORY_REGION into the hypervisor. Links the ELF image
    against the addresses the symbol analysis recovered, writes it into
    the new region, maps it into guest *virtual* memory right after the
    kernel image by editing the live page tables, saves the interrupted
    vCPU context into the library's status page, and finally redirects
    RIP to the trampoline. *)

type loaded = {
  va_base : int;  (** where the library landed in guest virtual memory *)
  gpa_base : int;
  entry_va : int;
  status_gpa : int;
  blob_va : int;  (** saved-registers blob the trampoline restores *)
  saved_regs : X86.Regs.t;  (** the interrupted context *)
}

val memslot_base_index : int
(** 61: the lowest memslot id the library's region may take. *)

val free_memslot : Hyp_mem.slot list -> int
(** The slot id {!load} claims: the lowest from {!memslot_base_index}
    up that the VM's memslots leave free. *)

val load :
  tracee:Tracee.t -> mem:Hyp_mem.t ->
  analysis:Symbol_analysis.analysis ->
  image:Elfkit.Elf.t -> layout:Klib_builder.layout ->
  (loaded, Vmsh_error.t) result
(** Perform every step above except the final RIP redirect. *)

val redirect :
  tracee:Tracee.t -> mem:Hyp_mem.t -> loaded -> (unit, Vmsh_error.t) result
(** Point vCPU 0 at the library entry (with RDI = saved-context blob).
    Records the register restore on [mem]'s journal so detach/rollback
    resumes the interrupted context. *)

val poll_status : mem:Hyp_mem.t -> loaded -> int
(** Current value of the library's status word. *)
