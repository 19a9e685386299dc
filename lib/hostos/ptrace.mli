(** The process-tracing facility VMSH builds its sideloader on.

    Mirrors the subset of ptrace(2) the paper uses: attaching to the
    hypervisor, PTRACE_INTERRUPT, register access, syscall injection
    (prepare registers per the syscall ABI, step one syscall in the
    tracee's context, restore), and syscall-entry/exit interception
    ([wrap_syscall]). Every stop charges ptrace-stop cost — this is the
    mechanism behind the wrap_syscall slowdowns of Fig. 6. *)

type session = { tracer : Proc.t; tracee : Proc.t }

val attach : Host.t -> tracer:Proc.t -> pid:int -> session Errno.result
(** Requires same uid or CAP_SYS_PTRACE; refuses double tracing. *)

val detach : Host.t -> session -> unit

val interrupt : Host.t -> session -> unit
(** PTRACE_INTERRUPT: stop the tracee (charges one ptrace stop). *)

val inject_syscall :
  Host.t -> session -> ?tid:int -> nr:int -> args:int array -> unit ->
  int Errno.result
(** Save the thread's registers, load the syscall ABI state, execute one
    syscall *in the tracee's context* (so the tracee's seccomp filter
    and descriptor table apply), restore the registers, and return the
    tracee-observed result. Two ptrace stops are charged (entry + exit),
    as with PTRACE_SYSCALL stepping. *)

val hook_syscalls :
  Host.t -> session -> on_entry:(Proc.thread -> unit) ->
  on_exit:(Proc.thread -> Proc.exit_action) -> unit
(** Install wrap_syscall interception on the tracee: every syscall of
    every tracee thread triggers the callbacks, each interception
    charging two ptrace stops (tracer wake-ups). *)

val unhook_syscalls : Host.t -> session -> unit
