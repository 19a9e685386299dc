type session = { tracer : Proc.t; tracee : Proc.t }

let may_trace tracer target =
  tracer.Proc.uid = 0
  || tracer.Proc.uid = target.Proc.uid
  || Proc.has_cap tracer CAP_SYS_PTRACE

let attach host ~tracer ~pid =
  match Host.find_proc host ~pid with
  | None -> Error Errno.ESRCH
  | Some tracee ->
      if not (may_trace tracer tracee) then Error Errno.EPERM
      else if tracee.Proc.tracer <> None then Error Errno.EPERM
      else if Faults.fire host.Host.faults Faults.Attach_race then begin
        (* The target took a competing stop between our permission check
           and the attach: the kernel reports EAGAIN and the tracee is
           left untouched, so the caller may simply retry. *)
        Clock.syscall host.Host.clock;
        Error Errno.EAGAIN
      end
      else begin
        tracee.Proc.tracer <- Some tracer.Proc.pid;
        Clock.syscall host.Host.clock;
        Ok { tracer; tracee }
      end

let detach _host s =
  s.tracee.Proc.tracer <- None;
  s.tracee.Proc.hook <- None

let check s =
  if s.tracee.Proc.tracer <> Some s.tracer.Proc.pid then Error Errno.ESRCH
  else Ok ()

let interrupt host s = ignore (check s); Clock.ptrace_stop host.Host.clock

let inject_syscall host s ?tid ~nr ~args () =
  match check s with
  | Error e -> Error e
  | Ok () -> (
      let tid = Option.value tid ~default:s.tracee.Proc.pid in
      match Proc.find_thread s.tracee ~tid with
      | None -> Error Errno.ESRCH
      | Some th ->
          Observe.span host.Host.observe
            ~name:("ptrace.inject." ^ Syscall.Nr.name nr)
            (fun () ->
              let faulted =
                if Faults.fire host.Host.faults Faults.Inject_eintr then
                  Some Errno.EINTR
                else if Faults.fire host.Host.faults Faults.Inject_eagain then
                  Some Errno.EAGAIN
                else None
              in
              match faulted with
              | Some e ->
                  (* The stop was delivered but the syscall never ran:
                     the tracee bounces back with a transient errno and
                     unchanged registers, exactly like a signal racing a
                     PTRACE_SYSCALL restart. Safe to retry verbatim. *)
                  Clock.ptrace_stop host.Host.clock;
                  Ok (-Errno.to_code e)
              | None ->
                  let saved = X86.Regs.copy th.Proc.regs in
                  (* Injected syscalls must not re-trigger the tracer's own
                     wrap_syscall hooks (the real implementation distinguishes
                     injected stops from organic ones). *)
                  let saved_hook = s.tracee.Proc.hook in
                  s.tracee.Proc.hook <- None;
                  Clock.ptrace_stop host.Host.clock;
                  let ret = Syscall.call host s.tracee th ~nr ~args in
                  Clock.ptrace_stop host.Host.clock;
                  s.tracee.Proc.hook <- saved_hook;
                  X86.Regs.restore th.Proc.regs ~from:saved;
                  Ok ret))

let hook_syscalls host s ~on_entry ~on_exit =
  let clock = host.Host.clock in
  s.tracee.Proc.hook <-
    Some
      {
        Proc.on_entry =
          (fun th ->
            Clock.ptrace_stop clock;
            on_entry th);
        on_exit =
          (fun th ->
            Clock.ptrace_stop clock;
            on_exit th);
      }

let unhook_syscalls _host s = s.tracee.Proc.hook <- None
