module Host = Hostos.Host
module Proc = Hostos.Proc
module Ptrace = Hostos.Ptrace
module Syscall = Hostos.Syscall
module Errno = Hostos.Errno

type vcpu_handle = { index : int; fd_num : int; run_hva : int }

type t = {
  h : Host.t;
  vmsh : Proc.t;
  tracee_pid : int;
  session : Ptrace.session;
  vm_fd_num : int;
  vcpu_list : vcpu_handle list;
  scratch_hva : int;
  seccomp_heuristic : bool;
}

let pid t = t.tracee_pid
let vm_fd t = t.vm_fd_num
let vcpus t = t.vcpu_list
let vmsh_proc t = t.vmsh
let host t = t.h
let scratch t = t.scratch_hva

let ( let* ) = Result.bind

let err m = Error (Vmsh_error.Msg m)

(* Per-phase profiling, always-on: each attach phase feeds its virtual
   duration into a stage.attach.<name>_ns histogram and one
   "attach.phase" flight-recorder event. Pure observation — identical
   in every run — so determinism is preserved. The span inside only
   writes records while tracing is on. *)
let phase h name ?(attrs = []) f =
  let obs = h.Host.observe in
  let clock = h.Host.clock in
  let t0 = Hostos.Clock.now_ns clock in
  let finish () =
    let dur = Hostos.Clock.now_ns clock -. t0 in
    Observe.Metrics.observe
      (Observe.Metrics.histogram (Observe.metrics obs)
         ("stage.attach." ^ name ^ "_ns"))
      dur;
    Trace.Recorder.record h.Host.recorder ~kind:"attach.phase"
      ~args:[ ("name", Trace.S name); ("dur_ns", Trace.I (int_of_float dur)) ]
      ();
    Observe.log obs Observe.Debug "attach phase %s: %.0f ns" name dur
  in
  match Observe.span obs ~name ~attrs f with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* /proc-based discovery of the KVM descriptors (paper §5). *)
let discover_kvm host ~pid =
  let fds = Host.proc_fd_listing host ~pid in
  let vm_fd =
    List.find_opt (fun (_, label) -> label = "anon_inode:kvm-vm") fds
  in
  let vcpu_fds =
    List.filter_map
      (fun (num, label) ->
        match
          (try Scanf.sscanf label "anon_inode:kvm-vcpu:%d" (fun i -> Some i)
           with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
        with
        | Some index -> Some (index, num)
        | None -> None)
      fds
  in
  match vm_fd with
  | None -> err "no kvm-vm descriptor found in /proc/<pid>/fd"
  | Some (vm_fd_num, _) ->
      if vcpu_fds = [] then err "no kvm-vcpu descriptors found"
      else begin
        (* kvm_run pages from /proc/<pid>/maps *)
        let maps = Host.proc_maps host ~pid in
        let run_hva_of index =
          let tag = Printf.sprintf "kvm-vcpu-run:%d" index in
          List.find_opt (fun (_, _, t) -> t = tag) maps
          |> Option.map (fun (base, _, _) -> base)
        in
        let handles =
          List.filter_map
            (fun (index, fd_num) ->
              match run_hva_of index with
              | Some run_hva -> Some { index; fd_num; run_hva }
              | None -> None)
            (List.sort compare vcpu_fds)
        in
        if handles = [] then err "could not locate mmapped kvm_run pages"
        else Ok (vm_fd_num, handles)
      end

let classify ~nr ret =
  if ret < 0 then
    Error
      (match Errno.of_syscall_ret ret with
      | Error e ->
          Vmsh_error.Injection
            (Printf.sprintf "injected %s failed" (Syscall.Nr.name nr), e)
      | Ok _ -> assert false)
  else Ok ret

(* EINTR/EAGAIN from an injected syscall means the stop raced a signal
   and the call never executed — always safe to re-inject verbatim.
   EPERM is never retried: the seccomp heuristic depends on seeing it. *)
let transient_ret ret =
  match Errno.of_syscall_ret ret with
  | Error Errno.EINTR | Error Errno.EAGAIN -> true
  | _ -> false

let inject_raw h session ?tid ~nr ~args () =
  let inject () = Ptrace.inject_syscall h session ?tid ~nr ~args () in
  Retry.with_backoff h ~counter:"recovery.syscall_retry"
    ~should_retry:(function Ok ret -> transient_ret ret | Error _ -> false)
    inject (inject ())

let inject_session h session ~nr ~args =
  match inject_raw h session ~nr ~args () with
  | Error e -> Error (Vmsh_error.Injection ("injection transport", e))
  | Ok ret -> classify ~nr ret

(* The seccomp heuristic: probe every tracee thread until one's filter
   lets the syscall through. An organic EPERM from the syscall itself is
   indistinguishable from a filter kill — the heuristic's documented
   imprecision — so EPERM from the last thread is reported as such. *)
let inject_any_thread h session tracee_pid ~nr ~args =
  let threads =
    match Host.find_proc h ~pid:tracee_pid with
    | Some p -> List.map (fun th -> th.Proc.tid) p.Proc.threads
    | None -> []
  in
  let rec try_tids last = function
    | [] -> last
    | tid :: rest -> (
        match inject_raw h session ~tid ~nr ~args () with
        | Error e -> Error (Vmsh_error.Injection ("injection transport", e))
        | Ok ret ->
            if Errno.of_syscall_ret ret = Error Errno.EPERM then
              try_tids (classify ~nr ret) rest
            else classify ~nr ret)
  in
  try_tids (err "tracee has no threads") threads

let attach ?(seccomp_heuristic = false) h ~vmsh ~pid =
  let* session =
    phase h "ptrace-attach"
      ~attrs:[ ("pid", Trace.I pid) ]
      (fun () ->
        let attach () = Ptrace.attach h ~tracer:vmsh ~pid in
        match
          Retry.with_backoff h ~counter:"recovery.attach_retry"
            ~should_retry:(function
              | Error Errno.EAGAIN -> true
              | _ -> false)
            attach (attach ())
        with
        | Ok s ->
            Ptrace.interrupt h s;
            Ok s
        | Error e -> Error (Vmsh_error.Injection ("ptrace attach", e)))
  in
  (* a failed discovery hands the caller no session to detach: release
     the tracee here, or it stays traced and refuses every later attach *)
  let discovered =
    try
      phase h "fd-discovery" (fun () ->
          let* vm_fd_num, vcpu_list = discover_kvm h ~pid in
          let* scratch_hva =
            if seccomp_heuristic then
              inject_any_thread h session pid ~nr:Syscall.Nr.mmap
                ~args:[| 0; 8192 |]
            else
              inject_session h session ~nr:Syscall.Nr.mmap ~args:[| 0; 8192 |]
          in
          Ok (vm_fd_num, vcpu_list, scratch_hva))
    with e ->
      Ptrace.detach h session;
      raise e
  in
  if Result.is_error discovered then Ptrace.detach h session;
  let* vm_fd_num, vcpu_list, scratch_hva = discovered in
  Ok
    {
      h;
      vmsh;
      tracee_pid = pid;
      session;
      vm_fd_num;
      vcpu_list;
      scratch_hva;
      seccomp_heuristic;
    }

let detach t = Ptrace.detach t.h t.session

let inject t ~nr ~args =
  (* fleet interleave point: one injected syscall per scheduler slice.
     Also a crash point for the abort-at-yield sweep — ticked before the
     yield so the crash fires whether or not a scheduler is running. *)
  Faults.yield_tick t.h.Host.faults;
  Sched.yield ();
  let r =
    if t.seccomp_heuristic then
      inject_any_thread t.h t.session t.tracee_pid ~nr ~args
    else inject_session t.h t.session ~nr ~args
  in
  Trace.Recorder.record t.h.Host.recorder ~kind:"inject.syscall"
    ~args:
      (("nr", Trace.S (Syscall.Nr.name nr))
      ::
      (match r with
      | Ok ret -> [ ("ret", Trace.I ret) ]
      | Error e -> [ ("err", Trace.S (Vmsh_error.to_string e)) ]))
    ();
  r

let retry_vm_rw h f =
  Retry.with_backoff h ~counter:"recovery.vm_rw_retry"
    ~should_retry:(function
      | Error (Errno.EFAULT | Errno.EAGAIN) -> true
      | _ -> false)
    f (f ())

let write_scratch t ?(off = 0) b =
  match
    retry_vm_rw t.h (fun () ->
        Host.process_vm_write t.h ~caller:t.vmsh ~pid:t.tracee_pid
          ~addr:(t.scratch_hva + off) b)
  with
  | Ok () -> t.scratch_hva + off
  | Error e -> Vmsh_error.fail (Vmsh_error.Injection ("Tracee.write_scratch", e))

let read_scratch t ?(off = 0) len =
  match
    retry_vm_rw t.h (fun () ->
        Host.process_vm_read t.h ~caller:t.vmsh ~pid:t.tracee_pid
          ~addr:(t.scratch_hva + off) ~len)
  with
  | Ok b -> b
  | Error e -> Vmsh_error.fail (Vmsh_error.Injection ("Tracee.read_scratch", e))

let inject_ioctl t ~fd ~code ?arg () =
  let ptr =
    match arg with Some b -> write_scratch t b | None -> t.scratch_hva
  in
  inject t ~nr:Syscall.Nr.ioctl ~args:[| fd; code; ptr |]

let get_vcpu_regs t vcpu =
  let* _ =
    inject_ioctl t ~fd:vcpu.fd_num ~code:Kvm.Api.get_regs
      ~arg:(Bytes.make Kvm.Api.regs_size '\000')
      ()
  in
  Ok (Kvm.Api.regs_of_bytes (read_scratch t Kvm.Api.regs_size))

let set_vcpu_regs t vcpu regs =
  let* _ =
    inject_ioctl t ~fd:vcpu.fd_num ~code:Kvm.Api.set_regs
      ~arg:(Kvm.Api.regs_to_bytes regs) ()
  in
  Ok ()

let hook_syscalls t ~on_entry ~on_exit =
  Ptrace.hook_syscalls t.h t.session ~on_entry ~on_exit

let unhook_syscalls t = Ptrace.unhook_syscalls t.h t.session

let connect_back ?(on_socket = fun (_ : int) -> ()) t ~path =
  let* sock = inject t ~nr:Syscall.Nr.socket ~args:[| 1; 1; 0 |] in
  (* the connect() below is itself a yield (and crash) point: give the
     caller the descriptor now so its undo is journaled before we can
     die with the socket already open in the tracee *)
  on_socket sock;
  let path_ptr = write_scratch t ~off:2048 (Bytes.of_string path) in
  let* _ =
    inject t ~nr:Syscall.Nr.connect
      ~args:[| sock; path_ptr; String.length path |]
  in
  Ok sock

let send_fds_back t ~sock_fd fds =
  let msg = Syscall.encode_scm_rights fds in
  let msg_ptr = write_scratch t ~off:2048 msg in
  let* _ =
    inject t ~nr:Syscall.Nr.sendmsg
      ~args:[| sock_fd; msg_ptr; Bytes.length msg |]
  in
  Ok ()
