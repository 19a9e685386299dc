type t = {
  clock : Clock.t;
  observe : Observe.t;
  recorder : Trace.Recorder.t;
  rng : Rng.t;
  mutable procs : Proc.t list;
  mutable next_pid : int;
  ebpf_progs : (string, Ebpf.prog list ref) Hashtbl.t;
  unix_listeners : (string, Fd.t Queue.t) Hashtbl.t;
  mutable faults : Faults.t;
}

let create ?(seed = 0xb5ee5) ?costs () =
  let clock = Clock.create ?costs () in
  let recorder =
    Trace.Recorder.create ~now:(fun () -> Clock.now_ns clock) ()
  in
  Trace.Recorder.set_meta recorder "seed" (string_of_int seed);
  {
    clock;
    observe =
      Observe.create ~recorder
        ~counters:(fun () -> Clock.to_fields (Clock.counters clock))
        ();
    recorder;
    rng = Rng.create ~seed;
    procs = [];
    next_pid = 100;
    ebpf_progs = Hashtbl.create 8;
    unix_listeners = Hashtbl.create 8;
    faults = Faults.disabled;
  }

(* Install a fault plan and point its injection counters at this host's
   metric registry. The default [Faults.disabled] plan never draws, so
   unarmed hosts behave bit-identically to builds without lib/faults.
   The flight-recorder header is tagged with the plan's seed so a
   failure artifact names the exact fault stream that produced it. *)
let arm_faults t plan =
  Faults.set_metrics plan (Some (Observe.metrics t.observe));
  Trace.Recorder.set_meta t.recorder "fault-plan-seed"
    (string_of_int (Faults.seed plan));
  t.faults <- plan

let spawn t ~name ?(uid = 1000) ?(caps = []) () =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let p = Proc.create ~pid ~name ~uid in
  p.Proc.caps <- caps;
  t.procs <- t.procs @ [ p ];
  p

let reap t p =
  if Proc.fd_numbers p = [] then t.procs <- List.filter (( != ) p) t.procs

(* The process with [pid]; [Not_found] if none. A loop rather than a
   [List.find_opt] closure, so a remote copy's lookup allocates
   nothing. *)
let rec proc_with pid = function
  | [] -> raise_notrace Not_found
  | p :: rest -> if p.Proc.pid = pid then p else proc_with pid rest

let find_proc t ~pid =
  match proc_with pid t.procs with p -> Some p | exception Not_found -> None

let proc_exn t ~pid =
  match find_proc t ~pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Host.proc_exn: no pid %d" pid)

let proc_fd_listing t ~pid =
  match find_proc t ~pid with
  | None -> []
  | Some p ->
      List.filter_map
        (fun n ->
          match Proc.fd p n with
          | Ok f -> Some (n, f.Fd.label)
          | Error _ -> None)
        (Proc.fd_numbers p)

let proc_comm t ~pid =
  match find_proc t ~pid with
  | None -> Error Errno.ESRCH
  | Some p -> Ok p.Proc.proc_name

let pids t = List.map (fun p -> p.Proc.pid) t.procs

let proc_maps t ~pid =
  match find_proc t ~pid with
  | None -> []
  | Some p ->
      List.map
        (fun m ->
          Mem.Addr_space.(m.base, m.len, m.tag))
        (Mem.Addr_space.mappings p.Proc.aspace)

(* --- eBPF --- *)

let attach_ebpf t ~caller ~hook prog =
  if not (Proc.has_cap caller CAP_BPF || Proc.has_cap caller CAP_SYS_ADMIN)
  then Error Errno.EPERM
  else
    match Ebpf.verify prog with
    | Error _ as e -> e
    | Ok () ->
        let cell =
          match Hashtbl.find_opt t.ebpf_progs hook with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.replace t.ebpf_progs hook c;
              c
        in
        cell := !cell @ [ prog ];
        Ok ()

let detach_ebpf t ~hook ~name =
  match Hashtbl.find_opt t.ebpf_progs hook with
  | None -> ()
  | Some cell -> cell := List.filter (fun p -> p.Ebpf.name <> name) !cell

let fire_ebpf t ~hook ~args kdata =
  match Hashtbl.find_opt t.ebpf_progs hook with
  | None -> None
  | Some cell ->
      let ctx = { Ebpf.hook; args; kdata; output = None } in
      List.iter
        (fun p ->
          Clock.advance t.clock 80.0;
          p.Ebpf.run ctx)
        !cell;
      ctx.Ebpf.output

(* --- UNIX sockets --- *)

let make_sock_pair () =
  let c1 = Chan.create () and c2 = Chan.create () in
  let qa = Queue.create () and qb = Queue.create () in
  let chan_ops rx tx =
    {
      Fd.default_ops with
      read = (fun ~len -> Chan.read rx len);
      write = (fun b -> Chan.write tx b);
    }
  in
  let end_a ~num =
    Fd.make ~num
      ~kind:(Fd.Sock { rx = c1; tx = c2; fdq_in = qa; fdq_out = qb })
      ~ops:(chan_ops c1 c2) ~label:"socket:[unix]" ()
  and end_b ~num =
    Fd.make ~num
      ~kind:(Fd.Sock { rx = c2; tx = c1; fdq_in = qb; fdq_out = qa })
      ~ops:(chan_ops c2 c1) ~label:"socket:[unix]" ()
  in
  (end_a, end_b)

let unix_bind t p ~path =
  if Hashtbl.mem t.unix_listeners path then Error Errno.EEXIST
  else begin
    let q = Queue.create () in
    Hashtbl.replace t.unix_listeners path q;
    let fd =
      Proc.install_fd p (fun ~num ->
          Fd.make ~num ~label:(Printf.sprintf "socket:[unix-listen %s]" path) ())
    in
    Ok fd
  end

(* Rollback of unix_bind: forget the listener so the path can be bound
   again by a later attach. Pending (unaccepted) peer ends are dropped
   with the queue. *)
let unix_unbind t ~path = Hashtbl.remove t.unix_listeners path

let unix_connect t p ~path =
  match Hashtbl.find_opt t.unix_listeners path with
  | None -> Error Errno.ENOENT
  | Some pending ->
      let make_a, make_b = make_sock_pair () in
      let mine = Proc.install_fd p (fun ~num -> make_a ~num) in
      (* The peer end has no owner yet; it is installed at accept time.
         Descriptor number 0 is a placeholder until then. *)
      Queue.push (make_b ~num:0) pending;
      Clock.syscall t.clock;
      Ok mine

let unix_accept t p ~listener =
  let path_of label =
    (* label is "socket:[unix-listen <path>]" *)
    try Scanf.sscanf label "socket:[unix-listen %s@]" (fun s -> Some s)
    with Scanf.Scan_failure _ | End_of_file -> None
  in
  match path_of listener.Fd.label with
  | None -> Error Errno.EINVAL
  | Some path -> (
      match Hashtbl.find_opt t.unix_listeners path with
      | None -> Error Errno.EBADF
      | Some pending ->
          if Queue.is_empty pending then Error Errno.EAGAIN
          else begin
            let peer = Queue.pop pending in
            let fd =
              Proc.install_fd p (fun ~num -> { peer with Fd.num })
            in
            Clock.syscall t.clock;
            Ok fd
          end)

let send_fd t ~sock passed =
  match sock.Fd.kind with
  | Fd.Sock { fdq_out; _ } ->
      Queue.push passed fdq_out;
      Clock.syscall t.clock;
      Ok ()
  | _ -> Error Errno.EINVAL

let recv_fd t p ~sock =
  match sock.Fd.kind with
  | Fd.Sock { fdq_in; _ } ->
      if Queue.is_empty fdq_in then Error Errno.EAGAIN
      else begin
        let passed = Queue.pop fdq_in in
        let fd = Proc.install_fd p (fun ~num -> { passed with Fd.num }) in
        Clock.syscall t.clock;
        Ok fd
      end
  | _ -> Error Errno.EINVAL

(* --- remote memory --- *)

let may_access caller target =
  caller.Proc.uid = target.Proc.uid
  || caller.Proc.uid = 0
  || Proc.has_cap caller CAP_SYS_PTRACE

type direction = Read | Write

let rec iov_bytes acc = function
  | [] -> acc
  | (_, len) :: rest -> iov_bytes (acc + len) rest

(* Segment [(addr, len)] of a remote copy, at [buf]'s [off]. *)
let copy_segment dir aspace addr len buf off =
  match dir with
  | Read -> Mem.Addr_space.read_into aspace addr buf off len
  | Write -> Mem.Addr_space.write_from aspace addr buf off len

let rec copy_segments dir aspace buf off = function
  | [] -> ()
  | (addr, len) :: rest ->
      copy_segment dir aspace addr len buf off;
      copy_segments dir aspace buf (off + len) rest

(* The one syscall body of process_vm_readv/writev: lookup, permission
   check, one fault-injection draw, one charge on the summed byte
   count, then the copy of [(addr, len)] and the [more] segments after
   it into consecutive bytes of [buf] from [off]. A bad segment fails
   the call with EFAULT: a read leaves [buf] partly filled, a write
   leaves earlier segments written, as with the real syscall's partial
   transfer. Nothing here allocates on success. *)
let remote_copy t dir ~caller ~pid ~addr ~len ~more buf ~off =
  match proc_with pid t.procs with
  | exception Not_found -> Error Errno.ESRCH
  | target ->
      if not (may_access caller target) then Error Errno.EPERM
      else if Faults.fire t.faults Faults.Vm_rw_efault then begin
        (* Transient fault: the syscall entered the kernel and bounced. *)
        Clock.syscall t.clock;
        Error Errno.EFAULT
      end
      else begin
        Clock.syscall t.clock;
        Clock.copy_bytes_remote t.clock (iov_bytes len more);
        let aspace = target.Proc.aspace in
        match
          copy_segment dir aspace addr len buf off;
          copy_segments dir aspace buf (off + len) more
        with
        | () -> Ok ()
        | exception Invalid_argument _ -> Error Errno.EFAULT
      end

let process_vm_readv t ~caller ~pid ~iov buf ~off =
  match iov with
  | [] -> remote_copy t Read ~caller ~pid ~addr:0 ~len:0 ~more:[] buf ~off
  | (addr, len) :: more -> remote_copy t Read ~caller ~pid ~addr ~len ~more buf ~off

let process_vm_read t ~caller ~pid ~addr ~len =
  let b = Bytes.create len in
  Result.map
    (fun () -> b)
    (remote_copy t Read ~caller ~pid ~addr ~len ~more:[] b ~off:0)

let process_vm_write t ~caller ~pid ~addr b =
  remote_copy t Write ~caller ~pid ~addr ~len:(Bytes.length b) ~more:[] b
    ~off:0
