module Nr = struct
  let read = 0
  let write = 1
  let close = 3
  let pread64 = 17
  let pwrite64 = 18
  let mmap = 9
  let munmap = 11
  let ioctl = 16
  let socket = 41
  let connect = 42
  let sendmsg = 46
  let recvmsg = 47
  let eventfd2 = 290
  let process_vm_readv = 310

  let name = function
    | 0 -> "read"
    | 1 -> "write"
    | 3 -> "close"
    | 9 -> "mmap"
    | 17 -> "pread64"
    | 18 -> "pwrite64"
    | 11 -> "munmap"
    | 16 -> "ioctl"
    | 41 -> "socket"
    | 42 -> "connect"
    | 46 -> "sendmsg"
    | 47 -> "recvmsg"
    | 290 -> "eventfd2"
    | 310 -> "process_vm_readv"
    | 311 -> "process_vm_writev"
    | n -> Printf.sprintf "sys_%d" n
end

let mmap_area_base = 0x5000_0000_0000

let encode_scm_rights fds =
  let b = Bytes.create (4 + (4 * List.length fds)) in
  Bytes.set_int32_le b 0 (Int32.of_int (List.length fds));
  List.iteri (fun i fd -> Bytes.set_int32_le b (4 + (4 * i)) (Int32.of_int fd)) fds;
  b

let decode_scm_rights b =
  if Bytes.length b < 4 then None
  else
    let n = Int32.to_int (Bytes.get_int32_le b 0) in
    if n < 0 || Bytes.length b < 4 + (4 * n) then None
    else
      Some
        (List.init n (fun i -> Int32.to_int (Bytes.get_int32_le b (4 + (4 * i)))))

(* Read [len] bytes at [ptr] in the process address space, EFAULT-safe. *)
let user_read p ptr len =
  match Mem.Addr_space.read p.Proc.aspace ptr len with
  | b -> Ok b
  | exception Invalid_argument _ -> Error Errno.EFAULT

let user_write p ptr b =
  match Mem.Addr_space.write p.Proc.aspace ptr b with
  | () -> Ok ()
  | exception Invalid_argument _ -> Error Errno.EFAULT

let dispatch host p (th : Proc.thread) : int Errno.result =
  let regs = th.Proc.regs in
  let nr = regs.X86.Regs.rax in
  let a1 = regs.rdi and a2 = regs.rsi and a3 = regs.rdx in
  let open Errno in
  if nr = Nr.mmap then begin
    (* mmap(addr_hint, len, prot, flags, fd, off) — anonymous only *)
    let len = a2 in
    if len <= 0 then Error EINVAL
    else begin
      let backing =
        match p.Proc.mmap_backing with
        | Some alloc -> alloc len
        | None -> Mem.create len
      in
      let hint = if a1 <> 0 then a1 else mmap_area_base in
      let base = Mem.Addr_space.find_free p.Proc.aspace ~hint ~len in
      Mem.Addr_space.map p.Proc.aspace
        { base; len; backing; backing_off = 0; tag = "mmap" };
      Ok base
    end
  end
  else if nr = Nr.munmap then begin
    Mem.Addr_space.unmap p.Proc.aspace ~base:a1;
    Ok 0
  end
  else if nr = Nr.close then
    Result.map (fun () -> 0) (Proc.close_fd p a1)
  else if nr = Nr.read then
    match Proc.fd p a1 with
    | Error e -> Error e
    | Ok f -> (
        match f.Fd.ops.read ~len:a3 with
        | Error e -> Error e
        | Ok data -> (
            Clock.copy_bytes host.Host.clock (Bytes.length data);
            match user_write p a2 data with
            | Ok () -> Ok (Bytes.length data)
            | Error e -> Error e))
  else if nr = Nr.write then
    match Proc.fd p a1 with
    | Error e -> Error e
    | Ok f -> (
        match user_read p a2 a3 with
        | Error e -> Error e
        | Ok data ->
            Clock.copy_bytes host.Host.clock (Bytes.length data);
            f.Fd.ops.write data)
  else if nr = Nr.pread64 then
    (* pread64(fd, buf, len, off) *)
    match Proc.fd p a1 with
    | Error e -> Error e
    | Ok f -> (
        match f.Fd.ops.pread ~off:regs.r10 ~len:a3 with
        | Error e -> Error e
        | Ok data -> (
            Clock.copy_bytes host.Host.clock (Bytes.length data);
            match user_write p a2 data with
            | Ok () -> Ok (Bytes.length data)
            | Error e -> Error e))
  else if nr = Nr.pwrite64 then
    match Proc.fd p a1 with
    | Error e -> Error e
    | Ok f -> (
        match user_read p a2 a3 with
        | Error e -> Error e
        | Ok data ->
            Clock.copy_bytes host.Host.clock (Bytes.length data);
            f.Fd.ops.pwrite ~off:regs.r10 data)
  else if nr = Nr.ioctl then
    match Proc.fd p a1 with
    | Error e -> Error e
    | Ok f -> f.Fd.ops.ioctl ~code:a2 ~arg:a3
  else if nr = Nr.eventfd2 then begin
    let fd = Proc.install_fd p (fun ~num -> Fd.eventfd ~num) in
    Ok fd.Fd.num
  end
  else if nr = Nr.socket then begin
    (* Descriptor is completed by a subsequent connect; represent the
       unconnected socket as an anonymous fd replaced on connect. *)
    let fd =
      Proc.install_fd p (fun ~num -> Fd.make ~num ~label:"socket:[unconnected]" ())
    in
    Ok fd.Fd.num
  end
  else if nr = Nr.connect then begin
    (* connect(fd, path_ptr, path_len); replaces fd's slot with the
       connected socket end. *)
    match user_read p a2 a3 with
    | Error e -> Error e
    | Ok pathb -> (
        let path = Bytes.to_string pathb in
        match Host.unix_connect host p ~path with
        | Error e -> Error e
        | Ok sock ->
            Hashtbl.remove p.Proc.fds a1;
            Hashtbl.replace p.Proc.fds a1 { sock with Fd.num = a1 };
            Hashtbl.remove p.Proc.fds sock.Fd.num;
            Ok 0)
  end
  else if nr = Nr.sendmsg then begin
    (* sendmsg(fd, msg_ptr, msg_len) with the simplified SCM_RIGHTS wire
       format documented in the interface. *)
    match Proc.fd p a1 with
    | Error e -> Error e
    | Ok sock -> (
        match user_read p a2 a3 with
        | Error e -> Error e
        | Ok msg -> (
            match decode_scm_rights msg with
            | None -> Error EINVAL
            | Some fdnums ->
                let rec send = function
                  | [] -> Ok 0
                  | n :: rest -> (
                      match Proc.fd p n with
                      | Error e -> Error e
                      | Ok f -> (
                          match Host.send_fd host ~sock f with
                          | Error e -> Error e
                          | Ok () -> send rest))
                in
                send fdnums))
  end
  else if nr = Nr.recvmsg then
    match Proc.fd p a1 with
    | Error e -> Error e
    | Ok sock -> (
        match Host.recv_fd host p ~sock with
        | Error e -> Error e
        | Ok fd ->
            let msg = encode_scm_rights [ fd.Fd.num ] in
            Result.map (fun () -> fd.Fd.num) (user_write p a2 msg))
  else Error ENOSYS

let seccomp_allows (th : Proc.thread) nr =
  match th.Proc.seccomp with None -> true | Some f -> f.Proc.allows nr

let rec run_once host p th =
  let nr = th.Proc.regs.X86.Regs.rax in
  Clock.syscall host.Host.clock;
  let result =
    if not (seccomp_allows th nr) then Error Errno.EPERM
    else dispatch host p th
  in
  th.Proc.regs.X86.Regs.rax <- Errno.to_syscall_ret result;
  if Trace.Recorder.detail host.Host.recorder then
    Trace.Recorder.record host.Host.recorder ~phase:Trace.Instant
      ~kind:("syscall." ^ Nr.name nr)
      ~args:[ ("ret", Trace.I (Errno.to_syscall_ret result)) ]
      ();
  match p.Proc.hook with
  | Some hook -> (
      match hook.Proc.on_exit th with
      | Proc.Deliver -> ()
      | Proc.Reenter ->
          (* Restore the syscall number clobbered by the return value and
             run the same syscall again, invisibly to the tracee. *)
          th.Proc.regs.X86.Regs.rax <- nr;
          run_once host p th)
  | None -> ()

let invoke host p th =
  (match p.Proc.hook with Some hook -> hook.Proc.on_entry th | None -> ());
  run_once host p th

let call host p th ~nr ~args =
  if Array.length args > 6 then invalid_arg "Syscall.call: more than 6 args";
  let regs = th.Proc.regs in
  let get i = if Array.length args > i then args.(i) else 0 in
  regs.X86.Regs.rax <- nr;
  regs.rdi <- get 0;
  regs.rsi <- get 1;
  regs.rdx <- get 2;
  regs.r10 <- get 3;
  regs.r8 <- get 4;
  regs.r9 <- get 5;
  invoke host p th;
  regs.X86.Regs.rax
