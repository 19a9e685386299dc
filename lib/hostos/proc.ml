type cap = CAP_SYS_PTRACE | CAP_BPF | CAP_SYS_ADMIN | CAP_SETUID
[@@deriving show, eq]

type seccomp = { filter_name : string; allows : int -> bool }

type thread = {
  tid : int;
  mutable thread_name : string;
  regs : X86.Regs.t;
  mutable seccomp : seccomp option;
}

type exit_action = Deliver | Reenter

type syscall_hook = {
  on_entry : thread -> unit;
  on_exit : thread -> exit_action;
}

type t = {
  pid : int;
  mutable proc_name : string;
  mutable uid : int;
  mutable caps : cap list;
  aspace : Mem.Addr_space.t;
  fds : (int, Fd.t) Hashtbl.t;
  mutable next_fd : int;
  mutable threads : thread list;
  mutable tracer : int option;
  mutable hook : syscall_hook option;
  mutable exited : bool;
  mutable mmap_backing : (int -> Mem.t) option;
}

let make_thread ~tid ~name =
  { tid; thread_name = name; regs = X86.Regs.zero (); seccomp = None }

let create ~pid ~name ~uid =
  {
    pid;
    proc_name = name;
    uid;
    caps = [];
    aspace = Mem.Addr_space.create ();
    fds = Hashtbl.create 16;
    next_fd = 3;
    threads = [ make_thread ~tid:pid ~name ];
    tracer = None;
    hook = None;
    exited = false;
    mmap_backing = None;
  }

let add_thread t ~name =
  let tid = t.pid * 1000 + List.length t.threads in
  let th = make_thread ~tid ~name in
  t.threads <- t.threads @ [ th ];
  th

let main_thread t =
  match t.threads with
  | th :: _ -> th
  | [] -> invalid_arg "Proc.main_thread: no threads"

let find_thread t ~tid = List.find_opt (fun th -> th.tid = tid) t.threads

let install_fd t build =
  let num = t.next_fd in
  t.next_fd <- num + 1;
  let fd = build ~num in
  Hashtbl.replace t.fds num fd;
  fd

let fd t num =
  match Hashtbl.find_opt t.fds num with
  | Some f when not f.Fd.closed -> Ok f
  | _ -> Error Errno.EBADF

let close_fd t num =
  match Hashtbl.find_opt t.fds num with
  | Some f when not f.Fd.closed ->
      f.Fd.closed <- true;
      f.Fd.ops.close ();
      Hashtbl.remove t.fds num;
      Ok ()
  | _ -> Error Errno.EBADF

let fd_numbers t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.fds [] |> List.sort compare

let has_cap t c = List.mem c t.caps
let drop_cap t c = t.caps <- List.filter (fun c' -> c' <> c) t.caps
