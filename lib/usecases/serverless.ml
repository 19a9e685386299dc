module Sfs = Blockdev.Simplefs
module Image = Blockdev.Image
module Guest = Linux_guest.Guest
module Vmm = Hypervisor.Vmm

type lambda = {
  fn_name : string;
  vmm : Vmm.t;
  guest : Guest.t;
  mutable logs : string list;
  mutable pinned : bool;
  mutable reclaimed : bool;
}

type stack = {
  h : Hostos.Host.t;
  mutable pool : lambda list;
  handlers : (string * (string -> (string, string) result)) list;
}

let lambda_disk h fn =
  let manifest =
    [
      Image.file ~content:"#!lambda-runtime v1\n" "/usr/bin/lambda-runtime" 20;
      Image.file ~content:(fn ^ "\n") "/etc/lambda/function" (String.length fn + 1);
      Image.file ~content:(fn ^ "-host\n") "/etc/hostname" (String.length fn + 6);
    ]
  in
  match Image.pack ~clock:h.Hostos.Host.clock ~extra_blocks:256 manifest with
  | Ok (_backend, fs) ->
      ignore (Sfs.mkdir_p fs "/dev");
      ignore (Sfs.mkdir_p fs "/var/log");
      Sfs.sync fs;
      _backend
  | Error e -> failwith ("lambda disk: " ^ Hostos.Errno.show e)

let create_stack h ~functions =
  let pool =
    List.map
      (fun (fn_name, _) ->
        (* vHive runs lambdas in slim Firecracker microVMs; seccomp is
           relaxed so VMSH can attach (paper §6.2/§6.5) *)
        let vmm =
          Vmm.create h ~profile:Hypervisor.Profile.firecracker
            ~disk:(lambda_disk h fn_name) ~disable_seccomp:true ()
        in
        let guest = Vmm.boot vmm ~version:Linux_guest.Kernel_version.V5_10 in
        {
          fn_name;
          vmm;
          guest;
          logs = [];
          pinned = false;
          reclaimed = false;
        })
      functions
  in
  { h; pool; handlers = functions }

let lambdas t = t.pool

let log_line lam line =
  lam.logs <- lam.logs @ [ line ];
  (* logs are also written inside the guest (what the operator greps) *)
  Vmm.run_task lam.vmm ~name:"log-append" (fun () ->
      let ns = Guest.root_ns lam.guest in
      let existing =
        match Guest.file_read lam.guest ~ns "/var/log/lambda.log" with
        | Ok b -> Bytes.to_string b
        | Error _ -> ""
      in
      ignore
        (Guest.file_write lam.guest ~ns "/var/log/lambda.log"
           (Bytes.of_string (existing ^ line ^ "\n"))))

let invoke t ~fn ~payload =
  match List.find_opt (fun l -> l.fn_name = fn && not l.reclaimed) t.pool with
  | None -> Error ("no instance for function " ^ fn)
  | Some lam -> (
      match List.assoc_opt fn t.handlers with
      | None -> Error "no handler"
      | Some handler -> (
          match handler payload with
          | Ok result ->
              log_line lam (Printf.sprintf "INFO invocation ok: %s" result);
              Ok result
          | Error msg ->
              log_line lam (Printf.sprintf "ERROR invocation failed: %s" msg);
              Error msg))

let find_faulty t =
  let has_error lam =
    List.exists
      (fun line -> String.length line >= 5 && String.sub line 0 5 = "ERROR")
      lam.logs
  in
  List.find_opt (fun l -> has_error l && not l.reclaimed) t.pool

let debug_image () =
  Usecase.image "debug"
    [
      Image.file "/bin/busybox" (600 * 1024);
      Image.file ~content:"#!strace\n" "/usr/bin/strace" 9;
      Image.file ~content:"#!gdb\n" "/usr/bin/gdb" 6;
    ]

let debug_shell t lam work =
  Usecase.attach ~image:(debug_image ()) t.h lam.vmm (fun session ->
      (* the integration prevents scale-down while the user debugs *)
      lam.pinned <- true;
      Fun.protect
        ~finally:(fun () -> lam.pinned <- false)
        (fun () -> work session))

let scale_down t =
  let victims =
    List.filter (fun l -> (not l.pinned) && not l.reclaimed) t.pool
  in
  List.iter (fun l -> l.reclaimed <- true) victims;
  List.length victims

(* --- clone-on-request: serve a request flood from one baked image --- *)

(* Instead of keeping one warm microVM per function (the pool above),
   a clone-on-request stack bakes a single attach-ready baseline and
   forks a fresh microVM per incoming request through the CoW overlay:
   per-request isolation at linked-clone cost, with only the diverged
   pages resident. *)

type clone_pool = {
  cp_image : Fleet.Baseline.image;
  cp_profile : Hypervisor.Profile.t;
  cp_seed : int;
  mutable cp_served : int;
  mutable cp_errors : int;
  mutable cp_fork_ns : float list;  (** per-request, most recent first *)
  mutable cp_resident_bytes : int;  (** summed over served clones *)
}

let clone_pool ?(seed = 0x5eed) () =
  {
    cp_image = Fleet.Baseline.bake ~seed ();
    cp_profile = Hypervisor.Profile.qemu;
    cp_seed = seed;
    cp_served = 0;
    cp_errors = 0;
    cp_fork_ns = [];
    cp_resident_bytes = 0;
  }

let serve_request p ~handler ~id ~payload =
  let host = Hostos.Host.create ~seed:(p.cp_seed + (id * 13)) () in
  let name = Printf.sprintf "fn-%d" id in
  match Fleet.Baseline.fork p.cp_image ~host ~profile:p.cp_profile ~name with
  | Error e -> Vmsh.Vmsh_error.fail e
  | Ok f ->
      p.cp_fork_ns <- f.Fleet.Baseline.fk_fork_ns :: p.cp_fork_ns;
      let vmm = f.Fleet.Baseline.fk_vmm and g = f.Fleet.Baseline.fk_guest in
      let result = ref (Error "request never ran") in
      (* the "function" runs inside the clone: request and response
         live in the clone's private overlay pages, never the base *)
      Vmm.run_task vmm ~name:("serve-" ^ name) (fun () ->
          let ns = Guest.root_ns g in
          ignore (Guest.file_write g ~ns "/etc/request" (Bytes.of_string payload));
          result :=
            match handler payload with
            | Error msg -> Error msg
            | Ok out -> (
                ignore (Guest.file_write g ~ns "/etc/response" (Bytes.of_string out));
                (* per-clone identity must have diverged from the base *)
                match Guest.file_read g ~ns "/etc/hostname" with
                | Ok h when Bytes.to_string h = name ^ "\n" -> Ok out
                | Ok h ->
                    Error
                      (Printf.sprintf "clone isolation: hostname %S, want %S"
                         (Bytes.to_string h) name)
                | Error e -> Error (Hostos.Errno.show e)));
      let result = !result in
      let st = Fleet.Baseline.resident f in
      p.cp_resident_bytes <- p.cp_resident_bytes + st.Hostos.Mem.cs_resident_bytes;
      (match result with
      | Ok _ -> p.cp_served <- p.cp_served + 1
      | Error _ -> p.cp_errors <- p.cp_errors + 1);
      result

type flood_report = {
  fl_requests : int;
  fl_served : int;
  fl_errors : int;
  fl_fork_p50_ns : float;
  fl_fork_p99_ns : float;
  fl_resident_bytes : int;
}

let serve_flood p ~handler ~requests =
  for id = 0 to requests - 1 do
    ignore
      (serve_request p ~handler ~id ~payload:(Printf.sprintf "req-%d" id))
  done;
  {
    fl_requests = requests;
    fl_served = p.cp_served;
    fl_errors = p.cp_errors;
    fl_fork_p50_ns = Fleet.percentile_of p.cp_fork_ns 0.50;
    fl_fork_p99_ns = Fleet.percentile_of p.cp_fork_ns 0.99;
    fl_resident_bytes = p.cp_resident_bytes;
  }
