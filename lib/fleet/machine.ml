(* The simulated machine every session stands up: a root disk
   provisioned with the guest's hostname, the VMSH tools image the
   attach side-loads, and the host-wide descriptor count the fd-leak
   check compares. Defined once here so the fleet, the sweep, the
   service, the baseline baker and the CLI all boot the same machine. *)

module H = Hostos
module Sfs = Blockdev.Simplefs
module Vmm = Hypervisor.Vmm
module Profile = Hypervisor.Profile

let boot_disk h ~hostname =
  let disk = Blockdev.Backend.create ~clock:h.H.Host.clock ~blocks:4096 () in
  let fs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev disk) ()) in
  ignore (Sfs.mkdir_p fs "/dev");
  ignore (Sfs.mkdir_p fs "/etc");
  ignore (Sfs.write_file fs "/etc/hostname" (Bytes.of_string (hostname ^ "\n")));
  Sfs.sync fs;
  disk

let tools_image clock =
  match
    Blockdev.Image.pack ~clock [ Blockdev.Image.file "/bin/busybox" 800_000 ]
  with
  | Ok (backend, _) -> backend
  | Error e -> failwith (H.Errno.show e)

let open_fds h =
  List.fold_left
    (fun acc p -> acc + List.length (H.Proc.fd_numbers p))
    0 h.H.Host.procs

(* Firecracker's per-thread seccomp filters would block the syscalls
   VMSH injects, so its machines boot with them off. *)
let disable_seccomp profile = profile.Profile.prof_name = "Firecracker"

let cold_boot ?(ram_mb = 64) h ~profile ~version ~hostname =
  let disk = boot_disk h ~hostname in
  let vmm =
    Vmm.create h ~profile ~disk ~ram_mb
      ~disable_seccomp:(disable_seccomp profile) ()
  in
  let g = Vmm.boot vmm ~version in
  (vmm, g)
