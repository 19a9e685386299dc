(* Use case #2 (paper §6.5): the agent-less rescue system.

   A customer lost their root password. The provider attaches a recovery
   image to the *running* VM and resets the password through the
   overlay — no reboot, no recovery boot environment, no agent.

     dune exec examples/rescue_system.exe *)

module H = Hostos
module Sfs = Blockdev.Simplefs
module Vmm = Hypervisor.Vmm
module Guest = Linux_guest.Guest

let () =
  Printf.printf "== VM rescue: password reset without a reboot ==\n\n";
  let host = H.Host.create ~seed:7 () in
  let disk = Blockdev.Backend.create ~clock:host.H.Host.clock ~blocks:2048 () in
  let rootfs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev disk) ()) in
  ignore (Sfs.mkdir_p rootfs "/dev");
  ignore (Sfs.mkdir_p rootfs "/etc");
  ignore
    (Sfs.write_file rootfs "/etc/shadow"
       (Bytes.of_string
          "root:$6$forgotten$cafebabe:19000:0:99999:7:::\n\
           alice:$6$old$12345678:19000:0:99999:7:::\n"));
  Sfs.sync rootfs;
  let vmm = Vmm.create host ~profile:Hypervisor.Profile.qemu ~disk () in
  let guest = Vmm.boot vmm ~version:Linux_guest.Kernel_version.V5_10 in
  Printf.printf "customer VM is up (pid %d); root password is lost.\n"
    (Vmm.pid vmm);

  Printf.printf "\nshadow file before rescue:\n%s\n"
    (Bytes.to_string
       (Result.get_ok
          (Vmm.in_guest vmm (fun () ->
               Guest.file_read guest ~ns:(Guest.root_ns guest) "/etc/shadow"))));

  Printf.printf "attaching the rescue image and running chpasswd...\n";
  (match
     Usecases.Rescue.reset_password host ~vmm ~user:"root" ~password:"recovered"
   with
  | Ok out -> Printf.printf "rescue tool output: %s\n" (String.trim out)
  | Error v -> failwith (Faults.Abort.to_string v));

  Printf.printf "\nshadow file after rescue (root line replaced in place):\n%s\n"
    (Bytes.to_string
       (Result.get_ok
          (Vmm.in_guest vmm (fun () ->
               Guest.file_read guest ~ns:(Guest.root_ns guest) "/etc/shadow"))));
  Printf.printf "password verified set: %b — and the VM never rebooted.\n"
    (Usecases.Rescue.verify_password_set vmm guest ~user:"root"
       ~password:"recovered")
