(* Use case #3 (paper §6.5): scanning a VM's installed packages against
   a security database — without any agent in the VM.

     dune exec examples/security_scanner.exe *)

module H = Hostos
module Sfs = Blockdev.Simplefs
module Vmm = Hypervisor.Vmm
module Guest = Linux_guest.Guest

let () =
  Printf.printf "== agent-less package security scanner ==\n\n";
  let host = H.Host.create ~seed:99 () in
  let disk = Blockdev.Backend.create ~clock:host.H.Host.clock ~blocks:2048 () in
  let rootfs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev disk) ()) in
  ignore (Sfs.mkdir_p rootfs "/dev");
  ignore (Sfs.mkdir_p rootfs "/lib/apk/db");
  (* an Alpine guest with a mix of current and outdated packages *)
  let installed =
    [
      ("musl", "1.2.1");         (* vulnerable: fixed in 1.2.2 *)
      ("busybox", "1.32.0");     (* vulnerable: fixed in 1.33.1 *)
      ("openssl", "1.1.1l");     (* ok *)
      ("zlib", "1.2.13");        (* ok *)
      ("apk-tools", "2.12.5");   (* vulnerable: fixed in 2.12.6 *)
      ("curl", "7.80.0");        (* ok *)
    ]
  in
  ignore
    (Sfs.write_file rootfs "/lib/apk/db/installed"
       (Bytes.of_string (Usecases.Scanner.apk_db_content installed)));
  Sfs.sync rootfs;
  let vmm = Vmm.create host ~profile:Hypervisor.Profile.qemu ~disk () in
  let _guest = Vmm.boot vmm ~version:Linux_guest.Kernel_version.V5_10 in
  Printf.printf "Alpine guest running with %d installed packages.\n"
    (List.length installed);

  Printf.printf "\nattaching the scanner and reading the package database \
                 through the overlay...\n";
  match Usecases.Scanner.scan host ~vmm () with
  | Error v -> failwith (Faults.Abort.to_string v)
  | Ok [] -> Printf.printf "no vulnerable packages. \n"
  | Ok vulns ->
      Printf.printf "\n%-12s %-10s %-12s %s\n" "PACKAGE" "INSTALLED"
        "FIXED IN" "ADVISORY";
      List.iter
        (fun v ->
          Printf.printf "%-12s %-10s %-12s %s\n" v.Usecases.Scanner.v_pkg
            v.Usecases.Scanner.installed v.Usecases.Scanner.fixed_in
            v.Usecases.Scanner.cve)
        vulns;
      Printf.printf
        "\n%d of %d packages need updates. The guest was never modified and \
         runs no scanning agent.\n"
        (List.length vulns) (List.length installed)
