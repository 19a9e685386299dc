module Image = Blockdev.Image
module Guest = Linux_guest.Guest
module Vmm = Hypervisor.Vmm

let rescue_image () =
  Usecase.image "rescue"
    [
      Image.file ~content:"#!chpasswd-from-shadow-utils\n" "/sbin/chpasswd" 29;
      Image.file "/bin/busybox" (600 * 1024);
      Image.file ~content:"vmsh rescue image v1\n" "/etc/vmsh-release" 21;
    ]

let reset_password h ~vmm ~user ~password =
  let config =
    Vmsh.Attach.Config.(
      make ()
      |> with_command (Printf.sprintf "chpasswd %s %s" user password))
  in
  Usecase.attach ~config ~image:(rescue_image ()) h vmm (fun session ->
      Ok (Vmsh.Attach.console_recv session))

let verify_password_set vmm guest ~user ~password =
  let expected = Vmsh.Shell.mkpasswd ~user ~password in
  match
    Vmm.in_guest vmm (fun () ->
        Guest.file_read guest ~ns:(Guest.root_ns guest) "/etc/shadow")
  with
  | Error _ -> false
  | Ok content ->
      List.mem expected
        (String.split_on_char '\n' (Bytes.to_string content))
