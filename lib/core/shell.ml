module Guest = Linux_guest.Guest
module Gproc = Linux_guest.Gproc
module Vfs = Linux_guest.Vfs
module Errno = Hostos.Errno

let overlay_prefix = "/var/lib/vmsh"

let mkpasswd ~user ~password =
  let hash = Digest.to_hex (Digest.string (user ^ ":" ^ password)) in
  Printf.sprintf "%s:$6$vmsh$%s:19000:0:99999:7:::" user hash

let errstr e = "error: " ^ Errno.show e ^ "\n"

let split_words s =
  String.split_on_char ' ' s |> List.filter (( <> ) "")

let cmd_ls guest proc path =
  match Vfs.readdir (Guest.vfs guest) ~ns:proc.Gproc.mnt_ns path with
  | Ok entries -> String.concat "\n" (List.sort compare entries) ^ "\n"
  | Error e -> errstr e

let cmd_cat guest proc path =
  match Vfs.read_file (Guest.vfs guest) ~ns:proc.Gproc.mnt_ns path with
  | Ok b -> Bytes.to_string b
  | Error e -> errstr e

let cmd_write guest proc path text =
  match
    Vfs.write_file (Guest.vfs guest) ~ns:proc.Gproc.mnt_ns path
      (Bytes.of_string text)
  with
  | Ok () -> ""
  | Error e -> errstr e

let cmd_ps guest =
  let rows =
    List.filter_map
      (fun p ->
        if p.Gproc.alive then
          Some
            (Printf.sprintf "%5d %5d %-20s %s" p.Gproc.gpid p.Gproc.uid
               p.Gproc.pname p.Gproc.cgroup)
        else None)
      (Guest.procs guest)
  in
  "  PID   UID NAME                 CGROUP\n" ^ String.concat "\n" rows ^ "\n"

let cmd_mounts guest proc =
  let rows =
    List.map
      (fun (at, m) -> Printf.sprintf "%s on %s" m.Vfs.source at)
      (Vfs.mounts (Guest.vfs guest) ~ns:proc.Gproc.mnt_ns)
  in
  String.concat "\n" (List.sort compare rows) ^ "\n"

let cmd_id proc =
  Printf.sprintf "uid=%d gid=%d caps=%d%s\n" proc.Gproc.uid proc.Gproc.gid
    (List.length proc.Gproc.caps)
    (match proc.Gproc.apparmor with
    | Some label -> " apparmor=" ^ label
    | None -> "")

let cmd_dmesg guest = String.concat "\n" (Guest.dmesg guest) ^ "\n"

let cmd_df guest proc =
  let module Sfs = Blockdev.Simplefs in
  let rows =
    List.filter_map
      (fun (at, m) ->
        match m.Vfs.fs with
        | Vfs.Simple fs ->
            let s = Sfs.statfs fs in
            Some
              (Printf.sprintf "%-24s %8d %8d %8d %s" m.Vfs.source
                 (s.Sfs.f_blocks * 4) ((s.Sfs.f_blocks - s.Sfs.f_bfree) * 4)
                 (s.Sfs.f_bfree * 4) at)
        | Vfs.Pseudo _ -> None)
      (Vfs.mounts (Guest.vfs guest) ~ns:proc.Gproc.mnt_ns)
  in
  "FILESYSTEM               1K-TOTAL     USED    AVAIL MOUNTED ON\n"
  ^ String.concat "\n" (List.sort compare rows)
  ^ "\n"

(* Rewrite the original guest's /etc/shadow entry for [user] — the VM
   rescue use case. The original tree lives under the overlay prefix. *)
let cmd_chpasswd guest proc user password =
  let shadow = overlay_prefix ^ "/etc/shadow" in
  match Vfs.read_file (Guest.vfs guest) ~ns:proc.Gproc.mnt_ns shadow with
  | Error e -> errstr e
  | Ok content ->
      let lines =
        String.split_on_char '\n' (Bytes.to_string content)
        |> List.filter (( <> ) "")
      in
      let prefix = user ^ ":" in
      let replaced = ref false in
      let lines =
        List.map
          (fun line ->
            if
              String.length line > String.length prefix
              && String.sub line 0 (String.length prefix) = prefix
            then begin
              replaced := true;
              mkpasswd ~user ~password
            end
            else line)
          lines
      in
      let lines =
        if !replaced then lines else lines @ [ mkpasswd ~user ~password ]
      in
      let out = String.concat "\n" lines ^ "\n" in
      (match
         Vfs.write_file (Guest.vfs guest) ~ns:proc.Gproc.mnt_ns shadow
           (Bytes.of_string out)
       with
      | Ok () -> Printf.sprintf "password for %s updated\n" user
      | Error e -> errstr e)

(* List installed packages of an Alpine-style guest: the package
   database of the *original* system, under the overlay prefix. *)
let cmd_pkg_list guest proc =
  let db = overlay_prefix ^ "/lib/apk/db/installed" in
  match Vfs.read_file (Guest.vfs guest) ~ns:proc.Gproc.mnt_ns db with
  | Error e -> errstr e
  | Ok content ->
      (* entries separated by blank lines; P: name, V: version *)
      let lines = String.split_on_char '\n' (Bytes.to_string content) in
      let pkgs =
        List.filter_map
          (fun l ->
            if String.length l > 2 && String.sub l 0 2 = "P:" then
              Some (String.sub l 2 (String.length l - 2))
            else None)
          lines
      in
      let versions =
        List.filter_map
          (fun l ->
            if String.length l > 2 && String.sub l 0 2 = "V:" then
              Some (String.sub l 2 (String.length l - 2))
            else None)
          lines
      in
      let rec zip a b =
        match (a, b) with
        | x :: xs, y :: ys -> (x ^ "-" ^ y) :: zip xs ys
        | rest, [] -> rest
        | [], _ -> []
      in
      String.concat "\n" (zip pkgs versions) ^ "\n"

let help =
  "commands:\n\
  \  ls PATH          list a directory\n\
  \  cat PATH         print a file\n\
  \  write PATH TEXT  replace a file's content\n\
  \  ps               guest process list\n\
  \  mounts           mount table of this namespace\n\
  \  id               current credentials\n\
  \  dmesg            guest kernel log\n\
  \  df               file-system usage of this namespace\n\
  \  chpasswd U P     reset a password in the original guest\n\
  \  pkg-list         installed packages of the original guest\n\
  \  hostname         original guest's hostname\n\
  \  exit             leave the shell\n"

let prompt = "vmsh> "

let exec guest proc line =
  match split_words line with
  | [] -> ""
  | [ "help" ] -> help
  | [ "ls" ] -> cmd_ls guest proc "/"
  | [ "ls"; path ] -> cmd_ls guest proc path
  | [ "cat"; path ] -> cmd_cat guest proc path
  | "write" :: path :: rest -> cmd_write guest proc path (String.concat " " rest)
  | [ "ps" ] -> cmd_ps guest
  | [ "mounts" ] -> cmd_mounts guest proc
  | [ "id" ] -> cmd_id proc
  | [ "dmesg" ] -> cmd_dmesg guest
  | [ "df" ] -> cmd_df guest proc
  | [ "chpasswd"; user; password ] -> cmd_chpasswd guest proc user password
  | [ "pkg-list" ] -> cmd_pkg_list guest proc
  | [ "hostname" ] -> cmd_cat guest proc (overlay_prefix ^ "/etc/hostname")
  | cmd :: _ -> Printf.sprintf "%s: command not found (try help)\n" cmd

let run guest proc console =
  let w s = Virtio.Console.Driver.write console (Bytes.of_string s) in
  w "vmsh shell connected; original guest under /var/lib/vmsh\n";
  let rec loop () =
    w prompt;
    let line = Virtio.Console.Driver.read_line console in
    let line = String.trim line in
    if line = "exit" then w "bye\n"
    else begin
      w (exec guest proc line);
      loop ()
    end
  in
  loop ()
