module Guest = Linux_guest.Guest
module Gproc = Linux_guest.Gproc
module Vfs = Linux_guest.Vfs
module Page_cache = Linux_guest.Page_cache
module Sfs = Blockdev.Simplefs
module Vm = Kvm.Vm

type cfg = { container_pid : int option; command : string option }

let default_cfg = { container_pid = None; command = None }

let magic = "#!vmsh-guest-program v1"

(* An absent field is written "-". A command that starts with "-" or a
   backslash gets one more backslash in front, so "-" alone always means
   no command and every command reads back as itself. *)
let program_bytes cfg =
  let command =
    match cfg.command with
    | None -> "-"
    | Some c when c <> "" && (c.[0] = '-' || c.[0] = '\\') -> "\\" ^ c
    | Some c -> c
  in
  Bytes.of_string
    (Printf.sprintf "%s\ncontainer=%s\ncommand=%s\n" magic
       (match cfg.container_pid with Some p -> string_of_int p | None -> "-")
       command)

(* The inverse of [program_bytes]. The command runs to the final newline,
   so it may hold spaces and newlines of its own. *)
let cfg_of_program content =
  let s = Bytes.to_string content and head = magic ^ "\ncontainer=" in
  let n = String.length s and h = String.length head in
  if not (String.starts_with ~prefix:head s && String.ends_with ~suffix:"\n" s) then None
  else
    match String.index_from_opt s h '\n' with
    | Some i when String.sub s i (min 9 (n - i)) = "\ncommand=" -> (
        let command =
          match String.sub s (i + 9) (n - i - 10) with
          | "-" -> None
          | c when c <> "" && c.[0] = '\\' ->
              Some (String.sub c 1 (String.length c - 1))
          | c -> Some c
        in
        match String.sub s h (i - h) with
        | "-" -> Some { container_pid = None; command }
        | c ->
            Option.map
              (fun p -> { container_pid = Some p; command })
              (int_of_string_opt c))
    | _ -> None

let setup_namespace guest proc cfg ~image_fs =
  let vfs = Guest.vfs guest in
  let target =
    Option.bind cfg.container_pid (fun gpid -> Guest.find_proc guest ~gpid)
  in
  (match (cfg.container_pid, target) with
  | Some gpid, None ->
      Error (Printf.sprintf "no guest process with pid %d" gpid)
  | _ -> Ok ())
  |> Result.map (fun () ->
         let base_ns =
           match target with
           | Some c -> c.Gproc.mnt_ns
           | None -> proc.Gproc.mnt_ns
         in
         let ns = Vfs.new_namespace vfs ~from:base_ns in
         (* relocate the original tree, then make the image the root *)
         Vfs.move_mounts_under vfs ~ns ~prefix:Shell.overlay_prefix;
         Vfs.mount vfs ~ns ~at:"/" ~source:"vmsh-blk" (Vfs.Simple image_fs);
         proc.Gproc.mnt_ns <- ns;
         (* container-aware context: adopt the target's identity so the
            attached tools cannot exceed the container's privileges *)
         match target with
         | Some c ->
             proc.Gproc.uid <- c.Gproc.uid;
             proc.Gproc.gid <- c.Gproc.gid;
             proc.Gproc.cgroup <- c.Gproc.cgroup;
             proc.Gproc.caps <- c.Gproc.caps;
             proc.Gproc.apparmor <- c.Gproc.apparmor
         | None -> ())

let guest_main cfg guest proc =
  (* the devices were registered by the kernel library before we were
     spawned; wait defensively in case of reordering *)
  let ready () = Guest.vmsh_blk guest <> None && Guest.vmsh_console guest <> None in
  if not (ready ()) then Effect.perform (Vm.Yield_until ready);
  let console = Option.get (Guest.vmsh_console guest) in
  let w s = Virtio.Console.Driver.write console (Bytes.of_string s) in
  let blk = Option.get (Guest.vmsh_blk guest) in
  let bulk ~first ~count =
    Virtio.Blk.Driver.read blk
      ~sector:(first * Virtio.Blk.sectors_per_block)
      ~len:(count * Blockdev.Dev.block_size)
  in
  let cached =
    Page_cache.wrap ~bulk_read:bulk (Guest.page_cache guest) ~dev_id:7
      (Virtio.Blk.Driver.to_blockdev blk)
  in
  match Sfs.mount cached with
  | Error e ->
      w
        (Printf.sprintf "vmsh: cannot mount overlay image: %s\n"
           (Hostos.Errno.show e))
  | Ok image_fs -> (
      match setup_namespace guest proc cfg ~image_fs with
      | Error msg -> w (Printf.sprintf "vmsh: overlay setup failed: %s\n" msg)
      | Ok () -> (
          match cfg.command with
          | Some line ->
              w (Shell.exec guest proc line);
              w "vmsh: command finished\n"
          | None -> Shell.run guest proc console))

let () =
  Guest.register_interpreter ~magic (fun content ->
      Option.map guest_main (cfg_of_program content))
