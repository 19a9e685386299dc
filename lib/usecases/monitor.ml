module Image = Blockdev.Image

type process = { m_pid : int; m_uid : int; m_name : string; m_cgroup : string }

type mount_usage = {
  m_source : string;
  m_mountpoint : string;
  total_kb : int;
  used_kb : int;
  avail_kb : int;
}

type report = {
  processes : process list;
  mounts : mount_usage list;
  dmesg_tail : string list;
}

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

let parse_ps out =
  String.split_on_char '\n' out
  |> List.filter_map (fun line ->
         match words line with
         | pid :: uid :: name :: rest -> (
             match (int_of_string_opt pid, int_of_string_opt uid) with
             | Some m_pid, Some m_uid ->
                 Some
                   { m_pid; m_uid; m_name = name;
                     m_cgroup = String.concat " " rest }
             | _ -> None)
         | _ -> None)

let parse_df out =
  String.split_on_char '\n' out
  |> List.filter_map (fun line ->
         match words line with
         | [ source; total; used; avail; mountpoint ] -> (
             match
               (int_of_string_opt total, int_of_string_opt used,
                int_of_string_opt avail)
             with
             | Some total_kb, Some used_kb, Some avail_kb ->
                 Some
                   { m_source = source; m_mountpoint = mountpoint; total_kb;
                     used_kb; avail_kb }
             | _ -> None)
         | _ -> None)

let monitor_image () =
  Usecase.image "monitor"
    [ Image.file ~content:"#!vmsh-monitor v1\n" "/usr/bin/vmsh-monitor" 18 ]

let collect h ~vmm =
  Usecase.attach ~image:(monitor_image ()) h vmm (fun session ->
      let ps = Vmsh.Attach.console_roundtrip session "ps" in
      let df = Vmsh.Attach.console_roundtrip session "df" in
      let dmesg = Vmsh.Attach.console_roundtrip session "dmesg" in
      let dmesg_lines =
        String.split_on_char '\n' dmesg
        |> List.filter (fun l -> String.trim l <> "")
      in
      let tail =
        let n = List.length dmesg_lines in
        List.filteri (fun i _ -> i >= n - 5) dmesg_lines
      in
      Ok { processes = parse_ps ps; mounts = parse_df df; dmesg_tail = tail })

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%d guest processes:" (List.length r.processes);
  List.iter
    (fun p ->
      Format.fprintf ppf "@.  pid %d uid %d %s (%s)" p.m_pid p.m_uid p.m_name
        p.m_cgroup)
    r.processes;
  Format.fprintf ppf "@.%d mounts:" (List.length r.mounts);
  List.iter
    (fun m ->
      Format.fprintf ppf "@.  %s on %s: %d/%d KiB used" m.m_source
        m.m_mountpoint m.used_kb m.total_kb)
    r.mounts;
  Format.fprintf ppf "@.kernel log tail:";
  List.iter (fun l -> Format.fprintf ppf "@.  %s" l) r.dmesg_tail;
  Format.fprintf ppf "@]"
