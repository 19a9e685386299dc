(* interactive: closed loop, one client. Each unit is one cold shell
   session on its own host: pack the tools image, boot, snapshot,
   attach (no shared symbol cache, so every attach analyses the kernel),
   an eight-command shell mix, detach, the rollback oracle and an
   fd-leak check. The seed orders the kernel x hypervisor combinations
   and picks every session's host seed, hostname and file content. *)

open Rig

let profiles =
  [ Profile.qemu; Profile.kvmtool; Profile.firecracker; Profile.crosvm; Profile.cloud_hypervisor ]

type session_plan = {
  version : KV.t;
  profile : Profile.t;
  host_seed : int;
  token : string;
}

let plan ~seed =
  let rng = H.Rng.create ~seed in
  let combos =
    Array.of_list
      (List.concat_map (fun v -> List.map (fun p -> (v, p)) profiles) KV.all_lts)
  in
  H.Rng.shuffle rng combos;
  Array.map
    (fun (version, profile) ->
      {
        version;
        profile;
        host_seed = H.Rng.int rng 1_000_000_000;
        token = Printf.sprintf "%08x" (H.Rng.int rng 0x3fffffff);
      })
    combos

let commands token =
  [
    "hostname"; "id"; "ls /"; "ps"; "mounts"; "df";
    Printf.sprintf "write /perf-%s.txt %s" token token;
    Printf.sprintf "cat /perf-%s.txt" token;
  ]

let make (ctx : Run.ctx) =
  let plan = plan ~seed:ctx.Run.seed in
  let n = Array.length plan in
  let window = if ctx.Run.quick then 2 else n in
  let probe = ctx.Run.probe and acc = ctx.Run.acc in
  let consoles = ref (Observe.Metrics.create ()) in
  let first_traced = ref None in
  let session i =
    let p = plan.(i mod n) in
    (* a later cycle through the combinations boots fresh hosts *)
    let host_seed = p.host_seed + (i / n * 104_729) in
    let hostname = "perf-" ^ p.token in
    let h = H.Host.create ~seed:host_seed () in
    if probe.Probe.tracing then begin
      Observe.enable h.H.Host.observe;
      if !first_traced = None then first_traced := Some h.H.Host.observe
    end;
    let clock = h.H.Host.clock in
    let image = Probe.call probe ~clock "image-pack" (fun () -> tools_image clock) in
    let vmm =
      Probe.call probe ~clock "boot" (fun () ->
          let disk = boot_disk h ~hostname ~blocks:4096 in
          let vmm =
            Vmm.create h ~profile:p.profile ~disk ~ram_mb:32
              ~disable_seccomp:(p.profile == Profile.firecracker)
              ()
          in
          ignore (Vmm.boot vmm ~version:p.version);
          vmm)
    in
    let vm = Vmm.kvm_vm vmm in
    let before = Probe.call probe "snapshot" (fun () -> Vmsh.Snapshot.capture vm) in
    let fds_before = open_fds h in
    let config =
      Vmsh.Attach.Config.(make () |> with_pci (not p.profile.Profile.mmio_transport))
    in
    let outcome =
      match attach probe acc h vmm ~image ~config with
      | Error e -> Error e
      | Ok session ->
          ignore (Vmsh.Attach.console_recv session);
          List.iter
            (fun cmd ->
              let t0 = Clock.now_ns clock in
              let out =
                Probe.call probe ~clock "shell" (fun () ->
                    Vmsh.Attach.console_roundtrip session cmd)
              in
              Acc.add acc "shell_ns" (Clock.now_ns clock -. t0);
              if cmd = "hostname" then
                check (String.starts_with ~prefix:(hostname ^ "\n") out)
                  "hostname answered %S, want %S" out hostname;
              if String.starts_with ~prefix:"cat " cmd then
                check (String.starts_with ~prefix:p.token out)
                  "cat read back %S, want %S" out p.token)
            (commands p.token);
          detach_and_verify probe acc h vmm session ~before ~fds_before
    in
    Observe.Metrics.merge_into ~into:!consoles (registry h);
    match outcome with
    | Ok () -> { Run.ops = 1; failed = 0 }
    | Error e ->
        Printf.eprintf "interactive: session %d (%s on %s) failed: %s\n%!" i
          (KV.to_string p.version) p.profile.Profile.prof_name
          (Vmsh.Vmsh_error.to_string e);
        { Run.ops = 1; failed = 1 }
  in
  let step i = Probe.call probe "session" (fun () -> session i) in
  let layers () =
    let shell = Acc.get acc "shell_ns" in
    attach_layers acc
    @ console_layers !consoles
    @ [
        ("vmsh.detach_ms.p50", Stats.median (Acc.get acc "detach_ns") /. 1e6);
        ("vmsh.shell_cmd_us.p50", Stats.percentile shell 0.5 /. 1e3);
        ("vmsh.shell_cmd_us.p95", Stats.percentile shell 0.95 /. 1e3);
      ]
  in
  {
    Run.name = "interactive";
    window;
    setup =
      (fun () ->
        ignore (session 0);
        consoles := Observe.Metrics.create ());
    prepare = ignore;
    step;
    layers;
    finish = (fun () -> host_layers probe acc);
    notes =
      (fun () ->
        [
          "plan: "
          ^ String.concat " "
              (Array.to_list
                 (Array.map
                    (fun p -> KV.to_string p.version ^ "/" ^ p.profile.Profile.prof_name)
                    (Array.sub plan 0 window)));
        ]);
    observed =
      (fun () -> Option.map Observe.Export.chrome_trace !first_traced);
  }
