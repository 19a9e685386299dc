(* fleet-cold: closed loop over rounds of [Fleet.run], each booting a
   few cold sessions concurrently on the virtual-time scheduler with one
   shared build-id symbol cache. The seed orders the kernels and
   hypervisors the rounds cycle through and sets every round's fleet
   seed. Attach latency is read from each session's own
   stage.attach.total_ns, the same definition the interactive workload
   checks at its call boundary; Fleet's wider session span (tools pack
   + attach + console + detach) is reported apart as
   fleet.session_ms.p50. *)

open Rig

(* Fleet attaches over MMIO, which Cloud Hypervisor does not offer. *)
let profiles = [| Profile.qemu; Profile.kvmtool; Profile.firecracker; Profile.crosvm |]

(* Kernels and hypervisors each cycle in a seeded order, so any twelve
   consecutive rounds meet every kernel twice and every hypervisor three
   times, whatever the seed. *)
let plan ~seed =
  let rng = H.Rng.create ~seed in
  let kernels = Array.of_list KV.all_lts and hypervisors = Array.copy profiles in
  H.Rng.shuffle rng kernels;
  H.Rng.shuffle rng hypervisors;
  fun i ->
    ( (seed * 1_000_003) + i,
      kernels.(i mod Array.length kernels),
      hypervisors.(i mod Array.length hypervisors) )

let make (ctx : Run.ctx) =
  let vms = if ctx.Run.quick then 2 else 4 in
  let probe = ctx.Run.probe and acc = ctx.Run.acc in
  let registries = ref (Observe.Metrics.create ()) in
  let round = plan ~seed:ctx.Run.seed in
  let step i =
    let fleet_seed, kernel, hypervisor = round i in
    let cfg =
      Fleet.Config.make ~vms ()
      |> Fleet.Config.with_seed fleet_seed
      |> Fleet.Config.with_version kernel
      |> Fleet.Config.with_profile hypervisor
    in
    match Probe.call probe "fleet-run" (fun () -> Fleet.run cfg) with
    | Error e -> raise (Check_failed ("fleet config: " ^ Vmsh.Vmsh_error.to_string e))
    | Ok r ->
        let failed = ref 0 in
        List.iter
          (fun (s : Fleet.session_report) ->
            match s.Fleet.s_result with
            | Error e ->
                incr failed;
                Printf.eprintf "fleet-cold: round %d %s failed: %s\n%!" i s.Fleet.s_name e
            | Ok () ->
                let mx = registry s.Fleet.s_host in
                let total, phases = single_attach mx in
                record_stages acc ~total ~phases;
                Acc.add acc "fleet_session_ns" s.Fleet.s_attach_ns;
                Observe.Metrics.merge_into ~into:!registries mx)
          r.Fleet.r_sessions;
        if !failed = 0 then
          check
            (r.Fleet.r_cache_misses >= 1
            && r.Fleet.r_cache_hits + r.Fleet.r_cache_misses = vms)
            "round %d: %d cache hits + %d misses for %d sessions" i
            r.Fleet.r_cache_hits r.Fleet.r_cache_misses vms;
        Acc.add acc "symcache_hits" (float_of_int r.Fleet.r_cache_hits);
        Acc.add acc "symcache_misses" (float_of_int r.Fleet.r_cache_misses);
        Acc.add acc "slices_per_session"
          (float_of_int r.Fleet.r_yields /. float_of_int vms);
        { Run.ops = vms; failed = !failed }
  in
  {
    Run.name = "fleet-cold";
    window = (if ctx.Run.quick then 1 else 4);
    setup =
      (fun () ->
        ignore (step 0);
        registries := Observe.Metrics.create ());
    prepare = ignore;
    step;
    layers =
      (fun () ->
        attach_layers acc
        @ console_layers !registries
        @ [
            ( "fleet.session_ms.p50",
              Stats.median (Acc.get acc "fleet_session_ns") /. 1e6 );
            ("fleet.slices_per_session", Stats.mean (Acc.get acc "slices_per_session"));
            ("fleet.peak_rss_mib_per_session", Probe.peak_rss_mib () /. float_of_int vms);
          ]);
    finish = (fun () -> []);
    notes =
      (fun () ->
        [
          Printf.sprintf "%d sessions per round; round 0: %s" vms
            (let _, v, p = round 0 in
             KV.to_string v ^ "/" ^ p.Profile.prof_name);
        ]);
    observed = (fun () -> None);
  }
