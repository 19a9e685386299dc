(* Tests for the three §6.5 use cases and the Fig. 8 de-bloat pipeline. *)

module H = Hostos
module Sfs = Blockdev.Simplefs
module Vmm = Hypervisor.Vmm
module Guest = Linux_guest.Guest

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int

let boot_guest ?(seed = 71) ?(profile = Hypervisor.Profile.qemu) ~files () =
  let h = H.Host.create ~seed () in
  let backend = Blockdev.Backend.create ~clock:h.H.Host.clock ~blocks:2048 () in
  let fs = Result.get_ok (Sfs.mkfs (Blockdev.Backend.dev backend) ()) in
  ignore (Sfs.mkdir_p fs "/dev");
  List.iter
    (fun (p, c) ->
      ignore (Sfs.mkdir_p fs (Filename.dirname p));
      ignore (Sfs.write_file fs p (Bytes.of_string c)))
    files;
  Sfs.sync fs;
  let vmm = Vmm.create h ~profile ~disk:backend () in
  let g = Vmm.boot vmm ~version:Linux_guest.Kernel_version.V5_10 in
  (h, vmm, g)

(* --- rescue --- *)

let test_rescue_resets_password () =
  let h, vmm, g =
    boot_guest
      ~files:[ ("/etc/shadow", "root:$6$lost$ffff:19000:0:99999:7:::\n") ]
      ()
  in
  (match Usecases.Rescue.reset_password h ~vmm ~user:"root" ~password:"new" with
  | Ok _ -> ()
  | Error v -> Alcotest.fail (Faults.Abort.to_string v));
  check cbool "password set" true
    (Usecases.Rescue.verify_password_set vmm g ~user:"root" ~password:"new");
  check cbool "wrong password not verified" false
    (Usecases.Rescue.verify_password_set vmm g ~user:"root" ~password:"other")

let test_rescue_preserves_other_users () =
  let h, vmm, g =
    boot_guest
      ~files:
        [
          ( "/etc/shadow",
            "root:$6$lost$ffff:19000:0:99999:7:::\n\
             alice:$6$keep$1234:19000:0:99999:7:::\n" );
        ]
      ()
  in
  ignore (Usecases.Rescue.reset_password h ~vmm ~user:"root" ~password:"x");
  let shadow =
    Bytes.to_string
      (Result.get_ok
         (Vmm.in_guest vmm (fun () ->
              Guest.file_read g ~ns:(Guest.root_ns g) "/etc/shadow")))
  in
  check cbool "alice untouched" true
    (List.exists
       (fun l -> l = "alice:$6$keep$1234:19000:0:99999:7:::")
       (String.split_on_char '\n' shadow))

let test_rescue_adds_missing_user () =
  let h, vmm, g =
    boot_guest ~files:[ ("/etc/shadow", "daemon:!:19000:0:99999:7:::\n") ] ()
  in
  ignore (Usecases.Rescue.reset_password h ~vmm ~user:"root" ~password:"pw");
  check cbool "root line appended" true
    (Usecases.Rescue.verify_password_set vmm g ~user:"root" ~password:"pw")

(* --- scanner --- *)

let test_version_compare () =
  let cmp = Usecases.Scanner.compare_versions in
  check cbool "1.2.9 < 1.2.10" true (cmp "1.2.9" "1.2.10" < 0);
  check cbool "equal" true (cmp "2.12.6" "2.12.6" = 0);
  check cbool "major wins" true (cmp "2.0.0" "1.9.9" > 0);
  check cbool "shorter is less" true (cmp "1.2" "1.2.1" < 0)

let test_apk_db_roundtrip () =
  let pkgs = [ ("musl", "1.2.2"); ("busybox", "1.34.0") ] in
  check cbool "roundtrip" true
    (Usecases.Scanner.parse_apk_db (Usecases.Scanner.apk_db_content pkgs) = pkgs)

let test_scanner_finds_vulnerable () =
  let h, vmm, _ =
    boot_guest
      ~files:
        [
          ( "/lib/apk/db/installed",
            Usecases.Scanner.apk_db_content
              [ ("musl", "1.2.1"); ("openssl", "3.0.0"); ("zlib", "1.2.11") ] );
        ]
      ()
  in
  match Usecases.Scanner.scan h ~vmm () with
  | Error v -> Alcotest.fail (Faults.Abort.to_string v)
  | Ok vulns ->
      let names = List.map (fun v -> v.Usecases.Scanner.v_pkg) vulns in
      check cbool "musl flagged" true (List.mem "musl" names);
      check cbool "zlib flagged (1.2.11 < 1.2.12)" true (List.mem "zlib" names);
      check cbool "current openssl not flagged" false (List.mem "openssl" names)

let test_scanner_clean_guest () =
  let h, vmm, _ =
    boot_guest
      ~files:
        [
          ( "/lib/apk/db/installed",
            Usecases.Scanner.apk_db_content
              [ ("musl", "1.2.5"); ("busybox", "1.36.0") ] );
        ]
      ~seed:72 ()
  in
  match Usecases.Scanner.scan h ~vmm () with
  | Error v -> Alcotest.fail (Faults.Abort.to_string v)
  | Ok vulns -> check cint "nothing to report" 0 (List.length vulns)

(* --- serverless --- *)

let make_stack h =
  Usecases.Serverless.create_stack h
    ~functions:
      [
        ("ok-fn", fun p -> Ok ("done:" ^ p));
        ("bad-fn", fun _ -> Error "boom");
      ]

let test_serverless_fault_location () =
  let h = H.Host.create ~seed:73 () in
  let stack = make_stack h in
  check cbool "no fault before traffic" true
    (Usecases.Serverless.find_faulty stack = None);
  ignore (Usecases.Serverless.invoke stack ~fn:"ok-fn" ~payload:"a");
  check cbool "still none" true (Usecases.Serverless.find_faulty stack = None);
  ignore (Usecases.Serverless.invoke stack ~fn:"bad-fn" ~payload:"b");
  match Usecases.Serverless.find_faulty stack with
  | Some lam ->
      check Alcotest.string "the right one" "bad-fn" lam.Usecases.Serverless.fn_name
  | None -> Alcotest.fail "fault not located"

let test_serverless_debug_and_pinning () =
  let h = H.Host.create ~seed:74 () in
  let stack = make_stack h in
  ignore (Usecases.Serverless.invoke stack ~fn:"bad-fn" ~payload:"x");
  let lam = Option.get (Usecases.Serverless.find_faulty stack) in
  let debug session =
    (* logs are readable from inside the debug shell, via the overlay *)
    let out =
      Vmsh.Attach.console_roundtrip session "cat /var/lib/vmsh/var/log/lambda.log"
    in
    check cbool "error line visible" true
      (try
         ignore (Str.search_forward (Str.regexp_string "ERROR") out 0);
         true
       with Not_found -> false);
    let reclaimed = Usecases.Serverless.scale_down stack in
    check cint "one idle instance reclaimed" 1 reclaimed;
    check cbool "debugged instance survives" false lam.Usecases.Serverless.reclaimed;
    Ok ()
  in
  (match Usecases.Serverless.debug_shell stack lam debug with
  | Ok () -> ()
  | Error v -> Alcotest.fail (Faults.Abort.to_string v));
  check cbool "pin released" false lam.Usecases.Serverless.pinned

let test_serverless_invoke_after_reclaim () =
  let h = H.Host.create ~seed:75 () in
  let stack = make_stack h in
  ignore (Usecases.Serverless.scale_down stack);
  match Usecases.Serverless.invoke stack ~fn:"ok-fn" ~payload:"y" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invocation on a reclaimed instance must fail"

let test_serverless_clone_on_request_flood () =
  let module S = Usecases.Serverless in
  let pool = S.clone_pool ~seed:77 () in
  let handler p = if p = "req-3" then Error "boom" else Ok ("done:" ^ p) in
  let r = S.serve_flood pool ~handler ~requests:8 in
  check cint "flood size" 8 r.S.fl_requests;
  check cint "all but the bad request served" 7 r.S.fl_served;
  check cint "one handler error" 1 r.S.fl_errors;
  check cbool "fork cost measured" true (r.S.fl_fork_p99_ns > 0.);
  (* bounded occupancy: eight clones together stay far below one
     private copy of the baseline's RAM + disk *)
  check cbool "resident bytes bounded" true
    (r.S.fl_resident_bytes
    < H.Mem.frozen_length (Fleet.Baseline.Debug.ram pool.S.cp_image));
  (* a single request's response is readable back and isolated *)
  match S.serve_request pool ~handler ~id:100 ~payload:"ping" with
  | Ok out -> check Alcotest.string "handler output" "done:ping" out
  | Error e -> Alcotest.fail e

(* --- every use case is one Fleet.Session --- *)

let tracer h vmm =
  Option.bind (H.Host.find_proc h ~pid:(Vmm.pid vmm)) (fun p -> p.H.Proc.tracer)

let test_failed_work_detaches () =
  let module S = Usecases.Serverless in
  let h = H.Host.create ~seed:74 () in
  let stack = make_stack h in
  ignore (S.invoke stack ~fn:"bad-fn" ~payload:"x");
  let lam = Option.get (S.find_faulty stack) in
  (match S.debug_shell stack lam (fun _ -> Error "planted") with
  | Error (Faults.Abort.Bug (Faults.Abort.Broken "planted")) -> ()
  | Ok () -> Alcotest.fail "failed work reported success"
  | Error v -> Alcotest.fail (Faults.Abort.to_string v));
  check cbool "pin released" false lam.S.pinned;
  check cbool "hypervisor untraced" true (tracer h lam.S.vmm = None);
  (* detached for real: the next debug session attaches and answers *)
  match
    S.debug_shell stack lam (fun session ->
        Ok (Vmsh.Attach.console_roundtrip session "hostname"))
  with
  | Ok out -> check Alcotest.string "second session" "bad-fn-host\n" out
  | Error v -> Alcotest.fail (Faults.Abort.to_string v)

let test_refused_attach_is_clean_abort () =
  let h, vmm, _ =
    boot_guest ~profile:Hypervisor.Profile.firecracker ~files:[] ~seed:80 ()
  in
  let pids = H.Host.pids h and fds = Fleet.Machine.open_fds h in
  (* Firecracker's seccomp filters are on and the config carries no
     thread-probing heuristic, so the attach is refused *)
  (match Usecases.Monitor.collect h ~vmm with
  | Error (Faults.Abort.Clean_abort _) -> ()
  | Ok _ -> Alcotest.fail "attach went through seccomp"
  | Error v -> Alcotest.fail (Faults.Abort.to_string v));
  check Alcotest.(list int) "host processes" pids (H.Host.pids h);
  check cint "host descriptors" fds (Fleet.Machine.open_fds h);
  check cbool "hypervisor untraced" true (tracer h vmm = None)

(* --- monitor --- *)

let test_monitor_collects () =
  let h, vmm, g =
    boot_guest ~files:[ ("/etc/hostname", "mon-vm\n") ] ~seed:79 ()
  in
  (* a containerised workload makes the process list interesting *)
  ignore
    (Vmm.in_guest vmm (fun () ->
         Guest.spawn_container g ~name:"db" ~image:[ ("/etc/db.conf", "x\n") ]));
  match Usecases.Monitor.collect h ~vmm with
  | Error v -> Alcotest.fail (Faults.Abort.to_string v)
  | Ok report ->
      check cbool "init listed" true
        (List.exists
           (fun p -> p.Usecases.Monitor.m_name = "init")
           report.Usecases.Monitor.processes);
      check cbool "container cgroup visible" true
        (List.exists
           (fun p ->
             p.Usecases.Monitor.m_name = "db"
             && String.length p.Usecases.Monitor.m_cgroup > 1)
           report.Usecases.Monitor.processes);
      check cbool "disk usage sampled" true
        (List.exists
           (fun m -> m.Usecases.Monitor.used_kb > 0)
           report.Usecases.Monitor.mounts);
      check cbool "kernel log tail present" true
        (report.Usecases.Monitor.dmesg_tail <> [])

let test_monitor_parsers () =
  let ps = "  PID   UID NAME        CGROUP\n    1     0 init        /\n   42  1000 web  /sys/fs/cgroup/x\n" in
  let procs = Usecases.Monitor.parse_ps ps in
  check cint "two processes" 2 (List.length procs);
  let df = "FILESYSTEM 1K-TOTAL USED AVAIL MOUNTED ON\n/dev/vda 8192 100 8092 /\n" in
  match Usecases.Monitor.parse_df df with
  | [ m ] ->
      check cint "total" 8192 m.Usecases.Monitor.total_kb;
      check Alcotest.string "mountpoint" "/" m.Usecases.Monitor.m_mountpoint
  | _ -> Alcotest.fail "df parse"

(* --- debloat --- *)

let test_debloat_dataset_shape () =
  let images = Debloat.Dataset.top40 () in
  check cint "forty images" 40 (List.length images);
  List.iter
    (fun i ->
      check cbool
        (i.Debloat.Dataset.iname ^ " opens subset of manifest")
        true
        (List.for_all
           (fun p ->
             List.exists
               (fun (e : Blockdev.Image.entry) -> e.Blockdev.Image.path = p)
               i.Debloat.Dataset.manifest)
           i.Debloat.Dataset.runtime_opens))
    images

let test_debloat_single_image () =
  let h = H.Host.create ~seed:76 () in
  let image = Option.get (Debloat.Dataset.find "nginx") in
  let r = Debloat.Analyze.analyze h image in
  check cbool "meaningful reduction" true (r.Debloat.Analyze.reduction_pct > 40.0);
  check cbool "app survives" true r.Debloat.Analyze.still_works;
  check cbool "after < before" true
    (r.Debloat.Analyze.after_bytes < r.Debloat.Analyze.before_bytes)

let test_debloat_static_binary_image () =
  let h = H.Host.create ~seed:77 () in
  let image = Option.get (Debloat.Dataset.find "traefik") in
  let r = Debloat.Analyze.analyze h image in
  check cbool "static Go image barely shrinks" true
    (r.Debloat.Analyze.reduction_pct < 10.0)

let test_debloat_trace_matches_opens () =
  let h = H.Host.create ~seed:78 () in
  let image = Option.get (Debloat.Dataset.find "redis") in
  let traced = Debloat.Analyze.trace_in_vm h image in
  check cint "every runtime open traced"
    (List.length image.Debloat.Dataset.runtime_opens)
    (List.length traced)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "usecases.rescue",
      [
        t "resets password" test_rescue_resets_password;
        t "preserves other users" test_rescue_preserves_other_users;
        t "adds missing user" test_rescue_adds_missing_user;
      ] );
    ( "usecases.scanner",
      [
        t "version compare" test_version_compare;
        t "apk db roundtrip" test_apk_db_roundtrip;
        t "finds vulnerable" test_scanner_finds_vulnerable;
        t "clean guest" test_scanner_clean_guest;
      ] );
    ( "usecases.monitor",
      [
        t "collects a report" test_monitor_collects;
        t "parsers" test_monitor_parsers;
      ] );
    ( "usecases.serverless",
      [
        t "fault location" test_serverless_fault_location;
        t "debug + pinning" test_serverless_debug_and_pinning;
        t "invoke after reclaim" test_serverless_invoke_after_reclaim;
        t "clone-on-request flood" test_serverless_clone_on_request_flood;
      ] );
    ( "usecases.session",
      [
        t "failed work still detaches and unpins" test_failed_work_detaches;
        t "refused attach is a clean abort" test_refused_attach_is_clean_abort;
      ] );
    ( "debloat",
      [
        t "dataset shape" test_debloat_dataset_shape;
        t "single image" test_debloat_single_image;
        t "static binary image" test_debloat_static_binary_image;
        t "trace matches opens" test_debloat_trace_matches_opens;
      ] );
  ]
