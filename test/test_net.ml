(* lib/net and the virtio-net path: deterministic links, the learning
   switch, and end-to-end request/response traffic through a hot-
   plugged NIC's RX/TX virtqueues. *)

module H = Hostos
module Clock = H.Clock
module Frame = Net.Frame
module Fabric = Net.Fabric
module Link = Net.Link
module Switch = Net.Switch
module Guest = Linux_guest.Guest
module Traffic = Workloads.Traffic
module Vmm = Hypervisor.Vmm

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstr = Alcotest.string

let fabric_of ?(seed = 7) () =
  let h = H.Host.create ~seed () in
  (h, Fabric.of_host h)

let counter_value h name =
  Observe.Metrics.counter_value
    (Observe.Metrics.counter (Observe.metrics h.H.Host.observe) name)

(* --- frame codec --- *)

let test_frame_codec () =
  let mac_a = Frame.make_mac ~vendor:1 ~serial:2 in
  let mac_b = Frame.make_mac ~vendor:1 ~serial:3 in
  check cbool "locally administered" true (mac_a land 0x0200_0000_0000 <> 0);
  check cbool "distinct" true (mac_a <> mac_b);
  check cstr "broadcast string" "ff:ff:ff:ff:ff:ff"
    (Frame.mac_to_string Frame.broadcast);
  let f =
    {
      Frame.src = mac_a;
      dst = mac_b;
      ethertype = Frame.eth_ipv4;
      payload = Bytes.of_string "hello network";
    }
  in
  let raw = Frame.encode f in
  check cint "wire size" (Frame.header_size + 13) (Bytes.length raw);
  (match Frame.decode raw with
  | None -> Alcotest.fail "decode failed"
  | Some f' ->
      check cint "src" f.Frame.src f'.Frame.src;
      check cint "dst" f.Frame.dst f'.Frame.dst;
      check cint "ethertype" f.Frame.ethertype f'.Frame.ethertype;
      check cstr "payload" "hello network" (Bytes.to_string f'.Frame.payload));
  check cbool "runt rejected" true (Frame.decode (Bytes.create 5) = None)

(* --- links: latency, serialization, virtual time --- *)

let test_link_latency () =
  let h, fab = fabric_of () in
  let link =
    Link.create fab ~name:"l0" ~latency_ns:100_000. ~bandwidth_mbps:8_000. ()
  in
  let arrivals = ref [] in
  Link.set_handler (Link.b link) (fun raw ->
      arrivals := (Clock.now_ns h.H.Host.clock, Bytes.length raw) :: !arrivals);
  let payload = Bytes.create 986 in
  let f =
    Frame.encode
      {
        Frame.src = 1;
        dst = 2;
        ethertype = Frame.eth_experimental;
        payload;
      }
  in
  (* two back-to-back frames of 1000 bytes at 8 Gbit/s = 1000 ns of
     serialization each; the second queues behind the first *)
  Link.send (Link.a link) f;
  Link.send (Link.a link) f;
  Fabric.pump fab;
  (match List.rev !arrivals with
  | [ (t1, n1); (t2, n2) ] ->
      check cint "first frame size" 1000 n1;
      check cint "second frame size" 1000 n2;
      check cbool "first at serialization + latency"
        true
        (abs_float (t1 -. 101_000.) < 1.0);
      check cbool "second queued behind first" true
        (abs_float (t2 -. 102_000.) < 1.0)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l));
  check cint "tx counted" 2 (counter_value h "net.frames_tx");
  check cint "rx counted" 2 (counter_value h "net.frames_rx");
  check cbool "fabric idle" true (Fabric.idle fab)

(* --- seeded loss is deterministic --- *)

let lossy_run ~seed =
  let h, fab = fabric_of ~seed () in
  let link = Link.create fab ~name:"lossy" ~loss:0.3 () in
  let got = ref [] in
  Link.set_handler (Link.b link) (fun raw ->
      got := Bytes.get_uint8 raw Frame.header_size :: !got);
  for i = 0 to 99 do
    Link.send (Link.a link)
      (Frame.encode
         {
           Frame.src = 1;
           dst = 2;
           ethertype = Frame.eth_experimental;
           payload = Bytes.make 1 (Char.chr i);
         });
    Fabric.pump fab
  done;
  (List.rev !got, counter_value h "net.frames_dropped")

let test_loss_deterministic () =
  let got1, dropped1 = lossy_run ~seed:42 in
  let got2, dropped2 = lossy_run ~seed:42 in
  let got3, dropped3 = lossy_run ~seed:43 in
  check cbool "some frames dropped" true (dropped1 > 0);
  check cbool "some frames delivered" true (List.length got1 > 0);
  check cint "same drops across runs" dropped1 dropped2;
  check cbool "same delivery sequence" true (got1 = got2);
  check cbool "different seed differs" true
    (got1 <> got3 || dropped1 <> dropped3)

(* --- switch MAC learning --- *)

let test_switch_learning () =
  let h, fab = fabric_of () in
  let sw = Switch.create fab ~name:"sw" in
  let mk i =
    let l = Link.create fab ~name:(Printf.sprintf "p%d" i) () in
    Switch.plug sw (Link.a l);
    l
  in
  let la = mk 0 and lb = mk 1 and lc = mk 2 in
  let inbox = Array.make 3 0 in
  List.iteri
    (fun i l ->
      Link.set_handler (Link.b l) (fun _ -> inbox.(i) <- inbox.(i) + 1))
    [ la; lb; lc ];
  let mac i = Frame.make_mac ~vendor:9 ~serial:i in
  let send l ~src ~dst =
    Link.send (Link.b l)
      (Frame.encode
         {
           Frame.src;
           dst;
           ethertype = Frame.eth_experimental;
           payload = Bytes.empty;
         });
    Fabric.pump fab
  in
  (* A broadcasts: everyone but A hears it; switch learns A *)
  send la ~src:(mac 0) ~dst:Frame.broadcast;
  check cint "b heard broadcast" 1 inbox.(1);
  check cint "c heard broadcast" 1 inbox.(2);
  check cint "a did not hear own broadcast" 0 inbox.(0);
  (* B replies to A's learned MAC: unicast, C hears nothing new *)
  send lb ~src:(mac 1) ~dst:(mac 0);
  check cint "a got unicast" 1 inbox.(0);
  check cint "c not flooded" 1 inbox.(2);
  check cint "one forwarded" 1 (counter_value h "sw.forwarded");
  (* unknown destination floods *)
  send lc ~src:(mac 2) ~dst:(mac 7);
  check cint "flooded twice total" 2 (counter_value h "sw.flooded");
  check cint "learned 3 macs" 3 (List.length (Switch.known_macs sw))

(* --- end-to-end: attach a NIC, run the echo workload --- *)

let attach_with_net ?(mode = Traffic.Echo) ?(loss = 0.0) ?(seed = 23)
    ?(traced = false) () =
  let h, vmm, g = Test_attach.setup ~seed () in
  if traced then Observe.enable h.H.Host.observe;
  let fabric, guest_port = Traffic.make_network h ~mode ~loss () in
  let config =
    Vmsh.Attach.Config.with_net
      { Vmsh.Attach.fabric; port = guest_port }
      (Vmsh.Attach.Config.make ())
  in
  match Test_attach.do_attach ~config (h, vmm, g) with
  | Error e -> Alcotest.failf "attach failed: %s" e
  | Ok session -> (h, vmm, g, session)

let test_echo_1000 () =
  let h, vmm, g, _session = attach_with_net () in
  check cbool "vmsh-net registered" true (Guest.vmsh_net g <> None);
  let r =
    Traffic.run_client vmm g ~requests:1000 ~payload_size:64
      ~mode:Traffic.Echo ()
  in
  check cint "all round trips completed" 1000 r.Traffic.completed;
  check cint "no retransmits without loss" 0 r.Traffic.retransmits;
  check cbool "echo returns the payload size" true
    (r.Traffic.bytes_rx = 1000 * 64);
  check cbool "virtual time advanced" true (r.Traffic.elapsed_ns > 0.);
  check cbool "throughput computed" true (r.Traffic.rps > 0.);
  (* per-request percentiles exported *)
  let hist =
    Observe.Metrics.histogram
      (Observe.metrics h.H.Host.observe)
      "net-echo.request_ns"
  in
  check cint "1000 samples" 1000 (Observe.Metrics.count hist);
  check cbool "p99 sane" true
    (Observe.Metrics.percentile hist 99.0 > 0.);
  (* device-side counters *)
  check cbool "guest transmitted >= 1000 frames" true
    (counter_value h "vmsh-net.tx_frames" >= 1000);
  check cbool "guest received >= 1000 frames" true
    (counter_value h "vmsh-net.rx_frames" >= 1000);
  check cint "server saw every request" 1000
    (counter_value h "net-server.requests")

let test_http_workload () =
  let h, vmm, g, _session = attach_with_net ~mode:(Traffic.Http 1024) () in
  let r =
    Traffic.run_client vmm g ~requests:200 ~payload_size:32
      ~mode:(Traffic.Http 1024) ~name:"net-http" ()
  in
  check cint "completed" 200 r.Traffic.completed;
  check cint "fixed-size responses" (200 * 1024) r.Traffic.bytes_rx;
  check cbool "looks like http" true
    (counter_value h "net-server.requests" = 200)

let test_udp_retry_under_loss () =
  let _h, vmm, g, _session = attach_with_net ~loss:0.2 ~seed:91 () in
  let r =
    Traffic.run_client vmm g ~requests:300 ~payload_size:64
      ~mode:Traffic.Echo ()
  in
  check cint "all completed despite loss" 300 r.Traffic.completed;
  check cbool "losses forced retransmits" true (r.Traffic.retransmits > 0)

let test_tcp_lite_under_loss () =
  let _h, vmm, g, _session = attach_with_net ~loss:0.2 ~seed:17 () in
  let r =
    Traffic.run_client vmm g ~requests:200 ~payload_size:256
      ~mode:Traffic.Echo ~proto:`Tcp ~name:"net-tcp" ()
  in
  check cint "stop-and-wait delivers all" 200 r.Traffic.completed;
  check cint "every response is the echo" (200 * 256) r.Traffic.bytes_rx

(* --- per-request sampling is real, and degenerate on purpose --- *)

(* On a clean link the per-request histogram collapses: all 1000
   samples are the same round-trip time (min == mean == max == p50 at
   any reported precision). That is not a sampling bug — the link
   model charges a fixed propagation latency plus a deterministic
   per-byte serialization cost, and every echo request carries the
   same payload size, so every round trip really does take identical
   virtual time. The only spread left is float ulps: the virtual clock
   is an accumulating double, so [now -. t0] rounds differently as
   absolute time grows. The histogram spreads for real only when
   something varies per request, e.g. seeded loss forcing retransmits.
   This pins both halves of that story so a future "fix" that perturbs
   per-request sampling trips it. *)
let test_request_hist_degenerate_clean () =
  let h, vmm, g, _session = attach_with_net () in
  let r =
    Traffic.run_client vmm g ~requests:1000 ~payload_size:64
      ~mode:Traffic.Echo ()
  in
  check cint "all completed" 1000 r.Traffic.completed;
  check cint "no retransmits to spread it" 0 r.Traffic.retransmits;
  let hist =
    Observe.Metrics.histogram
      (Observe.metrics h.H.Host.observe)
      "net-echo.request_ns"
  in
  check cint "one sample per request" 1000 (Observe.Metrics.count hist);
  let mn = Observe.Metrics.min_value hist in
  let mx = Observe.Metrics.max_value hist in
  check cbool "samples are positive" true (mn > 0.);
  (* sub-nanosecond spread across 1000 samples = constant RTT *)
  check cbool "clean link: min == max within an ulp" true (mx -. mn < 1.0);
  check cbool "clean link: mean collapses too" true
    (abs_float (Observe.Metrics.mean hist -. mn) < 1.0);
  check cbool "clean link: p50 collapses too" true
    (abs_float (Observe.Metrics.percentile hist 50.0 -. mn) < 1.0)

let test_request_hist_spreads_under_loss () =
  let h, vmm, g, _session = attach_with_net ~loss:0.2 ~seed:91 () in
  let r =
    Traffic.run_client vmm g ~requests:300 ~payload_size:64
      ~mode:Traffic.Echo ()
  in
  check cint "all completed" 300 r.Traffic.completed;
  check cbool "loss forced retransmits" true (r.Traffic.retransmits > 0);
  let hist =
    Observe.Metrics.histogram
      (Observe.metrics h.H.Host.observe)
      "net-echo.request_ns"
  in
  check cint "still one sample per request" 300 (Observe.Metrics.count hist);
  check cbool "retried requests spread the histogram" true
    (Observe.Metrics.min_value hist < Observe.Metrics.max_value hist)

(* --- whole-scenario determinism: identical traces --- *)

let traced_run () =
  let h, vmm, g, session = attach_with_net ~loss:0.1 ~seed:5 ~traced:true () in
  ignore session;
  let r =
    Traffic.run_client vmm g ~requests:100 ~payload_size:128
      ~mode:Traffic.Echo ()
  in
  ignore r;
  ( Observe.Export.chrome_trace h.H.Host.observe,
    Observe.Export.metrics_json (Observe.metrics h.H.Host.observe) )

let test_deterministic_traces () =
  let trace1, metrics1 = traced_run () in
  let trace2, metrics2 = traced_run () in
  check cbool "chrome traces byte-identical" true (trace1 = trace2);
  List.iter
    (fun name ->
      check cbool ("trace carries " ^ name ^ " events") true
        (match
           Str.search_forward
             (Str.regexp_string ("{\"name\":\"" ^ name))
             trace1 0
         with
        | _ -> true
        | exception Not_found -> false))
    [ "vmsh-net."; "net.drop"; "kvm." ];
  check cstr "metrics byte-identical" metrics1 metrics2

let suite =
  [
    ( "net.substrate",
      [
        Alcotest.test_case "frame codec" `Quick test_frame_codec;
        Alcotest.test_case "link latency and serialization" `Quick
          test_link_latency;
        Alcotest.test_case "seeded loss deterministic" `Quick
          test_loss_deterministic;
        Alcotest.test_case "switch mac learning" `Quick test_switch_learning;
      ] );
    ( "net.e2e",
      [
        Alcotest.test_case "echo 1000 round trips" `Quick test_echo_1000;
        Alcotest.test_case "http-ish responses" `Quick test_http_workload;
        Alcotest.test_case "udp retry under loss" `Quick
          test_udp_retry_under_loss;
        Alcotest.test_case "tcp-lite under loss" `Quick
          test_tcp_lite_under_loss;
        Alcotest.test_case "deterministic traces" `Quick
          test_deterministic_traces;
        Alcotest.test_case "request histogram degenerate on clean link"
          `Quick test_request_hist_degenerate_clean;
        Alcotest.test_case "request histogram spreads under loss" `Quick
          test_request_hist_spreads_under_loss;
      ] );
  ]
