(* The hostile-guest engine and the chaos matrix built on it.

   The unit half checks the engine's contract (seeded determinism,
   bounded budget, class naming); the integration half runs single
   matrix cells end-to-end and asserts the hardened attach path's
   guarantee: completed attach or clean round-trippable abort, snapshot
   oracle passing, nothing leaked. The full matrix (every class × every
   crash point) runs in the [hostile-matrix] CI stage, not here. *)

module Sweep = Fleet.Sweep

let test_names () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Hostile.name c ^ " round-trips") true
        (Hostile.of_name (Hostile.name c) = Some c))
    Hostile.all;
  Alcotest.(check (option reject)) "unknown name" None (Hostile.of_name "evil")

(* One probe cell per class: no crash point, adversary stepping at
   every yield. Whatever the outcome, the post-conditions must hold. *)
let check_cell ?k h =
  let point = Sweep.run_point ~hostile:h ~seed:11 ~cls:None ~k () in
  let r = point.Sweep.pt_report in
  let label = Format.asprintf "%a" Sweep.pp_point point in
  Alcotest.(check (list string)) (label ^ ": oracle") [] r.Fleet.Session.oracle;
  Alcotest.(check int) (label ^ ": fd leak") 0 r.Fleet.Session.leaked_fds;
  if Sweep.unclean r.Fleet.Session.verdict then
    Alcotest.failf "%s: unclean: %s" label
      (Faults.Abort.detail r.Fleet.Session.verdict);
  point

let test_probe_cells () =
  List.iter
    (fun h ->
      let p = check_cell h in
      (* descriptor chaos is noisy but must not stop the attach *)
      if h = Hostile.Desc_chaos then
        Alcotest.(check string)
          "desc-chaos completes" "survived"
          (Faults.Abort.label p.Sweep.pt_report.Fleet.Session.verdict);
      (* the adversary must actually have acted, not silently no-oped *)
      Alcotest.(check bool)
        (Hostile.name h ^ " stepped")
        true
        (List.exists
           (fun e -> e.Trace.kind = "hostile.step")
           p.Sweep.pt_events))
    Hostile.all

(* The same cell twice must be byte-identical: same outcome, same
   digest, same flight recording (the determinism gate every hostile
   reproducer depends on). *)
let test_cell_determinism () =
  List.iter
    (fun h ->
      let a = check_cell h and b = check_cell h in
      Alcotest.(check string)
        (Hostile.name h ^ " outcome") (Sweep.outcome a) (Sweep.outcome b);
      Alcotest.(check string)
        (Hostile.name h ^ " digest")
        (Lazy.force a.Sweep.pt_report.Fleet.Session.digest)
        (Lazy.force b.Sweep.pt_report.Fleet.Session.digest);
      Alcotest.(check int)
        (Hostile.name h ^ " events")
        (List.length a.Sweep.pt_events)
        (List.length b.Sweep.pt_events))
    Hostile.all

(* A mid-attach crash point under an active adversary: the journal must
   still roll the guest back cleanly. *)
let test_crash_under_attack () =
  List.iter (fun h -> ignore (check_cell ~k:3 h)) Hostile.all

let test_hostile_meta () =
  let point =
    Sweep.run_point ~hostile:Hostile.Toctou_scan ~seed:11 ~cls:None ~k:None ()
  in
  Alcotest.(check bool)
    "cell labelled hostile" true
    (point.Sweep.pt_class = "hostile-toctou-scan")

let suite =
  [
    ( "hostile",
      [
        Alcotest.test_case "class names round-trip" `Quick test_names;
        Alcotest.test_case "probe cells clean" `Slow test_probe_cells;
        Alcotest.test_case "cells are deterministic" `Slow test_cell_determinism;
        Alcotest.test_case "crash point under attack" `Slow test_crash_under_attack;
        Alcotest.test_case "hostile cell labelling" `Quick test_hostile_meta;
      ] );
  ]
