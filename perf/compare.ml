(* Compare two sets of results documents (the parent's runs and the
   change's runs, e.g. ten alternating pairs) workload by workload and
   metric by metric: median and quartiles of each side and a verdict.
   End-to-end metrics are judged against their bound. Per-layer metrics
   have none: a virtual-clock one repeats exactly for a seed, so any
   change of its median is a verdict; a host one is shown for diagnosis
   and judged "-". Failed operations must not rise: each workload's
   failed_ratio (failed over attempted, summed over a side's documents)
   is "worse" as soon as the new side's exceeds the base's. *)

type side = { q1 : float; med : float; q3 : float; lo : float; hi : float }

let side xs =
  let q1, med, q3 = Stats.quartiles xs in
  let a = Stats.sorted xs in
  { q1; med; q3; lo = a.(0); hi = a.(Array.length a - 1) }

let spread s = if s.med = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.med

(* How much worse [n] is than [b], as a share of [b] (negative: better). *)
let worse_by (m : Catalogue.metric) b n =
  let d = match m.Catalogue.better with Catalogue.Lower -> n -. b | Catalogue.Higher -> b -. n in
  if b = 0. then (if d = 0. then 0. else Float.copy_sign Float.infinity d)
  else d /. Float.abs b

let verdict (m : Catalogue.metric) b n =
  (* every run of one side beats every run of the other *)
  let separated () =
    if worse_by m b.hi n.lo < 0. && worse_by m b.lo n.hi < 0. then Some "better"
    else if worse_by m b.lo n.hi > 0. && worse_by m b.hi n.lo > 0. then Some "worse"
    else None
  in
  match m.Catalogue.bound with
  | Some bound ->
      if spread b > bound || spread n > bound then
        Option.value ~default:"unresolved" (separated ())
      else
        let w = worse_by m b.med n.med in
        if w > bound then "worse" else if w < -.bound then "better" else "same"
  | None when m.Catalogue.clock = Catalogue.W -> "-"
  | None ->
      let w = worse_by m b.med n.med in
      if w > 0. then "worse" else if w < 0. then "better" else "same"

let load path =
  match Json.member "workloads" (Json.read_file path) with
  | Some (Json.Obj ws) -> ws
  | _ -> failwith (path ^ ": not a results document (no \"workloads\" object)")

let values docs workload (m : Catalogue.metric) =
  List.filter_map
    (fun ws ->
      Option.bind (List.assoc_opt workload ws) (fun w ->
          Option.bind (Json.member "metrics" w) (fun ms ->
              Option.bind (Json.member m.Catalogue.name ms) (fun v ->
                  Option.bind (Json.member "value" v) Json.to_float))))
    docs
  |> Array.of_list

(* Failed and attempted operations of [workload], summed over [docs]. *)
let failures docs workload =
  let count w k =
    Option.value ~default:0 (Option.map int_of_float (Option.bind (Json.member k w) Json.to_float))
  in
  List.fold_left
    (fun (f, a) ws ->
      match List.assoc_opt workload ws with
      | Some w -> (f + count w "failed", a + count w "attempted")
      | None -> (f, a))
    (0, 0) docs

(* Prints the table; true when failures rose or some end-to-end metric
   got worse. *)
let run ~base ~news =
  let base = List.map load base and news = List.map load news in
  let fmt s = Printf.sprintf "%.6g [%.6g %.6g]" s.med s.q1 s.q3 in
  Printf.printf "%-12s %-40s %-34s %-34s %s\n" "workload" "metric" "base median [q1 q3]"
    "new median [q1 q3]" "verdict";
  let worse = ref false in
  List.iter
    (fun w ->
      let (bf, ba) as b = failures base w and ((nf, na) as n) = failures news w in
      if ba > 0 && na > 0 then begin
        let ratio (f, a) = float_of_int f /. float_of_int a in
        let v =
          if ratio n > ratio b then "worse" else if ratio n < ratio b then "better" else "same"
        in
        if v = "worse" then worse := true;
        Printf.printf "%-12s %-40s %-34s %-34s %s\n" w "failed_ratio"
          (Printf.sprintf "%.6g (%d/%d)" (ratio b) bf ba)
          (Printf.sprintf "%.6g (%d/%d)" (ratio n) nf na)
          v
      end;
      List.iter
        (fun (m : Catalogue.metric) ->
          let b = values base w m and n = values news w m in
          if Array.length b > 0 && Array.length n > 0 then begin
            let bs = side b and ns = side n in
            let v = verdict m bs ns in
            if v = "worse" && m.Catalogue.bound <> None then worse := true;
            Printf.printf "%-12s %-40s %-34s %-34s %s\n" w m.Catalogue.name (fmt bs) (fmt ns) v
          end)
        (Catalogue.end_to_end @ Catalogue.per_layer))
    Catalogue.workload_names;
  !worse
