(* Order statistics over sample arrays. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile ([p] in [0, 1]): always one of the samples,
   so a virtual-clock percentile is an exact simulated value. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else
    let a = sorted xs in
    let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median xs = percentile xs 0.5
let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

let max_of xs = Array.fold_left Float.max 0.0 xs

(* First quartile, median and third quartile with the same interpolation
   as Python's [statistics.quantiles(xs, n=4)] (the "exclusive"
   method), which is how the benchmark's run-to-run spread is judged. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = max 1 (min (ld - 1) j) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
