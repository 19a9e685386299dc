type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  assert (bound > 0);
  next t mod bound

(* [int t 256] per byte, with [next64] and [mix64] inlined on unboxed
   locals: byte [i] is bits 2–9 of the [i]th mixed word ([next] is
   non-negative, so [mod 256] is [land 255]), and [t] ends where the
   per-byte loop leaves it. Allocates nothing. *)
let fill_bytes t b =
  let s = ref t.state in
  for i = 0 to Bytes.length b - 1 do
    let z = Int64.add !s golden_gamma in
    s := z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Bytes.unsafe_set b i (Char.unsafe_chr ((Int64.to_int z lsr 2) land 255))
  done;
  t.state <- !s

(* NB: 2^62 is not representable as an OCaml int (63-bit), so the
   divisor must be built as a float. *)
let float t x = Float.of_int (next t) /. Float.ldexp 1.0 62 *. x

let split t = { state = mix64 (next64 t) }

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
