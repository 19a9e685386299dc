type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
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

(* Byte [k] (from 0) of the [int t 256] stream that starts at state
   [s] — bits 2–9 of [mix64 (s + (k+1)·gamma)], since [next] is
   non-negative and [mod 256] is [land 255] — placed at bits [8k] ..
   [8k+7] of a 64-bit word. Inlined with a constant [k], so the shifts
   fold and the [int64] locals stay unboxed. *)
let[@inline] lane s k =
  let z = mix64 (Int64.add s (Int64.mul (Int64.of_int (k + 1)) golden_gamma)) in
  if k = 0 then Int64.logand (Int64.shift_right_logical z 2) 0xffL
  else Int64.logand (Int64.shift_left z ((8 * k) - 2)) (Int64.shift_left 0xffL (8 * k))

(* [int t 256] per byte into [b] at [\[off, off + len)], eight bytes per
   step: a step's eight mixes depend only on the state it starts from,
   so they run side by side, and their bytes go out in one
   little-endian 64-bit store. A scalar tail takes the last
   [len mod 8] bytes, and [t] ends where the per-byte loop leaves it.
   Allocates nothing. *)
let fill_into t b off len =
  let n = off + len in
  let s = ref t.state in
  let i = ref off in
  while !i + 8 <= n do
    let s0 = !s in
    Bytes.set_int64_le b !i
      (Int64.logor
         (Int64.logor
            (Int64.logor (lane s0 0) (lane s0 1))
            (Int64.logor (lane s0 2) (lane s0 3)))
         (Int64.logor
            (Int64.logor (lane s0 4) (lane s0 5))
            (Int64.logor (lane s0 6) (lane s0 7))));
    s := Int64.add s0 (Int64.mul 8L golden_gamma);
    i := !i + 8
  done;
  while !i < n do
    Bytes.unsafe_set b !i (Char.unsafe_chr (Int64.to_int (lane !s 0)));
    s := Int64.add !s golden_gamma;
    incr i
  done;
  t.state <- !s

let fill_bytes t b = fill_into t b 0 (Bytes.length b)

(* Byte [k] of the stream depends only on [state + (k+1)·gamma], so
   the window at [pos] is the stream of a generator [pos] steps on. *)
let fill_bytes_at t ~pos b ~off ~len =
  if pos < 0 || off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Splitmix.fill_bytes_at";
  fill_into
    { state = Int64.add t.state (Int64.mul (Int64.of_int pos) golden_gamma) }
    b off len

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
