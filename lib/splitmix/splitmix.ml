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

(* The noise kernel (splitmix_stubs.c): [int t 256] per byte into [b]
   at [\[off, off + len)] for a generator at state [s], which stays where
   it is. Byte [k] of the stream depends only on [s + (k+1)·gamma], so
   the C loop computes every byte independently. Allocates nothing. The
   caller checks the range. *)
external fill_into :
  (int64[@unboxed]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "vmsh_splitmix_fill_byte" "vmsh_splitmix_fill"
[@@noalloc]

external portable_fill_into :
  (int64[@unboxed]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "vmsh_splitmix_fill_portable_byte" "vmsh_splitmix_fill_portable"
[@@noalloc]

(* The state of a generator [k] steps on from [t]. *)
let[@inline] state_at t k = Int64.add t.state (Int64.mul (Int64.of_int k) golden_gamma)

let fill_bytes t b =
  let len = Bytes.length b in
  fill_into t.state b 0 len;
  t.state <- state_at t len

let check_window name b ~pos ~off ~len =
  if pos < 0 || off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg name

(* The window at [pos] is the stream of a generator [pos] steps on. *)
let fill_bytes_at t ~pos b ~off ~len =
  check_window "Splitmix.fill_bytes_at" b ~pos ~off ~len;
  fill_into (state_at t pos) b off len

let portable_fill_bytes_at t ~pos b ~off ~len =
  check_window "Splitmix.portable_fill_bytes_at" b ~pos ~off ~len;
  portable_fill_into (state_at t pos) b off len

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
