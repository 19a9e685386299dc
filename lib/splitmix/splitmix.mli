(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the simulation flows through an explicit [t] so that
    every experiment is reproducible from a seed. The host's generator
    ([Hostos.Rng]) and the private streams of fault plans, hostile guests
    and the trace fuzzer are all values of this one [t]. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val next : t -> int
(** [next t] returns a uniformly distributed non-negative 62-bit integer
    and advances the state. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val fill_bytes : t -> Bytes.t -> unit
(** [fill_bytes t b] overwrites every byte of [b] in order with
    [Char.chr (int t 256)] and leaves [t] where that loop would. The
    bytes come from one C loop (the noise kernel), which computes byte
    [k] from the counter [state + (k+1)·gamma] alone, so it vectorises:
    built with GCC for x86-64, the loop exists in an x86-64-v4
    (AVX-512) and a baseline build and the CPU picks one when the
    program loads; elsewhere it is the portable loop. Allocates only
    the new state. *)

val fill_bytes_at : t -> pos:int -> Bytes.t -> off:int -> len:int -> unit
(** [fill_bytes_at t ~pos b ~off ~len] writes bytes [\[pos, pos + len)]
    of the stream a {!fill_bytes} from [t]'s current state would draw
    into [b] at [off], and leaves [t] unchanged. Costs [len] bytes of
    work whatever [pos] is: the stream is counter-based. Raises
    [Invalid_argument] on a negative [pos] or a range outside [b]. *)

val portable_fill_bytes_at :
  t -> pos:int -> Bytes.t -> off:int -> len:int -> unit
(** {!fill_bytes_at} through the baseline-ISA build of the noise kernel,
    whichever build this CPU picks for {!fill_bytes_at}; the two write
    the same bytes. It exists so the unit suite can check both builds
    on one machine. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val split : t -> t
(** [split t] derives a new independent generator, advancing [t]. *)

val shuffle : t -> 'a array -> unit
(** Fisher-Yates shuffle in place. *)
