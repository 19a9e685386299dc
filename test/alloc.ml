(* Allocation counting for the unit suite's bounds. *)

(* [settle ()] finishes any major cycle in progress with a full major
   collection, so no cycle ends inside a counted window: one that does
   adds about 21 k words to a count (minor words and promotions both
   jump), whatever the window itself allocated. *)
let settle () = Gc.full_major ()

(* [words f] settles the heap, runs [f ()] and returns its result with
   the words it allocated on both heaps: minor + major - promoted, the
   count perf's [gc.alloc_mib_per_op] reports. [Gc.minor_words] alone
   misses every block over 256 words — 4 KiB pages, image buffers —
   because those are allocated straight into the major heap. The minor
   term comes from [Gc.minor_words]: on OCaml 5.1 [Gc.counters] counts
   the current minor heap at 1/8 (100,000 conses read 266,875 words
   there, 300,000 from [Gc.minor_words]). Each window reads
   [Gc.counters] outside the [Gc.minor_words] pair, so the tuple it
   allocates is not counted. *)
let words f =
  settle ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* [minor_words f] settles the heap, runs [f ()] and returns its result
   with the minor term of [words] alone: what [f] allocated in small
   blocks, which sees neither the 4 KiB pages nor the image buffers
   that go straight into the major heap. *)
let minor_words f =
  settle ();
  let minor0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. minor0)
