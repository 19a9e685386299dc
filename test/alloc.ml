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
   because those are allocated straight into the major heap. *)
let words f =
  settle ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
