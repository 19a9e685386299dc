(* Allocation counting for the unit suite's bounds. *)

(* [words f] runs [f ()] and returns its result with the words it
   allocated on both heaps: minor + major - promoted, the count perf's
   [gc.alloc_mib_per_op] reports. [Gc.minor_words] alone misses every
   block over 256 words — 4 KiB pages, image buffers — because those
   are allocated straight into the major heap. *)
let words f =
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
