(* Bounded retry with exponential virtual-time backoff — the recovery
   discipline shared by the attach path. Transient substrate failures
   (EINTR/EAGAIN from injected syscalls, EAGAIN from a raced attach,
   EFAULT from process_vm_readv against a page mid-remap) are retried a
   fixed number of times; anything still failing after that surfaces to
   the caller as a clean, diagnosable error.

   Metric registration is lazy — a run in which nothing retries touches
   neither the clock nor the metric registry, keeping the no-faults run
   identical to one built without fault injection. *)

module Host = Hostos.Host
module Clock = Hostos.Clock

let max_attempts = 6
let base_backoff_ns = 20_000.

(* [with_backoff h ~counter ~should_retry f first] continues from a
   first attempt that returned [first], running [f] again until
   [should_retry] rejects its result or the attempt budget is spent.
   Each retry bumps the named [recovery.*] counter, records the backoff
   in the [recovery.backoff_ns] histogram, emits a trace instant, and
   sleeps the (doubling) backoff in virtual time. Taking the first
   result lets a hot caller make its first attempt inline and build
   [f] only once that attempt has failed. *)
let with_backoff h ~counter ~should_retry f first =
  let rec go attempt r =
    if should_retry r && attempt < max_attempts then begin
      let m = Observe.metrics h.Host.observe in
      Observe.Metrics.incr (Observe.Metrics.counter m counter);
      let delay = base_backoff_ns *. Float.ldexp 1.0 (attempt - 1) in
      Observe.Metrics.observe
        (Observe.Metrics.histogram m "recovery.backoff_ns")
        delay;
      Trace.Recorder.record h.Host.recorder ~phase:Trace.Instant
        ~kind:("recovery.retry." ^ counter)
        ~args:
          [
            ("attempt", Trace.I attempt);
            ("backoff_ns", Trace.I (int_of_float delay));
          ]
        ();
      Clock.advance h.Host.clock delay;
      go (attempt + 1) (f ())
    end
    else r
  in
  go 1 first
