type costs = {
  ns_context_switch : float;
  ns_syscall : float;
  ns_vmexit : float;
  ns_vmexit_userspace : float;
  ns_ptrace_stop : float;
  ns_per_byte_copy : float;
  ns_per_byte_remote_copy : float;
  ns_page_cache_hit : float;
  ns_irq_injection : float;
  ns_socket_msg : float;
  ns_device_4k : float;
  ns_fs_op : float;
}

(* Calibrated to an i9-9900K-class host with a fast NVMe drive: a raw
   syscall is ~300ns, a context switch ~1.2us, an in-kernel VMEXIT ~1.5us
   and a userspace-handled one ~4us; memcpy streams at ~10GB/s and
   process_vm_readv at ~7GB/s. *)
let default_costs =
  {
    ns_context_switch = 1200.0;
    ns_syscall = 300.0;
    ns_vmexit = 1500.0;
    ns_vmexit_userspace = 4000.0;
    ns_ptrace_stop = 2600.0;
    ns_per_byte_copy = 0.10;
    ns_per_byte_remote_copy = 0.145;
    ns_page_cache_hit = 450.0;
    ns_irq_injection = 900.0;
    ns_socket_msg = 1800.0;
    ns_device_4k = 2700.0;
    ns_fs_op = 700.0;
  }

type counters = {
  mutable context_switches : int;
  mutable syscalls : int;
  mutable vmexits : int;
  mutable mmio_exits : int;
  mutable ptrace_stops : int;
  mutable bytes_copied : int;
  mutable bytes_copied_remote : int;
  mutable page_cache_hits : int;
  mutable page_cache_misses : int;
  mutable irq_injections : int;
  mutable socket_msgs : int;
  mutable device_ops : int;
  mutable fs_ops : int;
}

let zero_counters () =
  {
    context_switches = 0;
    syscalls = 0;
    vmexits = 0;
    mmio_exits = 0;
    ptrace_stops = 0;
    bytes_copied = 0;
    bytes_copied_remote = 0;
    page_cache_hits = 0;
    page_cache_misses = 0;
    irq_injections = 0;
    socket_msgs = 0;
    device_ops = 0;
    fs_ops = 0;
  }

(* The time sits alone in an all-float record, which OCaml stores
   unboxed: a charge updates it in place and allocates nothing, where a
   mutable float field beside the other fields would box every new
   value. *)
type time = { mutable ns : float }
type t = { time : time; counters : counters; costs : costs }

let create ?(costs = default_costs) () =
  { time = { ns = 0.0 }; counters = zero_counters (); costs }

let now_ns t = t.time.ns
let counters t = t.counters
let costs t = t.costs
let[@inline] advance t ns = t.time.ns <- t.time.ns +. ns

let snapshot t =
  let c = t.counters in
  {
    context_switches = c.context_switches;
    syscalls = c.syscalls;
    vmexits = c.vmexits;
    mmio_exits = c.mmio_exits;
    ptrace_stops = c.ptrace_stops;
    bytes_copied = c.bytes_copied;
    bytes_copied_remote = c.bytes_copied_remote;
    page_cache_hits = c.page_cache_hits;
    page_cache_misses = c.page_cache_misses;
    irq_injections = c.irq_injections;
    socket_msgs = c.socket_msgs;
    device_ops = c.device_ops;
    fs_ops = c.fs_ops;
  }

let context_switch t =
  t.counters.context_switches <- t.counters.context_switches + 1;
  advance t t.costs.ns_context_switch

let syscall t =
  t.counters.syscalls <- t.counters.syscalls + 1;
  advance t t.costs.ns_syscall

let vmexit t =
  t.counters.vmexits <- t.counters.vmexits + 1;
  advance t t.costs.ns_vmexit

let vmexit_userspace t =
  t.counters.vmexits <- t.counters.vmexits + 1;
  advance t t.costs.ns_vmexit_userspace

let mmio_exit t =
  t.counters.mmio_exits <- t.counters.mmio_exits + 1;
  advance t t.costs.ns_vmexit_userspace

let ptrace_stop t =
  t.counters.ptrace_stops <- t.counters.ptrace_stops + 1;
  context_switch t;
  context_switch t;
  advance t t.costs.ns_ptrace_stop

let copy_bytes t n =
  t.counters.bytes_copied <- t.counters.bytes_copied + n;
  advance t (t.costs.ns_per_byte_copy *. Float.of_int n)

let copy_bytes_remote t n =
  t.counters.bytes_copied_remote <- t.counters.bytes_copied_remote + n;
  advance t (t.costs.ns_per_byte_remote_copy *. Float.of_int n)

let page_cache_hit t =
  t.counters.page_cache_hits <- t.counters.page_cache_hits + 1;
  advance t t.costs.ns_page_cache_hit

let page_cache_miss t =
  t.counters.page_cache_misses <- t.counters.page_cache_misses + 1

let irq_injection t =
  t.counters.irq_injections <- t.counters.irq_injections + 1;
  advance t t.costs.ns_irq_injection

let socket_msg t =
  t.counters.socket_msgs <- t.counters.socket_msgs + 1;
  advance t t.costs.ns_socket_msg

let device_op t ~blocks =
  t.counters.device_ops <- t.counters.device_ops + 1;
  advance t (t.costs.ns_device_4k *. Float.of_int (max 1 blocks))

let fs_op t =
  t.counters.fs_ops <- t.counters.fs_ops + 1;
  advance t t.costs.ns_fs_op

(* Run [f], then restore both the time and the counters to their
   values at entry. Used by VM forking: the fork *replays* the
   baseline's deterministic boot to reconstruct in-simulation state,
   but the forked machine never booted — it was cloned — so none of
   the replay's events may be observable in virtual time or in the
   mechanism counters. The caller charges the true fork cost (a few
   syscalls mapping shared memory) afterwards. *)
let restore_section t f =
  let now = t.time.ns in
  let saved = snapshot t in
  let restore () =
    t.time.ns <- now;
    let c = t.counters in
    c.context_switches <- saved.context_switches;
    c.syscalls <- saved.syscalls;
    c.vmexits <- saved.vmexits;
    c.mmio_exits <- saved.mmio_exits;
    c.ptrace_stops <- saved.ptrace_stops;
    c.bytes_copied <- saved.bytes_copied;
    c.bytes_copied_remote <- saved.bytes_copied_remote;
    c.page_cache_hits <- saved.page_cache_hits;
    c.page_cache_misses <- saved.page_cache_misses;
    c.irq_injections <- saved.irq_injections;
    c.socket_msgs <- saved.socket_msgs;
    c.device_ops <- saved.device_ops;
    c.fs_ops <- saved.fs_ops
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

let to_fields c =
  [
    ("context_switches", c.context_switches);
    ("syscalls", c.syscalls);
    ("vmexits", c.vmexits);
    ("mmio_exits", c.mmio_exits);
    ("ptrace_stops", c.ptrace_stops);
    ("bytes_copied", c.bytes_copied);
    ("bytes_copied_remote", c.bytes_copied_remote);
    ("page_cache_hits", c.page_cache_hits);
    ("page_cache_misses", c.page_cache_misses);
    ("irq_injections", c.irq_injections);
    ("socket_msgs", c.socket_msgs);
    ("device_ops", c.device_ops);
    ("fs_ops", c.fs_ops);
  ]
