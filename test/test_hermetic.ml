(* Hermetic sessions: what one session records does not depend on how
   many sessions ran before it in the same process. The recipe below
   (boot, attach, a hostname round trip, detach) runs once, then enough
   attach/detach cycles to carry a process-wide memslot counter past
   KVM's user-slot ceiling, then the recipe again; both runs must agree
   byte for byte. *)

module H = Hostos
module Vmm = Hypervisor.Vmm

let check = Alcotest.check

let boot h ~hostname =
  fst
    (Fleet.Machine.cold_boot h ~profile:Hypervisor.Profile.qemu
       ~version:Linux_guest.Kernel_version.V5_10 ~hostname)

let attach ?config h vmm =
  match
    Vmsh.Attach.attach h ~hypervisor_pid:(Vmm.pid vmm) ?config
      ~fs_image:(Fleet.Machine.tools_image h.H.Host.clock)
      ~pump:(fun () -> Vmm.run_until_idle vmm)
      ()
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "attach: %s" (Vmsh.Vmsh_error.to_string e)

let detach s =
  match Vmsh.Attach.detach s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "detach: %s" (Vmsh.Vmsh_error.to_string e)

let slot_ids vmm =
  List.sort compare
    (List.map (fun s -> s.Kvm.Vm.slot) (Kvm.Vm.memslots (Vmm.kvm_vm vmm)))

type run = {
  ids : int list;  (** the VM's memslot ids while attached *)
  reply : string;
  events : string list;  (** the host's flight recording *)
  digest : string;  (** the guest after detach *)
}

let recipe () =
  let h = H.Host.create ~seed:29 () in
  let vmm = boot h ~hostname:"hermetic" in
  let s = attach h vmm in
  let ids = slot_ids vmm in
  let reply = Vmsh.Attach.console_roundtrip s "hostname" in
  detach s;
  {
    ids;
    reply;
    events =
      List.map (Format.asprintf "%a" Trace.pp_event)
        (Trace.Recorder.events h.H.Host.recorder);
    digest = Vmsh.Snapshot.digest (Vmsh.Snapshot.capture (Vmm.kvm_vm vmm));
  }

(* 509 - 61 + 1: one more attach than the ids from the library's base
   slot up to KVM's ceiling *)
let cycles = Kvm.Api.user_mem_slots - Vmsh.Loader.memslot_base_index + 1

let test_recipe_reproduces () =
  let first = recipe () in
  check Alcotest.bool "the library took a slot of its own" true
    (List.mem Vmsh.Loader.memslot_base_index first.ids);
  check Alcotest.string "hostname reply" "hermetic\n" first.reply;
  (* each cycle attaches to a fresh fork of one baked machine: a guest
     keeps the library's devices registered after detach, so a VM takes
     one attach/detach only *)
  let image = Fleet.Baseline.bake ~hostname:"churn" () in
  let config =
    Vmsh.Attach.Config.with_symbol_cache
      (Vmsh.Symbol_analysis.Cache.create ())
      (Vmsh.Attach.Config.make ())
  in
  for i = 1 to cycles do
    let h = H.Host.create ~seed:i () in
    match
      Fleet.Baseline.fork image ~host:h ~profile:Hypervisor.Profile.qemu
        ~name:"churn"
    with
    | Ok fk -> detach (attach ~config h fk.Fleet.Baseline.fk_vmm)
    | Error e -> Alcotest.failf "fork: %s" (Vmsh.Vmsh_error.to_string e)
  done;
  let again = recipe () in
  check Alcotest.(list int) "memslot ids" first.ids again.ids;
  check Alcotest.string "hostname reply" first.reply again.reply;
  check Alcotest.(list string) "flight events" first.events again.events;
  check Alcotest.string "guest digest after detach" first.digest again.digest

(* An attach takes the lowest free id, so a VM's first attach gets 61
   whatever ran before, and detach hands the id back. A second attach
   to a VM still attached (a still-ptraced VM refuses one here, so the
   loader's rule is checked directly) must not replace the first one's
   slot, which still backs that attach's library. *)
let test_lowest_free_id () =
  let h = H.Host.create ~seed:37 () in
  let vmm = boot h ~hostname:"twice" in
  let base = Vmsh.Loader.memslot_base_index in
  let s = attach h vmm in
  check Alcotest.(list int) "attached" [ 0; base ] (slot_ids vmm);
  detach s;
  check Alcotest.(list int) "detached" [ 0 ] (slot_ids vmm);
  let slots ids =
    List.map (fun slot -> { Vmsh.Hyp_mem.slot; gpa = 0; size = 0; hva = 0 }) ids
  in
  let free ids = Vmsh.Loader.free_memslot (slots ids) in
  check Alcotest.int "fresh VM" base (free [ 0 ]);
  check Alcotest.int "still attached" (base + 1) (free [ 0; base ]);
  check Alcotest.int "a gap is reused" (base + 1) (free [ base + 2; 0; base ])

let suite =
  [
    ( "hermetic",
      [
        Alcotest.test_case "a recipe reproduces after 449 attaches" `Quick
          test_recipe_reproduces;
        Alcotest.test_case "an attach takes the lowest free id" `Quick
          test_lowest_free_id;
      ] );
  ]
