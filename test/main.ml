let () =
  Alcotest.run "vmsh"
    (Test_hostos.suite @ Test_x86.suite @ Test_elfkit.suite @ Test_blockdev.suite @ Test_virtio.suite @ Test_kvm.suite @ Test_linux_guest.suite @ Test_boot.suite @ Test_attach.suite @ Test_vmsh_units.suite @ Test_workloads.suite @ Test_usecases.suite @ Test_hypervisor.suite
     @ Test_attach.robustness_suite @ Test_observe.suite @ Test_net.suite @ Test_faults.suite
     @ Test_fleet.suite @ Test_service.suite @ Test_rollback.suite @ Test_trace.suite
     @ Test_fuzz.suite @ Test_hostile.suite @ Test_datapath.suite @ Test_hermetic.suite @ Test_pins.suite)
