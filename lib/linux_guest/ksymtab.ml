type sym = { name : string; va : int }

let build_strings syms =
  let buf = Buffer.create 1024 in
  let offsets =
    List.map
      (fun s ->
        let off = Buffer.length buf in
        Buffer.add_string buf s.name;
        Buffer.add_char buf '\000';
        (s.name, off))
      syms
  in
  (Buffer.to_bytes buf, offsets)

let entry_size = function
  | Kernel_version.Absolute_value_first | Kernel_version.Absolute_name_first -> 16
  | Kernel_version.Prel32 -> 8

(* Name offsets are looked up in a table built once per call; where a
   name is bound twice, the first binding wins, as with [List.assoc]. *)
let build_table layout ~syms ~strings_va ~table_va ~name_offsets =
  let esz = entry_size layout in
  let b = Bytes.make (esz * List.length syms) '\000' in
  let offsets = Hashtbl.create (List.length name_offsets) in
  List.iter
    (fun (name, off) ->
      if not (Hashtbl.mem offsets name) then Hashtbl.add offsets name off)
    name_offsets;
  List.iteri
    (fun i s ->
      let name_va = strings_va + Hashtbl.find offsets s.name in
      let base = i * esz in
      match layout with
      | Kernel_version.Absolute_value_first ->
          Bytes.set_int64_le b base (Int64.of_int s.va);
          Bytes.set_int64_le b (base + 8) (Int64.of_int name_va)
      | Kernel_version.Absolute_name_first ->
          Bytes.set_int64_le b base (Int64.of_int name_va);
          Bytes.set_int64_le b (base + 8) (Int64.of_int s.va)
      | Kernel_version.Prel32 ->
          let value_field_va = table_va + base in
          let name_field_va = table_va + base + 4 in
          Bytes.set_int32_le b base (Int32.of_int (s.va - value_field_va));
          Bytes.set_int32_le b (base + 4) (Int32.of_int (name_va - name_field_va)))
    syms;
  b

(* Filler export names. Must not shadow the functions the guest really
   implements (printk, kernel_read, ...): a duplicate name would make
   symbol resolution ambiguous, which real kernels do not allow for
   exports either. *)
let base_names =
  [
    "kmalloc"; "kfree"; "vmalloc"; "vfree"; "memcpy"; "memset";
    "strlen"; "strcmp"; "snprintf"; "mutex_lock"; "mutex_unlock";
    "spin_lock_irqsave"; "spin_unlock_irqrestore"; "schedule_timeout";
    "msleep"; "jiffies_to_msecs"; "get_jiffies_64"; "register_chrdev";
    "unregister_chrdev"; "alloc_pages"; "__free_pages"; "ioremap";
    "iounmap"; "request_irq"; "free_irq"; "dev_warn"; "dev_err";
    "device_register"; "device_unregister"; "bus_register"; "put_device";
    "get_device"; "kobject_init"; "kobject_put"; "sysfs_create_file";
    "sysfs_remove_file"; "init_waitqueue_head"; "wait_event_timeout";
    "wake_up"; "finish_wait"; "prepare_to_wait"; "add_timer"; "del_timer";
    "mod_timer"; "queue_work_on"; "flush_workqueue"; "destroy_workqueue";
    "alloc_workqueue"; "kstrdup"; "kstrndup"; "krealloc"; "ksize";
    "complete"; "wait_for_completion"; "init_completion"; "down_read";
    "up_read"; "down_write"; "up_write"; "copy_from_user"; "copy_to_user";
    "find_vpid"; "pid_task"; "get_task_struct"; "put_task_struct";
    "send_sig"; "kill_pid"; "si_meminfo"; "vfs_statfs"; "dput"; "mntput";
    "path_put"; "kern_path"; "dentry_path_raw"; "d_path"; "vfs_fsync";
    "generic_file_read_iter"; "generic_file_write_iter"; "iov_iter_init";
    "blk_mq_init_queue"; "blk_mq_free_tag_set"; "blk_cleanup_queue";
    "add_disk"; "del_gendisk"; "alloc_disk"; "put_disk"; "bdget_disk";
    "register_blkdev"; "unregister_blkdev"; "submit_bio"; "bio_alloc";
    "bio_put"; "tty_register_driver"; "tty_unregister_driver";
    "tty_insert_flip_string"; "tty_flip_buffer_push"; "hvc_alloc";
    "hvc_remove"; "hvc_kick"; "hvc_instantiate"; "console_lock";
    "console_unlock"; "register_console"; "unregister_console";
  ]

let v5_only_names =
  [
    "fs_context_for_mount"; "fc_mount"; "lookup_positive_unlocked";
    "ksys_sync_helper"; "blk_mq_alloc_disk"; "memremap_pages";
  ]

let v4_only_names =
  [ "sys_close"; "do_mmap_pgoff"; "vfs_read"; "vfs_write"; "f_dupfd" ]

let reserved_names =
  [
    "printk"; "register_virtio_mmio_dev"; "unregister_virtio_mmio_dev";
    "register_virtio_pci_dev";
    "filp_open"; "filp_close"; "kernel_read"; "kernel_write";
    "kthread_create_on_node"; "wake_up_process"; "kernel_clone"; "do_exit";
    "schedule"; "linux_banner";
  ]

let noise_symbols rng ~version ~count ~text_va ~text_size =
  let pool =
    base_names
    @ (match version with
      | Kernel_version.V5_4 | V5_10 | V5_12 -> v5_only_names
      | _ -> v4_only_names)
  in
  let pool = List.filter (fun n -> not (List.mem n reserved_names)) pool in
  let pool = Array.of_list pool in
  let seen = Hashtbl.create 64 in
  let mk i =
    let base = pool.(Hostos.Rng.int rng (Array.length pool)) in
    let name =
      if Hashtbl.mem seen base then Printf.sprintf "%s_%d" base i else base
    in
    Hashtbl.replace seen name ();
    {
      name;
      va = text_va + 64 + Hostos.Rng.int rng (max 64 (text_size - 128)) land lnot 0xf;
    }
  in
  List.init count mk
