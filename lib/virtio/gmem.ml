type t = {
  read_into : addr:int -> bytes -> off:int -> len:int -> unit;
  write_from : addr:int -> bytes -> off:int -> len:int -> unit;
}

let read t ~addr ~len =
  let b = Bytes.create len in
  t.read_into ~addr b ~off:0 ~len;
  b

let write t ~addr b = t.write_from ~addr b ~off:0 ~len:(Bytes.length b)

let read_u16 t addr = Bytes.get_uint16_le (read t ~addr ~len:2) 0

let write_u16 t addr v =
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 v;
  write t ~addr b

let read_u32 t addr =
  Int32.to_int (Bytes.get_int32_le (read t ~addr ~len:4) 0) land 0xffffffff

let write_u32 t addr v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  write t ~addr b

let read_u64 t addr = Int64.to_int (Bytes.get_int64_le (read t ~addr ~len:8) 0)

let write_u64 t addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  write t ~addr b

let of_vm vm =
  {
    read_into =
      (fun ~addr buf ~off ~len -> Kvm.Vm.read_phys_into vm addr buf ~off ~len);
    write_from =
      (fun ~addr buf ~off ~len -> Kvm.Vm.write_phys_from vm addr buf ~off ~len);
  }
