let vendor_virtio = 0x1af4
let device_id_base = 0x1040
let header_size = 0x48

module Config = struct
  let encode ~device_type ~bar0 ~msix_gsi =
    let b = Bytes.make header_size '\000' in
    Bytes.set_uint16_le b 0x00 vendor_virtio;
    Bytes.set_uint16_le b 0x02 (device_id_base + device_type);
    (* status: capabilities list present *)
    Bytes.set_uint16_le b 0x06 0x0010;
    (* header type 0, capabilities pointer -> 0x40 *)
    Bytes.set_uint8 b 0x34 0x40;
    (* BAR0: 64-bit memory BAR *)
    Bytes.set_int32_le b 0x10 (Int32.of_int ((bar0 land 0xffffffff) lor 0x4));
    Bytes.set_int32_le b 0x14 (Int32.of_int (bar0 lsr 32));
    (* vendor capability: id 0x09, next 0, length 8, payload = msix gsi *)
    Bytes.set_uint8 b 0x40 0x09;
    Bytes.set_uint8 b 0x41 0x00;
    Bytes.set_uint8 b 0x42 0x08;
    Bytes.set_int32_le b 0x44 (Int32.of_int msix_gsi);
    b

  type decoded = {
    vendor : int;
    device : int;
    device_type : int;
    bar0 : int;
    msix_gsi : int;
  }

  let decode b =
    if Bytes.length b < header_size then None
    else
      let vendor = Bytes.get_uint16_le b 0x00 in
      let device = Bytes.get_uint16_le b 0x02 in
      if vendor <> vendor_virtio || device < device_id_base then None
      else
        let lo =
          Int32.to_int (Bytes.get_int32_le b 0x10) land 0xffffffff land lnot 0xf
        in
        let hi = Int32.to_int (Bytes.get_int32_le b 0x14) land 0xffffffff in
        Some
          {
            vendor;
            device;
            device_type = device - device_id_base;
            bar0 = lo lor (hi lsl 32);
            msix_gsi = Int32.to_int (Bytes.get_int32_le b 0x44);
          }

  let probe ~read =
    (* real drivers read the id dword first and bail on 0xffff (no
       device), then walk the rest — mirror that access pattern *)
    let ids = read ~off:0x00 ~len:4 in
    let vendor = Bytes.get_uint16_le ids 0 in
    if vendor <> vendor_virtio then None
    else begin
      let b = Bytes.make header_size '\000' in
      Bytes.blit ids 0 b 0 4;
      List.iter
        (fun off -> Bytes.blit (read ~off ~len:4) 0 b off 4)
        [ 0x04; 0x10; 0x14; 0x34; 0x40; 0x44 ];
      decode b
    end
end
