(* Ethernet-ish frames. A MAC is 48 bits in an OCaml int; frames carry
   src/dst/ethertype and an opaque payload, serialized little-endian-ish
   into bytes so they can cross virtqueues and links as real octets. *)

type mac = int

let broadcast = 0xffff_ffff_ffff

(* Locally-administered address space for simulated NICs. *)
let make_mac ~vendor ~serial =
  0x0200_0000_0000 lor ((vendor land 0xffff) lsl 24) lor (serial land 0xff_ffff)

let mac_to_string m =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" ((m lsr 40) land 0xff)
    ((m lsr 32) land 0xff)
    ((m lsr 24) land 0xff)
    ((m lsr 16) land 0xff)
    ((m lsr 8) land 0xff)
    (m land 0xff)

(* Ethertypes we use. *)
let eth_ipv4 = 0x0800
let eth_experimental = 0x88b5

type t = { src : mac; dst : mac; ethertype : int; payload : bytes }

let header_size = 14
let max_payload = 1986 (* header + payload fit the 2000-byte NIC buffer *)
let wire_size f = header_size + Bytes.length f.payload

let set_mac b off m =
  for i = 0 to 5 do
    Bytes.set_uint8 b (off + i) ((m lsr (8 * (5 - i))) land 0xff)
  done

let get_mac b off =
  let m = ref 0 in
  for i = 0 to 5 do
    m := (!m lsl 8) lor Bytes.get_uint8 b (off + i)
  done;
  !m

let encode f =
  let b = Bytes.create (wire_size f) in
  set_mac b 0 f.dst;
  set_mac b 6 f.src;
  Bytes.set_uint16_be b 12 f.ethertype;
  Bytes.blit f.payload 0 b header_size (Bytes.length f.payload);
  b

let decode b =
  if Bytes.length b < header_size then None
  else
    Some
      {
        dst = get_mac b 0;
        src = get_mac b 6;
        ethertype = Bytes.get_uint16_be b 12;
        payload = Bytes.sub b header_size (Bytes.length b - header_size);
      }
