type t = {
  buf : Buffer.t;
  capacity : int;
  mutable closed : bool;
}

let create ?(capacity = 65536) () = { buf = Buffer.create 256; capacity; closed = false }

let write t b =
  if t.closed then Error Errno.EBADF
  else
    let room = t.capacity - Buffer.length t.buf in
    if room <= 0 then Error Errno.EAGAIN
    else begin
      let n = min room (Bytes.length b) in
      Buffer.add_subbytes t.buf b 0 n;
      Ok n
    end

let read t len =
  if t.closed && Buffer.length t.buf = 0 then Ok Bytes.empty
  else if Buffer.length t.buf = 0 then Error Errno.EAGAIN
  else begin
    let n = min len (Buffer.length t.buf) in
    let out = Buffer.sub t.buf 0 n in
    let rest = Buffer.sub t.buf n (Buffer.length t.buf - n) in
    Buffer.clear t.buf;
    Buffer.add_string t.buf rest;
    Ok (Bytes.of_string out)
  end

let close t = t.closed <- true
