module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create n = { buf = Bytes.create (max 16 n); len = 0 }
  let length w = w.len

  let truncate w n =
    if n < 0 || n > w.len then invalid_arg "Byte_io.Writer.truncate";
    w.len <- n

  let take w =
    let s =
      if w.len = Bytes.length w.buf then begin
        (* a full buffer is handed over whole; the next write grows a new one *)
        let s = Bytes.unsafe_to_string w.buf in
        w.buf <- Bytes.empty;
        s
      end
      else Bytes.sub_string w.buf 0 w.len
    in
    w.len <- 0;
    s

  (* [reserve w n] claims the next [n] bytes and returns their offset. *)
  let reserve w n =
    let need = w.len + n in
    if need > Bytes.length w.buf then begin
      let nb = Bytes.create (max need (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf 0 nb 0 w.len;
      w.buf <- nb
    end;
    let off = w.len in
    w.len <- need;
    off

  let u8 w v = Bytes.set_uint8 w.buf (reserve w 1) (v land 0xFF)
  let u16 w v = Bytes.set_uint16_be w.buf (reserve w 2) (v land 0xFFFF)
  let u32 w v = Bytes.set_int32_be w.buf (reserve w 4) (Int32.of_int v)
  let u64 w v = Bytes.set_int64_be w.buf (reserve w 8) v

  let raw w s =
    let n = String.length s in
    Bytes.blit_string s 0 w.buf (reserve w n) n

  let str w s =
    if String.length s > 0xFFFF then
      invalid_arg "Byte_io.Writer.str: string longer than 65535 bytes";
    u16 w (String.length s);
    raw w s

  let bits w v =
    u32 w (Bitvec.length v);
    Bitvec.blit_packed v w.buf (reserve w ((Bitvec.length v + 7) / 8))

  let record w body =
    let head = reserve w 8 in
    body w;
    let len = w.len - head - 8 in
    Bytes.set_int32_be w.buf head (Int32.of_int len);
    Bytes.set_int32_be w.buf (head + 4)
      (Int32.of_int (Fnv.bytes w.buf ~off:(head + 8) ~len))
end

exception Malformed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

module Reader = struct
  type t = { src : Bytes.t; start : int; mutable next : int; stop : int }

  let of_bytes b ~off ~len =
    if off < 0 || len < 0 || off > Bytes.length b - len then
      invalid_arg "Byte_io.Reader.of_bytes: bad slice";
    { src = b; start = off; next = off; stop = off + len }

  (* Readers never write to [src], so sharing the string's bytes is safe. *)
  let of_string s = of_bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
  let pos r = r.next - r.start
  let remaining r = r.stop - r.next

  (* [take r n] moves past the next [n] bytes and returns their offset. *)
  let take r n =
    if n > remaining r then
      failf "payload truncated: need %d bytes at offset %d" n (pos r);
    let off = r.next in
    r.next <- off + n;
    off

  let u8 r = Bytes.get_uint8 r.src (take r 1)
  let u16 r = Bytes.get_uint16_be r.src (take r 2)
  let u32 r = Int32.to_int (Bytes.get_int32_be r.src (take r 4)) land 0xFFFFFFFF

  let u64 r =
    let hi = u32 r in
    let lo = u32 r in
    Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

  let raw r n = Bytes.sub_string r.src (take r n) n
  let skip r n = ignore (take r n : int)
  let str r = raw r (u16 r)

  let bits r =
    let len = u32 r in
    let off = take r ((len + 7) / 8) in
    Bitvec.of_packed ~off ~len (Bytes.unsafe_to_string r.src)

  let sub r n =
    let off = take r n in
    { src = r.src; start = off; next = off; stop = off + n }

  let fnv r = Fnv.bytes r.src ~off:r.next ~len:(remaining r)
end
