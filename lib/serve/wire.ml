(* Byte-level wire framing for the serve daemon.  See wire.mli for the
   frame layout.  Everything here is byte-aligned scaffolding around the
   bit-exact Message payloads; the bit layer itself stays in
   lib/bits. *)

let magic = 0xF5
let header_bytes = 10
let default_max_frame = 1 lsl 20

let put_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let encode ~kind payload =
  if kind < 0 || kind > 0xFF then
    invalid_arg "Wire.encode: kind must fit in one byte";
  let b = Buffer.create (header_bytes + String.length payload) in
  Buffer.add_char b (Char.chr magic);
  Buffer.add_char b (Char.chr kind);
  put_u32 b (String.length payload);
  put_u32 b (Refnet_bits.Fnv.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

type step =
  | Frame of { kind : int; payload : string }
  | Awaiting
  | Corrupt of string

type decoder = {
  mutable buf : Bytes.t;
  mutable start : int; (* first undecoded byte *)
  mutable fill : int; (* one past the last received byte *)
  max_frame : int;
  mutable poisoned : string option;
}

let decoder ?(max_frame = default_max_frame) () =
  { buf = Bytes.create 4096; start = 0; fill = 0; max_frame; poisoned = None }

let buffered d = d.fill - d.start

let ensure_room d extra =
  let need = buffered d + extra in
  if d.start > 0 && (d.start = d.fill || need > Bytes.length d.buf) then begin
    (* compact before growing: steady-state streams never reallocate *)
    Bytes.blit d.buf d.start d.buf 0 (buffered d);
    d.fill <- buffered d;
    d.start <- 0
  end;
  if d.fill + extra > Bytes.length d.buf then begin
    let cap = ref (Bytes.length d.buf * 2) in
    while d.fill + extra > !cap do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit d.buf 0 nb 0 d.fill;
    d.buf <- nb
  end

let push d b ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length b then
    invalid_arg "Wire.push: bad slice";
  if d.poisoned = None then begin
    ensure_room d len;
    Bytes.blit b off d.buf d.fill len;
    d.fill <- d.fill + len
  end

let get_u32 buf off =
  (Char.code (Bytes.get buf off) lsl 24)
  lor (Char.code (Bytes.get buf (off + 1)) lsl 16)
  lor (Char.code (Bytes.get buf (off + 2)) lsl 8)
  lor Char.code (Bytes.get buf (off + 3))

let poison d msg =
  d.poisoned <- Some msg;
  (* drop the buffer: a corrupt stream cannot be resynchronized *)
  d.start <- 0;
  d.fill <- 0;
  Corrupt msg

let next d =
  match d.poisoned with
  | Some msg -> Corrupt msg
  | None ->
      if buffered d < header_bytes then Awaiting
      else begin
        let m = Char.code (Bytes.get d.buf d.start) in
        if m <> magic then
          poison d (Printf.sprintf "bad magic byte 0x%02X" m)
        else begin
          let kind = Char.code (Bytes.get d.buf (d.start + 1)) in
          let len = get_u32 d.buf (d.start + 2) in
          let digest = get_u32 d.buf (d.start + 6) in
          if len > d.max_frame then
            poison d
              (Printf.sprintf "declared payload %d exceeds limit %d" len
                 d.max_frame)
          else if buffered d < header_bytes + len then Awaiting
          else begin
            let off = d.start + header_bytes in
            if Refnet_bits.Fnv.bytes d.buf ~off ~len <> digest then
              poison d "payload digest mismatch"
            else begin
              d.start <- off + len;
              Frame { kind; payload = Bytes.sub_string d.buf off len }
            end
          end
        end
      end

module Put = struct
  type t = Buffer.t

  let create () = Buffer.create 64
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

  let u16 b v =
    Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char b (Char.chr (v land 0xFF))

  let u32 = put_u32

  let u64 b v =
    put_u32 b (Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFFFFFF);
    put_u32 b (Int64.to_int v land 0xFFFFFFFF)

  let str b s =
    if String.length s > 0xFFFF then
      invalid_arg "Wire.Put.str: string longer than 65535 bytes";
    u16 b (String.length s);
    Buffer.add_string b s

  let bits b m =
    u32 b (Core.Message.bits m);
    Buffer.add_string b (Refnet_bits.Bitvec.to_packed m)

  let contents = Buffer.contents
end

module Get = struct
  type t = { s : string; mutable pos : int }

  let create s = { s; pos = 0 }

  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

  let take g n =
    if g.pos + n > String.length g.s then
      Error
        (Printf.sprintf "payload truncated: need %d bytes at offset %d" n
           g.pos)
    else begin
      let off = g.pos in
      g.pos <- g.pos + n;
      Ok off
    end

  let u8 g =
    let* off = take g 1 in
    Ok (Char.code g.s.[off])

  let u16 g =
    let* off = take g 2 in
    Ok ((Char.code g.s.[off] lsl 8) lor Char.code g.s.[off + 1])

  let u32 g =
    let* off = take g 4 in
    Ok
      ((Char.code g.s.[off] lsl 24)
      lor (Char.code g.s.[off + 1] lsl 16)
      lor (Char.code g.s.[off + 2] lsl 8)
      lor Char.code g.s.[off + 3])

  let u64 g =
    let* hi = u32 g in
    let* lo = u32 g in
    Ok
      (Int64.logor
         (Int64.shift_left (Int64.of_int hi) 32)
         (Int64.of_int lo))

  let str g =
    let* len = u16 g in
    let* off = take g len in
    Ok (String.sub g.s off len)

  let bits g =
    let* len = u32 g in
    (* the declared bit length is attacker-controlled: [take] rejects it
       against the bytes actually present, so a hostile header cannot
       force a huge allocation (frames are already size-capped) *)
    let* off = take g ((len + 7) / 8) in
    Ok (Refnet_bits.Bitvec.of_packed ~off ~len g.s)

  let finished g = g.pos = String.length g.s
end
