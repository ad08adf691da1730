(* Byte-level wire framing for the serve daemon.  See wire.mli for the
   frame layout.  Everything here is byte-aligned scaffolding around the
   bit-exact Message payloads; the bit layer itself stays in
   lib/bits. *)

let magic = 0xF5
let header_bytes = 10
let default_max_frame = 1 lsl 20

module W = Refnet_bits.Byte_io.Writer
module R = Refnet_bits.Byte_io.Reader

(* A frame is magic and kind, then the payload as one Byte_io record:
   exactly the [len | fnv32 | payload] tail of the header. *)
let frame w ~kind payload =
  if kind < 0 || kind > 0xFF then
    invalid_arg "Wire.frame: kind must fit in one byte";
  let mark = W.length w in
  match
    W.u8 w magic;
    W.u8 w kind;
    W.record w payload
  with
  | () -> ()
  | exception e ->
      W.truncate w mark;
      raise e

let encode ~kind payload =
  let w = W.create (header_bytes + String.length payload) in
  frame w ~kind (fun w -> W.raw w payload);
  W.take w

type view = { buf : Bytes.t; off : int; len : int }

type 'p next =
  | Frame of { kind : int; payload : 'p }
  | Awaiting
  | Corrupt of string

type step = string next

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
    let nb = Bytes.create (max (d.fill + extra) (Bytes.length d.buf * 2)) in
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

let poison d msg =
  d.poisoned <- Some msg;
  (* drop the buffer: a corrupt stream cannot be resynchronized *)
  d.start <- 0;
  d.fill <- 0;
  Corrupt msg

let next_view d =
  match d.poisoned with
  | Some msg -> Corrupt msg
  | None ->
      if buffered d < header_bytes then Awaiting
      else begin
        let r = R.of_bytes d.buf ~off:d.start ~len:(buffered d) in
        let m = R.u8 r in
        if m <> magic then poison d (Printf.sprintf "bad magic byte 0x%02X" m)
        else begin
          let kind = R.u8 r in
          let len = R.u32 r in
          let digest = R.u32 r in
          if len > d.max_frame then
            poison d
              (Printf.sprintf "declared payload %d exceeds limit %d" len
                 d.max_frame)
          else if R.remaining r < len then Awaiting
          else begin
            let off = d.start + header_bytes in
            if Refnet_bits.Fnv.bytes d.buf ~off ~len <> digest then
              poison d "payload digest mismatch"
            else begin
              d.start <- off + len;
              Frame { kind; payload = { buf = d.buf; off; len } }
            end
          end
        end
      end

let next d =
  match next_view d with
  | Frame { kind; payload = v } ->
      Frame { kind; payload = Bytes.sub_string v.buf v.off v.len }
  | (Awaiting | Corrupt _) as step -> step
