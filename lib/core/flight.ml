(* One ring buffer of binary-encoded trace events; see flight.mli for
   the contract and DESIGN.md §15 for the byte format.

   Layout of a dump:

     magic "RFLIGHT2"                                      8 bytes
     recorded (u64)  lifetime entries at dump time
     dropped  (u64)  overwritten-before-dump entries
     count    (u32)  records that follow
     records, each a Byte_io record:  len (u32) | fnv1a32(body) (u32) | body

   Record body:

     seq (u64) | trace (u64) | tag (u8) | tag-specific fields

   Tags 1..7 mirror Trace.event constructor order; tag 8 is a Note.
   Strings are u16-length-prefixed, cut to 65535 bytes; all integers
   big-endian.  Tag 7 ends in its budget: u8 0 for none, or u8 1 |
   shape tag (string) | k u32 | c_max (IEEE double bits, u64) | n_min
   u32.  (RFLIGHT1 dumps had no budget.) *)

let magic = "RFLIGHT2"
let max_record = 1 lsl 20
let default_capacity = 4096

type entry =
  | Event of { seq : int; trace : int64; ev : Trace.event }
  | Note of { seq : int; trace : int64; code : string; detail : string }

(* One writer (the serve engine's thread; the deep lint's race pass
   reports a recorder mutated inside a Parallel closure), so the
   sequence number is the write count and ring order is sequence
   order.  Slots past [written] hold [vacant], never read. *)
type t = { ring : entry array; mutable written : int }

let vacant = Note { seq = -1; trace = 0L; code = ""; detail = "" }

let create ?(capacity = default_capacity) () =
  { ring = Array.make (max 16 capacity) vacant; written = 0 }

let capacity t = Array.length t.ring

let push t e =
  t.ring.(t.written mod Array.length t.ring) <- e;
  t.written <- t.written + 1

let record t ~trace ev = push t (Event { seq = t.written; trace; ev })
let note t ~trace ~code ~detail = push t (Note { seq = t.written; trace; code; detail })
let recorded t = t.written
let dropped t = max 0 (t.written - capacity t)
let occupancy t = min t.written (capacity t)

let reset t =
  Array.fill t.ring 0 (capacity t) vacant;
  t.written <- 0

let hex_of_trace id = Printf.sprintf "%016Lx" id

let trace_of_hex s =
  if String.length s <> 16 then None
  else
    let ok =
      String.for_all
        (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
        s
    in
    if not ok then None else Int64.of_string_opt ("0x" ^ s)

(* ---------- binary encoding ---------- *)

module W = Refnet_bits.Byte_io.Writer
module R = Refnet_bits.Byte_io.Reader

(* Flight strings are cut to what a u16 length can say, not refused:
   evidence is kept even when a detail runs long. *)
let put_str w s = W.str w (if String.length s > 0xFFFF then String.sub s 0 0xFFFF else s)
let put_int w v = W.u64 w (Int64.of_int v)

let encode_body w e =
  let event seq trace tag =
    put_int w seq;
    W.u64 w trace;
    W.u8 w tag
  in
  match e with
  | Event { seq; trace; ev = Trace.Span_begin { label; n } } ->
    event seq trace 1;
    put_str w label;
    W.u32 w n
  | Event { seq; trace; ev = Trace.Span_end { label; n } } ->
    event seq trace 2;
    put_str w label;
    W.u32 w n
  | Event { seq; trace; ev = Trace.Node_local { id; bits; queries = q } } ->
    event seq trace 3;
    W.u32 w id;
    W.u32 w bits;
    W.u32 w q.View.id_reads;
    W.u32 w q.View.n_reads;
    W.u32 w q.View.deg_reads;
    W.u32 w q.View.neighbor_reads
  | Event { seq; trace; ev = Trace.Referee_absorb { id; bits } } ->
    event seq trace 4;
    W.u32 w id;
    W.u32 w bits
  | Event { seq; trace; ev = Trace.Fault_injected { id; fault } } ->
    event seq trace 5;
    W.u32 w id;
    put_str w (Faults.fault_to_string fault)
  | Event { seq; trace; ev = Trace.Referee_broadcast { round; bits } } ->
    event seq trace 6;
    W.u32 w round;
    W.u32 w bits
  | Event { seq; trace; ev = Trace.Referee_done { label; n; max_bits; total_bits; budget } }
    -> (
    event seq trace 7;
    put_str w label;
    W.u32 w n;
    W.u32 w max_bits;
    W.u32 w total_bits;
    match budget with
    | None -> W.u8 w 0
    | Some { Bound_audit.b_shape; c_max; n_min } ->
      let tag, k = Bound_audit.shape_tag b_shape in
      W.u8 w 1;
      put_str w tag;
      W.u32 w k;
      W.u64 w (Int64.bits_of_float c_max);
      W.u32 w n_min)
  | Note { seq; trace; code; detail } ->
    event seq trace 8;
    put_str w code;
    put_str w detail

(* The ring walked oldest to newest is sequence order. *)
let dump t =
  let live = occupancy t in
  let w = W.create 4096 in
  W.raw w magic;
  put_int w (recorded t);
  put_int w (dropped t);
  W.u32 w live;
  for k = t.written - live to t.written - 1 do
    W.record w (fun w -> encode_body w t.ring.(k mod capacity t))
  done;
  W.take w

let dump_to_file t path =
  match open_out_bin path with
  | oc ->
    output_string oc (dump t);
    close_out oc;
    Ok ()
  | exception Sys_error e -> Error e

(* ---------- decoding ---------- *)

type finding = { f_offset : int; f_reason : string }

type decoded = {
  d_recorded : int;
  d_dropped : int;
  d_entries : entry list;
  d_findings : finding list;
}

let fail = Refnet_bits.Byte_io.failf
let get_int r = Int64.to_int (R.u64 r)

(* A record body, already digest-checked.  Raises [Malformed] on
   malformed contents; the caller turns that into a finding. *)
let decode_body r =
  let seq = get_int r in
  let trace = R.u64 r in
  let event ev = Event { seq; trace; ev } in
  let entry =
    match R.u8 r with
    | 1 ->
      let label = R.str r in
      let n = R.u32 r in
      event (Trace.Span_begin { label; n })
    | 2 ->
      let label = R.str r in
      let n = R.u32 r in
      event (Trace.Span_end { label; n })
    | 3 ->
      let id = R.u32 r in
      let bits = R.u32 r in
      let id_reads = R.u32 r in
      let n_reads = R.u32 r in
      let deg_reads = R.u32 r in
      let neighbor_reads = R.u32 r in
      let queries = { View.id_reads; n_reads; deg_reads; neighbor_reads } in
      event (Trace.Node_local { id; bits; queries })
    | 4 ->
      let id = R.u32 r in
      let bits = R.u32 r in
      event (Trace.Referee_absorb { id; bits })
    | 5 -> (
      let id = R.u32 r in
      let s = R.str r in
      match Faults.fault_of_string s with
      | Some fault -> event (Trace.Fault_injected { id; fault })
      | None -> fail "unknown fault %S" s)
    | 6 ->
      let round = R.u32 r in
      let bits = R.u32 r in
      event (Trace.Referee_broadcast { round; bits })
    | 7 ->
      let label = R.str r in
      let n = R.u32 r in
      let max_bits = R.u32 r in
      let total_bits = R.u32 r in
      let budget =
        match R.u8 r with
        | 0 -> None
        | 1 -> (
          let tag = R.str r in
          let k = R.u32 r in
          let c_max = Int64.float_of_bits (R.u64 r) in
          let n_min = R.u32 r in
          match Bound_audit.shape_of_tag tag k with
          | Some b_shape -> Some { Bound_audit.b_shape; c_max; n_min }
          | None -> fail "unknown budget shape %S" tag)
        | f -> fail "bad budget flag %d" f
      in
      event (Trace.Referee_done { label; n; max_bits; total_bits; budget })
    | 8 ->
      let code = R.str r in
      let detail = R.str r in
      Note { seq; trace; code; detail }
    | t -> fail "unknown record tag %d" t
  in
  if R.remaining r > 0 then fail "trailing bytes in record body at %d" (R.pos r);
  entry

let decode s =
  let findings = ref [] in
  let flag off reason = findings := { f_offset = off; f_reason = reason } :: !findings in
  let header_len = String.length magic + 8 + 8 + 4 in
  let r = R.of_string s in
  if String.length s < header_len then begin
    flag 0 (Printf.sprintf "truncated header: %d bytes, need %d" (String.length s) header_len);
    { d_recorded = 0; d_dropped = 0; d_entries = []; d_findings = List.rev !findings }
  end
  else if R.raw r (String.length magic) <> magic then begin
    flag 0 "bad magic: not a .flight file";
    { d_recorded = 0; d_dropped = 0; d_entries = []; d_findings = List.rev !findings }
  end
  else begin
    let d_recorded = get_int r in
    let d_dropped = get_int r in
    let count = R.u32 r in
    let entries = ref [] in
    let parsed = ref 0 in
    let stop = ref false in
    while (not !stop) && R.remaining r > 0 do
      let frame_off = R.pos r in
      if R.remaining r < 8 then begin
        flag frame_off
          (Printf.sprintf "truncated record header: %d trailing bytes" (R.remaining r));
        stop := true
      end
      else begin
        let len = R.u32 r in
        let digest = R.u32 r in
        if len > max_record then begin
          flag frame_off (Printf.sprintf "declared record length %d exceeds limit %d" len max_record);
          stop := true
        end
        else if R.remaining r < len then begin
          flag frame_off
            (Printf.sprintf "truncated record body: declared %d, %d available" len
               (R.remaining r));
          stop := true
        end
        else begin
          let body = R.sub r len in
          if R.fnv body <> digest then flag frame_off "record digest mismatch"
          else
            match decode_body body with
            | e ->
              entries := e :: !entries;
              incr parsed
            | exception Refnet_bits.Byte_io.Malformed reason -> flag frame_off reason
        end
      end
    done;
    if !parsed <> count then
      flag (String.length s)
        (Printf.sprintf "header declares %d records, decoded %d intact" count !parsed);
    { d_recorded; d_dropped; d_entries = List.rev !entries; d_findings = List.rev !findings }
  end

let decode_file path =
  match open_in_bin path with
  | ic -> (
    match really_input_string ic (in_channel_length ic) with
    | s ->
      close_in ic;
      Ok (decode s)
    | exception End_of_file ->
      close_in ic;
      Error (path ^ ": file shrank while reading")
    | exception Sys_error e ->
      close_in ic;
      Error e)
  | exception Sys_error e -> Error e

(* ---------- mid-flight session detection ---------- *)

(* Terminal markers: a session that reached any disposition — a
   Referee_done event or a verdict / quarantine / reject / evidence
   note — is not mid-flight. *)
let terminal_note = function
  | "verdict" | "quarantine" | "reject" | "evidence" -> true
  | _ -> false

type probe = {
  mutable p_events : int;
  mutable p_absorbed : int;
  mutable p_last : string;
  mutable p_last_seq : int;
  mutable p_terminal : bool;
}

let open_traces entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let seq, trace, last, absorbed, terminal =
        match e with
        | Event { seq; trace; ev } ->
          ( seq,
            trace,
            Trace.event_name ev,
            (match ev with Trace.Referee_absorb _ -> 1 | _ -> 0),
            match ev with Trace.Referee_done _ -> true | _ -> false )
        | Note { seq; trace; code; _ } -> (seq, trace, code, 0, terminal_note code)
      in
      if not (Int64.equal trace 0L) then begin
        let p =
          match Hashtbl.find_opt tbl trace with
          | Some p -> p
          | None ->
            let p =
              { p_events = 0; p_absorbed = 0; p_last = ""; p_last_seq = 0; p_terminal = false }
            in
            Hashtbl.add tbl trace p;
            p
        in
        p.p_events <- p.p_events + 1;
        p.p_absorbed <- p.p_absorbed + absorbed;
        if seq >= p.p_last_seq then begin
          p.p_last_seq <- seq;
          p.p_last <- last
        end;
        if terminal then p.p_terminal <- true
      end)
    entries;
  Hashtbl.fold
    (fun trace p acc ->
      if p.p_terminal then acc
      else
        ( trace,
          Printf.sprintf "mid-flight: events=%d absorbed=%d last=%s seq=%d" p.p_events
            p.p_absorbed p.p_last p.p_last_seq )
        :: acc)
    tbl []
  |> List.sort compare
