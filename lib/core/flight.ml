(* Per-domain ring buffers of binary-encoded trace events; see
   flight.mli for the contract and DESIGN.md §15 for the byte format.

   Layout of a dump:

     magic "RFLIGHT2"                                      8 bytes
     recorded (u64)  lifetime entries at dump time
     dropped  (u64)  overwritten-before-dump entries
     count    (u32)  records that follow
     records, each:  len (u32) | fnv1a32(body) (u32) | body

   Record body:

     seq (u64) | trace (u64) | tag (u8) | tag-specific fields

   Tags 1..7 mirror Trace.event constructor order; tag 8 is a Note.
   Strings are u16-length-prefixed; all integers big-endian.  Tag 7
   ends in its budget: u8 0 for none, or u8 1 | shape tag (string) |
   k u32 | c_max (IEEE double bits, u64) | n_min u32.  (RFLIGHT1 dumps
   had no budget.) *)

let magic = "RFLIGHT2"
let max_record = 1 lsl 20
let max_domains = 64
let default_capacity = 4096

type ev = E_event of Trace.event | E_note of string * string
type entry = { e_seq : int; e_trace : int64; e_ev : ev }

(* One ring per domain slot: single writer (its domain), so [written]
   needs no atomicity — dumps read a snapshot of it.  Entries are
   immutable records, so a concurrent reader sees either the old or the
   new pointer, never a torn entry. *)
type slot = { arr : entry option array; mutable written : int }

type t = {
  cap : int;
  slots : slot option array;
  seq : int Atomic.t;
}

let create ?(capacity = default_capacity) () =
  let cap = max 16 capacity in
  { cap; slots = Array.make max_domains None; seq = Atomic.make 0 }

let slot_of t =
  let i = (Domain.self () :> int) land (max_domains - 1) in
  match t.slots.(i) with
  | Some s -> s
  | None ->
    let s = { arr = Array.make t.cap None; written = 0 } in
    t.slots.(i) <- Some s;
    s

let push t ~trace ev =
  let seq = Atomic.fetch_and_add t.seq 1 in
  let s = slot_of t in
  s.arr.(s.written mod t.cap) <- Some { e_seq = seq; e_trace = trace; e_ev = ev };
  s.written <- s.written + 1

let record t ~trace event = push t ~trace (E_event event)
let note t ~trace ~code ~detail = push t ~trace (E_note (code, detail))
let recorded t = Atomic.get t.seq

let fold_slots t f acc =
  Array.fold_left
    (fun acc -> function None -> acc | Some s -> f acc s)
    acc t.slots

let dropped t = fold_slots t (fun acc s -> acc + max 0 (s.written - t.cap)) 0
let occupancy t = fold_slots t (fun acc s -> acc + min s.written t.cap) 0
let capacity t = t.cap

let reset t =
  Atomic.set t.seq 0;
  Array.iteri (fun i _ -> t.slots.(i) <- None) t.slots

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

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let put_u16 b v =
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u32 b v =
  put_u16 b (v lsr 16);
  put_u16 b v

let put_u64i b v =
  put_u32 b (v lsr 32);
  put_u32 b v

let put_u64 b v =
  put_u32 b (Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFFFFFF);
  put_u32 b (Int64.to_int v land 0xFFFFFFFF)

let put_str b s =
  let s = if String.length s > 0xFFFF then String.sub s 0 0xFFFF else s in
  put_u16 b (String.length s);
  Buffer.add_string b s

let encode_body e =
  let b = Buffer.create 64 in
  put_u64i b e.e_seq;
  put_u64 b e.e_trace;
  (match e.e_ev with
  | E_event (Trace.Span_begin { label; n }) ->
    put_u8 b 1;
    put_str b label;
    put_u32 b n
  | E_event (Trace.Span_end { label; n }) ->
    put_u8 b 2;
    put_str b label;
    put_u32 b n
  | E_event (Trace.Node_local { id; bits; queries = q }) ->
    put_u8 b 3;
    put_u32 b id;
    put_u32 b bits;
    put_u32 b q.View.id_reads;
    put_u32 b q.View.n_reads;
    put_u32 b q.View.deg_reads;
    put_u32 b q.View.neighbor_reads
  | E_event (Trace.Referee_absorb { id; bits }) ->
    put_u8 b 4;
    put_u32 b id;
    put_u32 b bits
  | E_event (Trace.Fault_injected { id; fault }) ->
    put_u8 b 5;
    put_u32 b id;
    put_str b (Faults.fault_to_string fault)
  | E_event (Trace.Referee_broadcast { round; bits }) ->
    put_u8 b 6;
    put_u32 b round;
    put_u32 b bits
  | E_event (Trace.Referee_done { label; n; max_bits; total_bits; budget }) -> (
    put_u8 b 7;
    put_str b label;
    put_u32 b n;
    put_u32 b max_bits;
    put_u32 b total_bits;
    match budget with
    | None -> put_u8 b 0
    | Some { Bound_audit.b_shape; c_max; n_min } ->
      let tag, k = Bound_audit.shape_tag b_shape in
      put_u8 b 1;
      put_str b tag;
      put_u32 b k;
      put_u64 b (Int64.bits_of_float c_max);
      put_u32 b n_min)
  | E_note (code, detail) ->
    put_u8 b 8;
    put_str b code;
    put_str b detail);
  Buffer.contents b

let dump t =
  let entries =
    fold_slots t
      (fun acc s ->
        let w = s.written in
        let lo = max 0 (w - t.cap) in
        let acc = ref acc in
        for k = lo to w - 1 do
          match s.arr.(k mod t.cap) with
          | Some e -> acc := e :: !acc
          | None -> ()
        done;
        !acc)
      []
  in
  let entries =
    List.sort (fun a b -> compare a.e_seq b.e_seq) entries
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  put_u64i b (recorded t);
  put_u64i b (dropped t);
  put_u32 b (List.length entries);
  List.iter
    (fun e ->
      let body = encode_body e in
      put_u32 b (String.length body);
      put_u32 b (Refnet_bits.Fnv.string body);
      Buffer.add_string b body)
    entries;
  Buffer.contents b

let dump_to_file t path =
  match open_out_bin path with
  | oc ->
    output_string oc (dump t);
    close_out oc;
    Ok ()
  | exception Sys_error e -> Error e

(* ---------- decoding ---------- *)

type item = {
  i_seq : int;
  i_trace : int64;
  i_kind : string;
  i_line : string option;
  i_note : (string * string) option;
}

type finding = { f_offset : int; f_reason : string }

type decoded = {
  d_recorded : int;
  d_dropped : int;
  d_items : item list;
  d_findings : finding list;
}

exception Bad of string

let need s pos n =
  if !pos + n > String.length s then
    raise (Bad (Printf.sprintf "truncated: need %d bytes at offset %d" n !pos))

let gu8 s pos =
  need s pos 1;
  let v = Char.code s.[!pos] in
  pos := !pos + 1;
  v

let gu16 s pos =
  let hi = gu8 s pos in
  (hi lsl 8) lor gu8 s pos

let gu32 s pos =
  let hi = gu16 s pos in
  (hi lsl 16) lor gu16 s pos

let gu64i s pos =
  let hi = gu32 s pos in
  (hi lsl 32) lor gu32 s pos

let gu64 s pos =
  let hi = gu32 s pos in
  let lo = gu32 s pos in
  Int64.logor
    (Int64.shift_left (Int64.of_int hi) 32)
    (Int64.of_int lo)

let gstr s pos =
  let len = gu16 s pos in
  need s pos len;
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

(* A record body, already digest-checked.  Raises [Bad] on malformed
   contents; the caller turns that into a finding. *)
let decode_body body =
  let pos = ref 0 in
  let seq = gu64i body pos in
  let trace = gu64 body pos in
  let tag = gu8 body pos in
  let session = trace in
  let event_item kind ev =
    {
      i_seq = seq;
      i_trace = trace;
      i_kind = kind;
      i_line = Some (Trace.json_of_event ~session ev);
      i_note = None;
    }
  in
  let item =
    match tag with
    | 1 ->
      let label = gstr body pos in
      let n = gu32 body pos in
      event_item "span_begin" (Trace.Span_begin { label; n })
    | 2 ->
      let label = gstr body pos in
      let n = gu32 body pos in
      event_item "span_end" (Trace.Span_end { label; n })
    | 3 ->
      let id = gu32 body pos in
      let bits = gu32 body pos in
      let id_reads = gu32 body pos in
      let n_reads = gu32 body pos in
      let deg_reads = gu32 body pos in
      let neighbor_reads = gu32 body pos in
      let queries = { View.id_reads; n_reads; deg_reads; neighbor_reads } in
      event_item "local" (Trace.Node_local { id; bits; queries })
    | 4 ->
      let id = gu32 body pos in
      let bits = gu32 body pos in
      event_item "absorb" (Trace.Referee_absorb { id; bits })
    | 5 ->
      (* no parser back to Faults.fault exists; render the line with
         the fault's string form, matching Trace.json_of_event *)
      let id = gu32 body pos in
      let fault = gstr body pos in
      {
        i_seq = seq;
        i_trace = trace;
        i_kind = "fault";
        i_line =
          Some
            (Printf.sprintf {|{"session_id":"%s","event":"fault","id":%d,"fault":%s}|}
               (hex_of_trace trace) id (Refnet_json.Json.string fault));
        i_note = None;
      }
    | 6 ->
      let round = gu32 body pos in
      let bits = gu32 body pos in
      event_item "broadcast" (Trace.Referee_broadcast { round; bits })
    | 7 ->
      let label = gstr body pos in
      let n = gu32 body pos in
      let max_bits = gu32 body pos in
      let total_bits = gu32 body pos in
      let budget =
        match gu8 body pos with
        | 0 -> None
        | 1 -> (
          let tag = gstr body pos in
          let k = gu32 body pos in
          let c_max = Int64.float_of_bits (gu64 body pos) in
          let n_min = gu32 body pos in
          match Bound_audit.shape_of_tag tag k with
          | Some b_shape -> Some { Bound_audit.b_shape; c_max; n_min }
          | None -> raise (Bad (Printf.sprintf "unknown budget shape %S" tag)))
        | f -> raise (Bad (Printf.sprintf "bad budget flag %d" f))
      in
      event_item "done" (Trace.Referee_done { label; n; max_bits; total_bits; budget })
    | 8 ->
      let code = gstr body pos in
      let detail = gstr body pos in
      {
        i_seq = seq;
        i_trace = trace;
        i_kind = "note";
        i_line = None;
        i_note = Some (code, detail);
      }
    | t -> raise (Bad (Printf.sprintf "unknown record tag %d" t))
  in
  if !pos <> String.length body then
    raise (Bad (Printf.sprintf "trailing bytes in record body at %d" !pos));
  item

let decode s =
  let findings = ref [] in
  let flag off reason = findings := { f_offset = off; f_reason = reason } :: !findings in
  let header_len = String.length magic + 8 + 8 + 4 in
  if String.length s < header_len then begin
    flag 0 (Printf.sprintf "truncated header: %d bytes, need %d" (String.length s) header_len);
    { d_recorded = 0; d_dropped = 0; d_items = []; d_findings = List.rev !findings }
  end
  else if String.sub s 0 (String.length magic) <> magic then begin
    flag 0 "bad magic: not a .flight file";
    { d_recorded = 0; d_dropped = 0; d_items = []; d_findings = List.rev !findings }
  end
  else begin
    let pos = ref (String.length magic) in
    let d_recorded = gu64i s pos in
    let d_dropped = gu64i s pos in
    let count = gu32 s pos in
    let items = ref [] in
    let parsed = ref 0 in
    let stop = ref false in
    while (not !stop) && !pos < String.length s do
      let frame_off = !pos in
      if String.length s - !pos < 8 then begin
        flag frame_off
          (Printf.sprintf "truncated record header: %d trailing bytes" (String.length s - !pos));
        stop := true
      end
      else begin
        let len = gu32 s pos in
        let digest = gu32 s pos in
        if len > max_record then begin
          flag frame_off (Printf.sprintf "declared record length %d exceeds limit %d" len max_record);
          stop := true
        end
        else if !pos + len > String.length s then begin
          flag frame_off
            (Printf.sprintf "truncated record body: declared %d, %d available" len
               (String.length s - !pos));
          stop := true
        end
        else begin
          let body = String.sub s !pos len in
          pos := !pos + len;
          if Refnet_bits.Fnv.string body <> digest then flag frame_off "record digest mismatch"
          else
            match decode_body body with
            | item ->
              items := item :: !items;
              incr parsed
            | exception Bad reason -> flag frame_off reason
        end
      end
    done;
    if !parsed <> count then
      flag (String.length s)
        (Printf.sprintf "header declares %d records, decoded %d intact" count !parsed);
    { d_recorded; d_dropped; d_items = List.rev !items; d_findings = List.rev !findings }
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

let open_traces items =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun it ->
      if not (Int64.equal it.i_trace 0L) then begin
        let p =
          match Hashtbl.find_opt tbl it.i_trace with
          | Some p -> p
          | None ->
            let p =
              { p_events = 0; p_absorbed = 0; p_last = ""; p_last_seq = 0; p_terminal = false }
            in
            Hashtbl.add tbl it.i_trace p;
            p
        in
        p.p_events <- p.p_events + 1;
        if it.i_kind = "absorb" then p.p_absorbed <- p.p_absorbed + 1;
        if it.i_seq >= p.p_last_seq then begin
          p.p_last_seq <- it.i_seq;
          p.p_last <-
            (match it.i_note with
            | Some (code, _) -> code
            | None -> it.i_kind)
        end;
        (match it.i_note with
        | Some (code, _) when terminal_note code -> p.p_terminal <- true
        | _ -> ());
        if it.i_kind = "done" then p.p_terminal <- true
      end)
    items;
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
