(* Typed frames over Wire.  Field order in each payload matches the
   constructor declaration order; see frame.mli for the kind split. *)

(* v2: Open/Welcome/Verdict/Rejected carry a 64-bit session trace id,
   Rejected carries an evidence detail string, and the Evidence reject
   reason exists (refuse-with-evidence after a crash).
   v3: Welcome carries the session credit, and Msg/Finish/Abort and the
   server's Credit/Verdict address a session by its [open_id], so a
   client can send Open, its first window and Finish in one flight.
   A daemon speaks whichever of v2 and v3 the Hello asks for. *)
let version = 3

type client =
  | Hello of { version : int }
  | Open of { open_id : int; protocol : string; n : int; trace : int64 }
  | Msg of { session : int; node : int; payload : Core.Message.t }
  | Finish of { session : int }
  | Abort of { session : int }
  | Ping of { token : int }
  | Bye

type reject_reason =
  | Overloaded
  | Draining
  | Unknown_protocol
  | Bad_n
  | Session_limit
  | Evidence

type error_code =
  | Protocol_violation
  | Corrupt_frame
  | Credit_exceeded
  | Slow_consumer
  | Internal

type status = Decided | Degraded | Inconclusive
type timeout_kind = No_timeout | Idle_timeout | Deadline_timeout

type server =
  | Welcome of { version : int; trace : int64; credit : int }
  | Opened of { open_id : int; session : int; credit : int }
  | Credit of { session : int; credit : int }
  | Verdict of {
      session : int;
      status : status;
      timeout : timeout_kind;
      payload : string;
      missing : int;
      malformed : int;
      duplicated : int;
      undetermined : int;
      trace : int64;
    }
  | Rejected of {
      open_id : int;
      reason : reject_reason;
      retry_after_ms : int;
      trace : int64;
      detail : string;
    }
  | Error of { code : error_code; detail : string }
  | Pong of { token : int }

(* ---------- kind bytes ---------- *)

let k_hello = 0x01
let k_open = 0x02
let k_msg = 0x03
let k_finish = 0x04
let k_abort = 0x05
let k_ping = 0x06
let k_bye = 0x07
let k_welcome = 0x81
let k_opened = 0x82
let k_credit = 0x83
let k_verdict = 0x84
let k_rejected = 0x85
let k_error = 0x86
let k_pong = 0x87

(* ---------- enums ---------- *)

module W = Refnet_bits.Byte_io.Writer
module R = Refnet_bits.Byte_io.Reader

(* Each wire enum is one table of constructor, code and name. *)
let reject_table =
  [
    (Overloaded, 1, "overloaded");
    (Draining, 2, "draining");
    (Unknown_protocol, 3, "unknown-protocol");
    (Bad_n, 4, "bad-n");
    (Session_limit, 5, "session-limit");
    (Evidence, 6, "evidence");
  ]

let error_table =
  [
    (Protocol_violation, 1, "protocol-violation");
    (Corrupt_frame, 2, "corrupt-frame");
    (Credit_exceeded, 3, "credit-exceeded");
    (Slow_consumer, 4, "slow-consumer");
    (Internal, 5, "internal");
  ]

let status_table =
  [ (Decided, 0, "decided"); (Degraded, 1, "degraded"); (Inconclusive, 2, "inconclusive") ]

let timeout_table =
  [ (No_timeout, 0, "none"); (Idle_timeout, 1, "idle"); (Deadline_timeout, 2, "deadline") ]

let entry table v = List.find (fun (c, _, _) -> c = v) table
let name table v = match entry table v with _, _, n -> n
let put table w v = match entry table v with _, k, _ -> W.u8 w k

let get what table r =
  let k = R.u8 r in
  match List.find_opt (fun (_, k', _) -> k' = k) table with
  | Some (c, _, _) -> c
  | None -> Refnet_bits.Byte_io.failf "unknown %s %d" what k

let reject_reason_to_string = name reject_table
let error_code_to_string = name error_table

(* ---------- encoding ---------- *)

let write_client w = function
  | Hello { version } -> Wire.frame w ~kind:k_hello (fun w -> W.u16 w version)
  | Open { open_id; protocol; n; trace } ->
      Wire.frame w ~kind:k_open (fun w ->
          W.u32 w open_id;
          W.str w protocol;
          W.u32 w n;
          W.u64 w trace)
  | Msg { session; node; payload } ->
      Wire.frame w ~kind:k_msg (fun w ->
          W.u32 w session;
          W.u32 w node;
          W.bits w payload)
  | Finish { session } -> Wire.frame w ~kind:k_finish (fun w -> W.u32 w session)
  | Abort { session } -> Wire.frame w ~kind:k_abort (fun w -> W.u32 w session)
  | Ping { token } -> Wire.frame w ~kind:k_ping (fun w -> W.u32 w token)
  | Bye -> Wire.frame w ~kind:k_bye ignore

let write_server w = function
  | Welcome { version; trace; credit } ->
      Wire.frame w ~kind:k_welcome (fun w ->
          W.u16 w version;
          W.u64 w trace;
          if version >= 3 then W.u32 w credit)
  | Opened { open_id; session; credit } ->
      Wire.frame w ~kind:k_opened (fun w ->
          W.u32 w open_id;
          W.u32 w session;
          W.u32 w credit)
  | Credit { session; credit } ->
      Wire.frame w ~kind:k_credit (fun w ->
          W.u32 w session;
          W.u32 w credit)
  | Verdict v ->
      Wire.frame w ~kind:k_verdict (fun w ->
          W.u32 w v.session;
          put status_table w v.status;
          put timeout_table w v.timeout;
          W.str w v.payload;
          W.u32 w v.missing;
          W.u32 w v.malformed;
          W.u32 w v.duplicated;
          W.u32 w v.undetermined;
          W.u64 w v.trace)
  | Rejected { open_id; reason; retry_after_ms; trace; detail } ->
      Wire.frame w ~kind:k_rejected (fun w ->
          W.u32 w open_id;
          put reject_table w reason;
          W.u32 w retry_after_ms;
          W.u64 w trace;
          W.str w detail)
  | Error { code; detail } ->
      Wire.frame w ~kind:k_error (fun w ->
          put error_table w code;
          W.str w detail)
  | Pong { token } -> Wire.frame w ~kind:k_pong (fun w -> W.u32 w token)

(* [size] is the exact frame size where it is worth knowing: [take]
   hands a writer filled to its size over without a copy. *)
let encoded write ~size frame =
  let w = W.create size in
  write w frame;
  W.take w

let encode_client = function
  | Msg { payload; _ } as f ->
      (* session, node and bit length, then the packed bits *)
      let body = 12 + ((Core.Message.bits payload + 7) / 8) in
      encoded write_client ~size:(Wire.header_bytes + body) f
  | f -> encoded write_client ~size:64 f

let encode_server = encoded write_server ~size:64

(* ---------- decoding ---------- *)

(* Fields are bound with sequential lets: OCaml leaves the evaluation
   order of record fields unspecified. *)
let decoded r read =
  match read r with
  | v -> if R.remaining r = 0 then Ok v else Error "trailing bytes in frame payload"
  | exception Refnet_bits.Byte_io.Malformed reason -> Error reason

let read_client ~kind r =
  if kind = k_hello then
    let version = R.u16 r in
    Hello { version }
  else if kind = k_open then
    let open_id = R.u32 r in
    let protocol = R.str r in
    let n = R.u32 r in
    let trace = R.u64 r in
    Open { open_id; protocol; n; trace }
  else if kind = k_msg then
    let session = R.u32 r in
    let node = R.u32 r in
    let payload = R.bits r in
    Msg { session; node; payload }
  else if kind = k_finish then Finish { session = R.u32 r }
  else if kind = k_abort then Abort { session = R.u32 r }
  else if kind = k_ping then Ping { token = R.u32 r }
  else if kind = k_bye then Bye
  else Refnet_bits.Byte_io.failf "unknown client frame kind 0x%02X" kind

let decode_client ~kind payload = decoded (R.of_string payload) (read_client ~kind)

let decode_client_view ~kind (v : Wire.view) =
  decoded (R.of_bytes v.buf ~off:v.off ~len:v.len) (read_client ~kind)

let decode_server ~kind payload =
  decoded (R.of_string payload) (fun r ->
      if kind = k_welcome then
        let version = R.u16 r in
        let trace = R.u64 r in
        let credit = if version >= 3 then R.u32 r else 0 in
        Welcome { version; trace; credit }
      else if kind = k_opened then
        let open_id = R.u32 r in
        let session = R.u32 r in
        let credit = R.u32 r in
        Opened { open_id; session; credit }
      else if kind = k_credit then
        let session = R.u32 r in
        let credit = R.u32 r in
        Credit { session; credit }
      else if kind = k_verdict then
        let session = R.u32 r in
        let status = get "verdict status" status_table r in
        let timeout = get "timeout kind" timeout_table r in
        let payload = R.str r in
        let missing = R.u32 r in
        let malformed = R.u32 r in
        let duplicated = R.u32 r in
        let undetermined = R.u32 r in
        let trace = R.u64 r in
        Verdict
          { session; status; timeout; payload; missing; malformed; duplicated;
            undetermined; trace }
      else if kind = k_rejected then
        let open_id = R.u32 r in
        let reason = get "reject reason" reject_table r in
        let retry_after_ms = R.u32 r in
        let trace = R.u64 r in
        let detail = R.str r in
        Rejected { open_id; reason; retry_after_ms; trace; detail }
      else if kind = k_error then
        let code = get "error code" error_table r in
        let detail = R.str r in
        Error { code; detail }
      else if kind = k_pong then Pong { token = R.u32 r }
      else Refnet_bits.Byte_io.failf "unknown server frame kind 0x%02X" kind)

(* ---------- printers ---------- *)

let pp_client ppf = function
  | Hello { version } -> Format.fprintf ppf "hello v%d" version
  | Open { open_id; protocol; n; trace } ->
      Format.fprintf ppf "open #%d %s n=%d trace=%016Lx" open_id protocol n trace
  | Msg { session; node; payload } ->
      Format.fprintf ppf "msg s%d node=%d bits=%d" session node
        (Core.Message.bits payload)
  | Finish { session } -> Format.fprintf ppf "finish s%d" session
  | Abort { session } -> Format.fprintf ppf "abort s%d" session
  | Ping { token } -> Format.fprintf ppf "ping %d" token
  | Bye -> Format.fprintf ppf "bye"

let pp_server ppf = function
  | Welcome { version; trace; credit } ->
      Format.fprintf ppf "welcome v%d trace=%016Lx credit=%d" version trace credit
  | Opened { open_id; session; credit } ->
      Format.fprintf ppf "opened #%d s%d credit=%d" open_id session credit
  | Credit { session; credit } ->
      Format.fprintf ppf "credit s%d +%d" session credit
  | Verdict { session; status; payload; _ } ->
      Format.fprintf ppf "verdict s%d %s %s" session (name status_table status)
        payload
  | Rejected { open_id; reason; retry_after_ms; trace; detail } ->
      Format.fprintf ppf "rejected #%d %s retry=%dms trace=%016Lx%s" open_id
        (reject_reason_to_string reason)
        retry_after_ms trace
        (if detail = "" then "" else " " ^ detail)
  | Error { code; detail } ->
      Format.fprintf ppf "error %s: %s" (error_code_to_string code) detail
  | Pong { token } -> Format.fprintf ppf "pong %d" token
