type t = {
  fd : Unix.file_descr;
  decoder : Wire.decoder;
  rbuf : Bytes.t;
  flight : Buffer.t; (* encoded frames not yet written *)
  mutable next_open_id : int;
  mutable conn_trace : int64;
}

type verdict = {
  status : Frame.status;
  timeout : Frame.timeout_kind;
  payload : string;
  missing : int;
  malformed : int;
  duplicated : int;
  undetermined : int;
  trace : int64;
}

let connect spec =
  let domain =
    match spec with
    | Daemon.Tcp _ -> Unix.PF_INET
    | Daemon.Unix_sock _ -> Unix.PF_UNIX
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Daemon.sockaddr_of_listen spec) with
  | () ->
      Daemon.set_nodelay spec fd;
      Ok
        {
          fd;
          decoder = Wire.decoder ();
          rbuf = Bytes.create 65536;
          flight = Buffer.create 1024;
          next_open_id = 1;
          conn_trace = 0L;
        }
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "connect %s: %s"
           (Daemon.listen_to_string spec)
           (Unix.error_message err))

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_all c s =
  let len = String.length s in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write_substring c.fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (err, _, _) ->
          Error ("write: " ^ Unix.error_message err)
  in
  go 0

(* A session's frames travel in flights: each frame is encoded into
   [c.flight], and the flight is written with one [write] when the
   credit window closes (just before blocking for [Credit]), when
   [flight_cap] bytes are queued, and with [Finish].  A count session
   at n=8 is two writes instead of ten.  The cap keeps large frames
   leaving one at a time, so the daemon absorbs while the client
   encodes: without it, serve-sketch-n128 (1.7 KB frames) lost a fifth
   of its sessions/s. *)
let flight_cap = 1024

let flush c =
  if Buffer.length c.flight = 0 then Ok ()
  else begin
    let s = Buffer.contents c.flight in
    Buffer.clear c.flight;
    send_all c s
  end

let queue c frame =
  Buffer.add_string c.flight (Frame.encode_client frame);
  if Buffer.length c.flight >= flight_cap then flush c else Ok ()

let rec recv_frame c =
  match Wire.next c.decoder with
  | Wire.Frame { kind; payload } -> Frame.decode_server ~kind payload
  | Wire.Corrupt detail -> Error ("corrupt server frame: " ^ detail)
  | Wire.Awaiting -> (
      match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
      | 0 -> Error "server closed the connection"
      | n ->
          Wire.push c.decoder c.rbuf ~off:0 ~len:n;
          recv_frame c
      | exception Unix.Unix_error (err, _, _) ->
          Error ("read: " ^ Unix.error_message err))

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let handshake c =
  let* () = send_all c (Frame.encode_client (Frame.Hello { version = Frame.version })) in
  let* frame = recv_frame c in
  match frame with
  | Frame.Welcome { trace; _ } ->
      c.conn_trace <- trace;
      Ok ()
  | Frame.Error { code; detail } ->
      Error
        (Printf.sprintf "server error %s: %s"
           (Frame.error_code_to_string code)
           detail)
  | _ -> Error "expected Welcome"

let conn_trace c = c.conn_trace

let run_session c ?(trace = 0L) ~protocol ~n msgs =
  let open_id = c.next_open_id in
  c.next_open_id <- open_id + 1;
  let* () =
    send_all c (Frame.encode_client (Frame.Open { open_id; protocol; n; trace }))
  in
  let* opened = recv_frame c in
  let* session, credit =
    match opened with
    | Frame.Opened { open_id = oid; session; credit } when oid = open_id ->
        Ok (session, credit)
    | Frame.Rejected { reason; retry_after_ms; detail; _ } ->
        Error
          (Printf.sprintf "rejected: %s (retry after %d ms)%s"
             (Frame.reject_reason_to_string reason)
             retry_after_ms
             (if detail = "" then "" else ": " ^ detail))
    | Frame.Error { code; detail } ->
        Error
          (Printf.sprintf "server error %s: %s"
             (Frame.error_code_to_string code)
             detail)
    | _ -> Error "expected Opened"
  in
  (* stream messages in flights under the credit window, then finish
     and wait.  A verdict can arrive early (server-side timeout
     mid-stream): stop sending and return it. *)
  let window = ref credit in
  let next_event () =
    let* frame = recv_frame c in
    match frame with
    | Frame.Credit { session = sid; credit } when sid = session ->
        window := !window + credit;
        Ok None
    | Frame.Verdict
        { session = sid; status; timeout; payload; missing; malformed;
          duplicated; undetermined; trace }
      when sid = session ->
        Ok
          (Some
             { status; timeout; payload; missing; malformed; duplicated;
               undetermined; trace })
    | Frame.Error { code; detail } ->
        Error
          (Printf.sprintf "server error %s: %s"
             (Frame.error_code_to_string code)
             detail)
    | _ -> Error "unexpected frame mid-session"
  in
  let rec send_msgs rest =
    match rest with
    | [] -> Ok None
    | (node, payload) :: tl ->
        if !window = 0 then
          let* () = flush c in
          let* v = next_event () in
          match v with Some _ -> Ok v | None -> send_msgs rest
        else
          let* () = queue c (Frame.Msg { session; node; payload }) in
          window := !window - 1;
          send_msgs tl
  in
  let* early = send_msgs msgs in
  match early with
  | Some v -> Ok v
  | None ->
      let* () = queue c (Frame.Finish { session }) in
      let* () = flush c in
      let rec await () =
        let* v = next_event () in
        match v with Some v -> Ok v | None -> await ()
      in
      await ()
