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

let server_error code detail =
  Error
    (Printf.sprintf "server error %s: %s" (Frame.error_code_to_string code) detail)

module Session = struct
  type stage =
    | Opening
    | Streaming of int (* the server's session id *)
    | Finished of int (* Finish queued; waiting for the verdict *)
    | Ended

  type t = {
    open_id : int;
    mutable rest : (int * Core.Message.t) list; (* not yet queued *)
    mutable window : int;
    mutable stage : stage;
    out : Buffer.t; (* the flight being built *)
  }

  (* See client.mli for the flight rule.  The cap keeps large frames
     leaving one at a time, so the daemon absorbs while the client
     encodes: without it, serve-sketch-n128 (1.7 KB frames) lost a
     fifth of its sessions/s. *)
  let flight_cap = 1024

  let start ~open_id ?(trace = 0L) ~protocol ~n msgs =
    let out = Buffer.create flight_cap in
    Buffer.add_string out
      (Frame.encode_client (Frame.Open { open_id; protocol; n; trace }));
    { open_id; rest = msgs; window = 0; stage = Opening; out }

  let flight t =
    (match t.stage with
    | Streaming session ->
        let rec fill () =
          if Buffer.length t.out < flight_cap then
            match t.rest with
            | [] ->
                Buffer.add_string t.out (Frame.encode_client (Frame.Finish { session }));
                t.stage <- Finished session
            | (node, payload) :: tl when t.window > 0 ->
                Buffer.add_string t.out
                  (Frame.encode_client (Frame.Msg { session; node; payload }));
                t.rest <- tl;
                t.window <- t.window - 1;
                fill ()
            | _ :: _ -> ()
        in
        fill ()
    | Opening | Finished _ | Ended -> ());
    if Buffer.length t.out = 0 then None
    else begin
      let s = Buffer.contents t.out in
      Buffer.clear t.out;
      Some s
    end

  let recv t frame =
    let ended r =
      t.stage <- Ended;
      Buffer.clear t.out;
      Some r
    in
    match (t.stage, frame) with
    | Ended, _ -> None
    | _, Frame.Error { code; detail } -> ended (server_error code detail)
    | Opening, Frame.Opened { open_id; session; credit }
      when open_id = t.open_id ->
        t.stage <- Streaming session;
        t.window <- credit;
        None
    | Opening, Frame.Rejected { reason; retry_after_ms; detail; _ } ->
        ended
          (Error
             (Printf.sprintf "rejected: %s (retry after %d ms)%s"
                (Frame.reject_reason_to_string reason)
                retry_after_ms
                (if detail = "" then "" else ": " ^ detail)))
    | Opening, _ -> ended (Error "expected Opened")
    | (Streaming s | Finished s), Frame.Credit { session; credit } when session = s ->
        t.window <- t.window + credit;
        None
    | ( (Streaming s | Finished s),
        Frame.Verdict
          { session; status; timeout; payload; missing; malformed; duplicated;
            undetermined; trace } )
      when session = s ->
        ended
          (Ok
             { status; timeout; payload; missing; malformed; duplicated;
               undetermined; trace })
    | (Streaming _ | Finished _), _ -> ended (Error "unexpected frame mid-session")
end

type t = {
  fd : Unix.file_descr;
  decoder : Wire.decoder;
  rbuf : Bytes.t;
  mutable next_open_id : int;
}

let connect spec =
  let fd = Daemon.socket spec in
  match Unix.connect fd (Daemon.sockaddr_of_listen spec) with
  | () ->
      Daemon.set_nodelay spec fd;
      Ok
        {
          fd;
          decoder = Wire.decoder ();
          rbuf = Bytes.create 65536;
          next_open_id = 1;
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
  | Frame.Welcome _ -> Ok ()
  | Frame.Error { code; detail } -> server_error code detail
  | _ -> Error "expected Welcome"

let run_session c ?trace ~protocol ~n msgs =
  let open_id = c.next_open_id in
  c.next_open_id <- open_id + 1;
  let s = Session.start ~open_id ?trace ~protocol ~n msgs in
  let rec go () =
    match Session.flight s with
    | Some bytes ->
        let* () = send_all c bytes in
        go ()
    | None -> (
        let* frame = recv_frame c in
        match Session.recv s frame with Some r -> r | None -> go ())
  in
  go ()
