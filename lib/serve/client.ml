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
  module W = Refnet_bits.Byte_io.Writer

  type stage =
    | Opening
    | Streaming of int (* the session's address *)
    | Finished of int (* Finish queued; waiting for the verdict *)
    | Ended

  type t = {
    open_id : int;
    mutable rest : (int * Core.Message.t) list; (* not yet queued *)
    mutable window : int;
    mutable stage : stage;
    out : W.t; (* the flight being built, frames encoded in place *)
  }

  (* See client.mli for the flight rule.  The cap keeps large frames
     leaving one at a time, so the daemon absorbs while the client
     encodes: without it, serve-sketch-n128 (1.7 KB frames) lost a
     fifth of its sessions/s. *)
  let flight_cap = 1024

  let start ~open_id ?credit ?(trace = 0L) ~protocol ~n msgs =
    let out = W.create flight_cap in
    Frame.write_client out (Frame.Open { open_id; protocol; n; trace });
    match credit with
    | None -> { open_id; rest = msgs; window = 0; stage = Opening; out }
    | Some window -> { open_id; rest = msgs; window; stage = Streaming open_id; out }

  let flight t =
    (match t.stage with
    | Streaming session ->
        let rec fill () =
          if W.length t.out < flight_cap then
            match t.rest with
            | [] ->
                Frame.write_client t.out (Frame.Finish { session });
                t.stage <- Finished session
            | (node, payload) :: tl when t.window > 0 ->
                Frame.write_client t.out (Frame.Msg { session; node; payload });
                t.rest <- tl;
                t.window <- t.window - 1;
                fill ()
            | _ :: _ -> ()
        in
        fill ()
    | Opening | Finished _ | Ended -> ());
    if W.length t.out = 0 then None else Some (W.take t.out)

  let recv t frame =
    let ended r =
      t.stage <- Ended;
      W.truncate t.out 0;
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
    | (Streaming _ | Finished _), Frame.Opened { open_id; _ } when open_id = t.open_id ->
        None
    | _, Frame.Rejected { open_id; reason; retry_after_ms; detail; _ }
      when open_id = t.open_id ->
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
  mutable credit : int option; (* from a v3 Welcome: sessions pipeline *)
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
          credit = None;
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
  | Frame.Welcome { version; credit; _ } ->
      if version >= 3 then c.credit <- Some credit;
      Ok ()
  | Frame.Error { code; detail } -> server_error code detail
  | _ -> Error "expected Welcome"

let run_session c ?trace ~protocol ~n msgs =
  let open_id = c.next_open_id in
  c.next_open_id <- open_id + 1;
  let s = Session.start ~open_id ?credit:c.credit ?trace ~protocol ~n msgs in
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
