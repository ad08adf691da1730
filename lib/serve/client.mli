(** The client side of the serve protocol: {!Session}, the session
    logic with no I/O, and a blocking socket client around it — enough
    for the CI probe ([refnet serve --probe]), the benchmark harness
    and integration tests.  {!Selftest} drives the same machine
    in-process. *)

type verdict = {
  status : Frame.status;
  timeout : Frame.timeout_kind;
  payload : string;
  missing : int;
  malformed : int;
  duplicated : int;
  undetermined : int;
  trace : int64;  (** the session trace id the verdict ran under *)
}

(** One session, from [Open] to the verdict.  A driver writes every
    flight {!flight} hands out; when there is none, it reads one server
    frame and gives it to {!recv}, until {!recv} returns the end.

    {b The flight rule.}  [Open] travels alone, since the session id
    and the credit window come back in [Opened].  After it, frames are
    encoded into one buffer, and a flight leaves when the credit window
    reaches 0, when 1 KB is queued, and with [Finish].  A flight never
    holds more [Msg] frames than the window allows.  A count session at
    n=8 is two writes: [Open], then 8 [Msg] and [Finish]; 1.7 KB sketch
    frames leave one per flight, so the daemon absorbs while the client
    encodes. *)
module Session : sig
  type t

  (** [start ~open_id ?trace ~protocol ~n msgs] will open a session
      with the correlation token [open_id] and stream the
      [(node, message)] list.  [trace] (default [0L]) goes in the
      [Open] frame: [0L] adopts the connection's minted id; a non-zero
      id is a resume attempt, which a restarted daemon holding
      crash-dump evidence for that id refuses with the evidence
      summary. *)
  val start :
    open_id:int ->
    ?trace:int64 ->
    protocol:string ->
    n:int ->
    (int * Core.Message.t) list ->
    t

  (** [flight s] is the next flight of wire bytes, or [None] while the
      session waits for a server frame or after it ended. *)
  val flight : t -> string option

  (** [recv s frame] takes one server frame: [None] while the session
      goes on, else its end.  A verdict may come while the client waits
      for credit (a server-side timeout) and ends the session early.
      The errors: ["rejected: REASON (retry after MS ms)"] (plus
      [": DETAIL"] when the server sent one), ["server error CODE:
      DETAIL"], and ["expected Opened"] or ["unexpected frame
      mid-session"] for a frame of another open or session.  Frames
      after the end are ignored. *)
  val recv : t -> Frame.server -> (verdict, string) result option
end

type t

val connect : Daemon.listen -> (t, string) result

(** [handshake c] sends [Hello] and waits for [Welcome]. *)
val handshake : t -> (unit, string) result

(** [run_session c ?trace ~protocol ~n msgs] runs one {!Session} on the
    connection and returns its verdict; any rejection, server error or
    transport failure comes back as [Error]. *)
val run_session :
  t ->
  ?trace:int64 ->
  protocol:string ->
  n:int ->
  (int * Core.Message.t) list ->
  (verdict, string) result

val close : t -> unit
