(** A minimal blocking client for the serve protocol — enough for the
    CI probe ([refnet serve --probe]) and integration tests.  It speaks
    the handshake, opens one session at a time, respects the credit
    window, and returns the typed verdict. *)

type t

val connect : Daemon.listen -> (t, string) result

(** [handshake c] sends [Hello] and waits for [Welcome], capturing the
    session trace id the server minted for this connection. *)
val handshake : t -> (unit, string) result

(** The trace id from [Welcome]; [0L] before {!handshake}. *)
val conn_trace : t -> int64

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

(** [run_session c ?trace ~protocol ~n msgs] opens a session, streams
    the [(node, message)] list under backpressure, finishes, and waits
    for the verdict.  Frames after [Open] travel in flights: they are
    encoded into one buffer and written with one [write] when the
    credit window reaches 0 (just before waiting for [Credit]), when
    1 KB is queued, and with [Finish] at the end.  A flight never holds
    more [Msg] frames than the window allows, and a verdict that
    arrives while the client waits for credit ends the session early.
    [trace] (default [0L]) is echoed in the [Open]
    frame: [0L] adopts the connection's minted id; a non-zero id is a
    resume attempt, which a restarted daemon holding crash-dump
    evidence for that id refuses with the evidence summary.  Any
    rejection, server error or transport failure comes back as
    [Error]. *)
val run_session :
  t ->
  ?trace:int64 ->
  protocol:string ->
  n:int ->
  (int * Core.Message.t) list ->
  (verdict, string) result

val close : t -> unit
