(** Detect-or-degrade referee outcomes.

    A hardened referee never lets a channel fault turn into a
    confidently wrong answer.  Its [finish] classifies the run:

    - {!Decided}: the channel was clean (every id absorbed exactly
      once, every message authentic) and the output is the same one the
      plain referee would produce — full trust.
    - {!Degraded}: faults were detected, but part of the output is
      still {e certain} from the surviving messages.  The payload is
      that sound part; the {!fault_report} names which ids were lost,
      mangled or left undetermined.  Senders are honest in the fault
      model, so every surviving (authenticated) message is a true
      statement about the input — degraded payloads are sound, just
      incomplete.
    - {!Inconclusive}: the faults (or an authentication anomaly that
      should be impossible under pure channel faults) leave nothing the
      referee is willing to assert.

    The invariant every hardened protocol maintains: under {e any}
    fault plan, a [Decided] output equals the fault-free output —
    detect or degrade, never lie. *)

(** Who was hit, as seen from the referee's side of the channel.  Every
    list is ascending and duplicate-free: an id delivered three times is
    duplicated once. *)
type fault_report = {
  missing : int list;  (** ids never absorbed (crashed, or spoofed away) *)
  malformed : int list;
      (** ids whose delivered message failed authentication or parsing
          (truncation, bit flips, spoofed sender) *)
  duplicated : int list;  (** ids absorbed more than once (extra copies dropped) *)
  undetermined : int list;
      (** ids whose local structure the degraded output does not pin
          down — every edge claim {e not} touching these ids is exact *)
}

type 'a t =
  | Decided of 'a
  | Degraded of 'a * fault_report
  | Inconclusive of string

val empty_report : fault_report

(** [channel_clean r] — no missing, malformed or duplicated ids
    ([undetermined] is an output-side attribute and does not count). *)
val channel_clean : fault_report -> bool

(** [salvage report ~decide ~partial] is the sealed referees' policy:
    [Decided (decide ())] on a clean channel, else [Degraded] with what
    [partial ()] pins down and the ids it leaves undetermined, or
    [Inconclusive] when authenticated messages contradict each other. *)
val salvage :
  fault_report -> decide:(unit -> 'a) -> partial:(unit -> ('a * int list) option) -> 'a t

(** {2 The channel ledger}

    The referee knows which node sent each message (the paper's
    Definition 1); a hardened referee uses that to check each sender id
    and count each id once.  The ledger is that bookkeeping, shared by
    every hardened referee through {!Protocol.guard} ({!Protocol.sealed},
    {!Protocol.harden}, {!Bcc.harden}).
    It is mutable and belongs to one referee fold. *)
type ledger

(** [ledger ~n] expects ids [1..n], none arrived yet. *)
val ledger : n:int -> ledger

(** [admit l ~id] is [true] the first time [id] arrives in the current
    round.  An id outside [1..n] is recorded malformed and a repeat is
    recorded duplicated; both are [false], and the referee drops them. *)
val admit : ledger -> id:int -> bool

(** [reject l ~id] records an admitted id whose message failed its seal
    or its parse. *)
val reject : ledger -> id:int -> unit

(** [trusted l id]: [id] (in [1..n]) arrived, missed no round and was
    never rejected — its message passed its seal and its parse. *)
val trusted : ledger -> int -> bool

(** [close_round l] ends a round of a multi-round referee: ids that did
    not arrive in it are missing for good, and every id may arrive once
    more. *)
val close_round : ledger -> unit

(** [report l] is the fault report so far ([undetermined] empty): an id
    is missing if it has not arrived in the current round or missed a
    closed one.  It does not change [l], so a finish that reads it twice
    reads the same report. *)
val report : ledger -> fault_report

(** [map f v] maps over the payload of [Decided]/[Degraded]. *)
val map : ('a -> 'b) -> 'a t -> 'b t

(** [is_decided v] is true only for [Decided]. *)
val is_decided : 'a t -> bool

(** One-line count summary, e.g. ["2 missing, 1 malformed, ..."]. *)
val report_summary : fault_report -> string

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
