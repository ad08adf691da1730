type ('s, 'a) stream = {
  init : n:int -> 's;
  absorb : n:int -> 's -> id:int -> Message.t -> 's;
  finish : n:int -> 's -> 'a;
}

type 'a referee = Referee : ('s, 'a) stream -> 'a referee

type 'a t = {
  name : string;
  local : View.t -> Message.t;
  referee : 'a referee;
  budget : Bound_audit.budget option;
}

let streaming ~init ~absorb ~finish = Referee { init; absorb; finish }

let batch global =
  Referee
    {
      init = (fun ~n -> Array.make n Message.empty);
      absorb =
        (fun ~n:_ msgs ~id msg ->
          msgs.(id - 1) <- msg;
          msgs);
      finish = (fun ~n msgs -> global ~n msgs);
    }

(* A feed pairs a stream with its in-flight state; the existential keeps
   the state type private to the referee. *)
type 'a feed = Feed : ('s, 'a) stream * int * 's -> 'a feed

let start (Referee s) ~n = Feed (s, n, s.init ~n)
let feed (Feed (s, n, st)) ~id msg = Feed (s, n, s.absorb ~n st ~id msg)
let finish (Feed (s, n, st)) = s.finish ~n st

let run_referee (Referee s) ~n msgs =
  if Array.length msgs <> n then invalid_arg "Protocol.run_referee: wrong message count";
  let st = ref (s.init ~n) in
  for i = 0 to n - 1 do
    st := s.absorb ~n !st ~id:(i + 1) msgs.(i)
  done;
  s.finish ~n !st

let apply p ~n msgs = run_referee p.referee ~n msgs

let map_referee f (Referee s) = Referee { s with finish = (fun ~n st -> f (s.finish ~n st)) }
let map_output f p = { p with referee = map_referee f p.referee }
let rename name p = { p with name; budget = None }

(* ---------- generic hardening ---------- *)

let default_malformed = function
  | Refnet_bits.Bit_reader.Exhausted | Message.Malformed -> true
  | Invalid_argument _ | Failure _ -> true
  | _ -> false

let guard ledger absorb ~n st ~id msg =
  if not (Verdict.admit ledger ~id) then st
  else try absorb ~n st ~id msg with e when default_malformed e -> Verdict.reject ledger ~id; st

(* The referee state behind a guard: the ledger next to the inner
   state, replaced in place so an absorb allocates nothing of its own. *)
type 's guarded = { ledger : Verdict.ledger; mutable inner : 's }

let guarded ~init ~absorb ~finish =
  Referee
    {
      init = (fun ~n -> { ledger = Verdict.ledger ~n; inner = init ~n });
      absorb =
        (fun ~n g ~id msg ->
          g.inner <- guard g.ledger absorb ~n g.inner ~id msg;
          g);
      finish = (fun ~n g -> finish ~n g.ledger g.inner);
    }

let settle ?on_fault report finish =
  if Verdict.channel_clean report then
    match finish () with
    | v -> Verdict.Decided v
    | exception e when default_malformed e ->
      Verdict.Inconclusive "the referee could not decode a clean transcript"
  else
    match on_fault with
    | None -> Verdict.Inconclusive ("channel faults detected: " ^ Verdict.report_summary report)
    | Some f ->
      let partial = match finish () with v -> Some v | exception e when default_malformed e -> None in
      f report partial

(* The seal is checked in place and the payload read through a reader
   that ends at the digest: nothing is copied, and no absorb can read a
   digest bit. *)
let sealed_referee ~init ~absorb ~finish =
  guarded ~init
    ~absorb:(fun ~n st ~id msg ->
      if not (Message.verify ~n ~id msg) then raise Message.Malformed;
      absorb ~n st ~id (Message.payload_reader msg))
    ~finish:(fun ~n ledger st ->
      finish ~n (Verdict.report ledger) ~trusted:(Verdict.trusted ledger) st)

let sealed ~name ~local ~init ~absorb ~finish =
  let local v = Message.seal ~n:(View.n v) ~id:(View.id v) (local v) in
  { name; local; referee = sealed_referee ~init ~absorb ~finish; budget = None }

let harden ?on_fault p =
  let (Referee s) = p.referee in
  let finish ~n ledger st = settle ?on_fault (Verdict.report ledger) (fun () -> s.finish ~n st) in
  let referee = guarded ~init:s.init ~absorb:s.absorb ~finish in
  { name = p.name ^ "+hardened"; local = p.local; referee; budget = None }
