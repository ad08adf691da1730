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

type 's hardened_state = {
  h_inner : 's;
  h_seen : bool array;
  mutable h_malformed : int list; (* reversed *)
  mutable h_duplicated : int list; (* reversed *)
}

let report_of ~n h =
  let missing = ref [] in
  for id = n downto 1 do
    if not h.h_seen.(id - 1) then missing := id :: !missing
  done;
  {
    Verdict.missing = !missing;
    malformed = List.rev h.h_malformed;
    duplicated = List.rev h.h_duplicated;
    undetermined = [];
  }

let harden_referee ?(malformed = default_malformed) ?on_fault (Referee s) =
  Referee
    {
      init =
        (fun ~n ->
          {
            h_inner = s.init ~n;
            h_seen = Array.make n false;
            h_malformed = [];
            h_duplicated = [];
          });
      absorb =
        (fun ~n h ~id msg ->
          if id < 1 || id > n then begin
            (* A sender id outside the network is itself channel
               corruption; there is no slot to mark missing. *)
            h.h_malformed <- id :: h.h_malformed;
            h
          end
          else if h.h_seen.(id - 1) then begin
            h.h_duplicated <- id :: h.h_duplicated;
            h
          end
          else begin
            h.h_seen.(id - 1) <- true;
            match s.absorb ~n h.h_inner ~id msg with
            | inner -> { h with h_inner = inner }
            | exception e when malformed e ->
              h.h_malformed <- id :: h.h_malformed;
              h
          end);
      finish =
        (fun ~n h ->
          let report = report_of ~n h in
          if Verdict.channel_clean report then
            match s.finish ~n h.h_inner with
            | v -> Verdict.Decided v
            | exception e when malformed e ->
              Verdict.Inconclusive "the referee could not decode a clean transcript"
          else begin
            let partial =
              match s.finish ~n h.h_inner with
              | v -> Some v
              | exception e when malformed e -> None
            in
            match on_fault with
            | Some f -> f report partial
            | None ->
              Verdict.Inconclusive
                ("channel faults detected: " ^ Verdict.report_summary report)
          end);
    }

let harden ?malformed ?on_fault p =
  {
    name = p.name ^ "+hardened";
    local = p.local;
    referee = harden_referee ?malformed ?on_fault p.referee;
    budget = None;
  }
