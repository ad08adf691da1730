open Refnet_bits
open Refnet_graph

type budget = { rounds : int; bits_per_round : int -> int }

let budget ~rounds ~bits_per_round =
  if rounds < 1 then
    invalid_arg
      (Printf.sprintf "Bcc.budget: field rounds is %d, must be at least 1" rounds);
  { rounds; bits_per_round }

(* The cap function can only be checked once [n] is known; entry points
   validate [bits_per_round n] so a nonsensical cap surfaces as
   [Invalid_argument] naming the field instead of a confusing
   [Budget_exceeded] at send time. *)
let check_budget_fields b ~n =
  if b.rounds < 1 then
    invalid_arg
      (Printf.sprintf "Bcc.run: budget field rounds is %d, must be at least 1" b.rounds);
  let limit = b.bits_per_round n in
  if limit < 1 then
    invalid_arg
      (Printf.sprintf
         "Bcc.run: budget field bits_per_round yields %d at n = %d, must be at least 1"
         limit n);
  limit

let unbounded _ = max_int

let log_budget ~c n =
  if c < 1 then invalid_arg "Bcc.log_budget: c must be at least 1";
  c * Bounds.id_bits n

exception Budget_exceeded of { round : int; id : int; bits : int; limit : int }

type node_state = { view : View.t; extra : Message.t list }

let make_state view = { view; extra = [] }
let state_view s = s.view
let state_extra s = s.extra
let push_extra s m = { s with extra = m :: s.extra }

type ('s, 'a) round_stream = {
  r_init : n:int -> 's;
  r_absorb : n:int -> round:int -> 's -> id:int -> Message.t -> 's;
  r_broadcast : n:int -> round:int -> 's -> 's * Message.t;
  r_finish : n:int -> 's -> 'a;
}

type 'a referee = Referee : ('s, 'a) round_stream -> 'a referee

type 'a t = {
  name : string;
  budget : budget;
  init : View.t -> node_state;
  send : round:int -> node_state -> Message.t * node_state;
  receive : round:int -> broadcast:Message.t -> node_state -> node_state;
  referee : 'a referee;
  audit : Bound_audit.budget option;
}

type transcript = {
  rounds : int;
  bits_limit : int;
  per_round_max_bits : int array;
  per_round_total_bits : int array;
  broadcast_bits : int array;
  max_bits : int;
  total_bits : int;
  faulted_ids : int list;
}

(* A view lives for one round, so a round's [Node_local] is its view's
   audit — except in round 1, whose view [init] read first: that round
   reports the delta since [init]. *)
let no_reads = { View.id_reads = 0; n_reads = 0; deg_reads = 0; neighbor_reads = 0 }

let sub_counts (a : View.counts) (b : View.counts) : View.counts =
  {
    id_reads = a.id_reads - b.id_reads;
    n_reads = a.n_reads - b.n_reads;
    deg_reads = a.deg_reads - b.deg_reads;
    neighbor_reads = a.neighbor_reads - b.neighbor_reads;
  }

(* Per-round spans are labelled [name[round=r]]; the [src=<backend>]
   decoration stays outermost — outside [round=] exactly as it sits
   outside [parts=] for coalitions.  Every round's done event carries
   the protocol's per-round budget. *)
let decorated base ~round ~src =
  let s =
    match round with None -> base | Some r -> Printf.sprintf "%s[round=%d]" base r
  in
  match src with None -> s | Some tok -> Printf.sprintf "%s[src=%s]" s tok

let check_budget ~round ~id ~limit bits =
  if bits > limit then raise (Budget_exceeded { round; id; bits; limit })

(* The referee's reply closing [round]: budget-checked, recorded and
   observed.  Nodes hear it lazily, in their next send. *)
let broadcast_phase ~trace ~metrics ~n ~round ~limit ~bcast r rst =
  let st, reply =
    Simulator.maybe_time metrics "refnet_referee_phase" (fun () -> r.r_broadcast ~n ~round !rst)
  in
  rst := st;
  let bits = Message.bits reply in
  check_budget ~round ~id:0 ~limit bits;
  bcast.(round - 1) <- bits;
  Trace.emit trace (Trace.Referee_broadcast { round; bits });
  Option.iter
    (fun m ->
      Metrics.Histogram.observe (Metrics.Histogram.histogram m "refnet_bcc_broadcast_bits") bits)
    metrics;
  reply

(* A stash that is exactly the broadcast history (most recent first) —
   what a node that only [push_extra]s every broadcast holds — is
   stored as the engine's one copy of it, not as a per-node list. *)
let share ~history extra =
  match (extra, history) with
  | m :: rest, m' :: rest' when m == m' && rest == rest' -> history
  | _ -> extra

let default_chunk = 65_536

let run_core ?domains ?(chunk = default_chunk) ~delivery ~trace ~metrics ~src (p : 'a t) source =
  let n = Graph_source.order source in
  let limit = check_budget_fields p.budget ~n in
  let rounds = p.budget.rounds in
  let quiet = Trace.is_null trace && metrics = None in
  let outer = decorated p.name ~round:None ~src in
  Trace.emit trace (Trace.Span_begin { label = outer; n });
  (* Between rounds a node is its stash and nothing else: the view is
     rebuilt from the source at its next send, and the referee's
     replies are delivered just before it, on the same pool domain. *)
  let extras = Array.make n [] in
  (* Query deltas go from a node's task to its accounting only when
     someone reads them. *)
  let deltas = if quiet then [||] else Array.make n no_reads in
  let history = ref [] in
  let queries = Option.map (fun m -> Metrics.Histogram.histogram m "refnet_view_queries") metrics in
  let per_round_max = Array.make rounds 0 in
  let per_round_total = Array.make rounds 0 in
  let bcast = Array.make (max 0 (rounds - 1)) 0 in
  let faulted = ref [] in
  let out =
    match p.referee with
    | Referee r ->
      let rst = ref (r.r_init ~n) in
      for round = 1 to rounds do
        let rl = decorated p.name ~round:(Some round) ~src in
        Trace.emit trace (Trace.Span_begin { label = rl; n });
        let heard = !history in
        (* Node [i]'s turn, on a pool domain: round 1 (the only one
           with no reply yet) starts it with [init], later rounds hand
           it the previous reply, so [receive]'s reads count in the
           round that follows it.  The task keeps the node's stash in
           [extras.(i)] — its own slot — and returns the bare
           message. *)
        let send i =
          let v = Simulator.view_of source ~n i in
          let s, before =
            match heard with
            | [] ->
              let s = p.init v in
              (s, if quiet then no_reads else View.audit s.view)
            | reply :: _ ->
              let s = { view = v; extra = extras.(i) } in
              (p.receive ~round:(round - 1) ~broadcast:reply s, no_reads)
          in
          let msg, s = p.send ~round s in
          extras.(i) <- share ~history:heard s.extra;
          if not quiet then deltas.(i) <- sub_counts (View.audit s.view) before;
          msg
        in
        (* Accounting runs in identifier order on the submitting
           domain: it checks the budget — so the first violation raised
           is the lowest offending id, at any width and chunk — and
           keeps the per-round stats. *)
        let account i msg =
          let bits = Message.bits msg in
          check_budget ~round ~id:(i + 1) ~limit bits;
          if bits > per_round_max.(round - 1) then per_round_max.(round - 1) <- bits;
          per_round_total.(round - 1) <- per_round_total.(round - 1) + bits;
          if not quiet then begin
            let delta = deltas.(i) in
            if not (Trace.is_null trace) then
              Trace.emit trace (Trace.Node_local { id = i + 1; bits; queries = delta });
            Option.iter
              (fun h -> Metrics.Histogram.observe h (Simulator.query_total delta))
              queries
          end
        in
        let senders ~order ~base ~len =
          { (Simulator.in_parallel ?domains ?metrics send ~order ~base ~len) with account }
        in
        let hit =
          Simulator.uplink ~chunk ~delivery ~trace ~metrics ~sample_absorbs:false ~n senders
            ~absorb:(fun ~id msg -> rst := r.r_absorb ~n ~round !rst ~id msg)
        in
        faulted := List.rev_append hit !faulted;
        if round < rounds then
          history := broadcast_phase ~trace ~metrics ~n ~round ~limit ~bcast r rst :: !history;
        Trace.emit trace
          (Trace.Referee_done
             {
               label = rl;
               n;
               max_bits = per_round_max.(round - 1);
               total_bits = per_round_total.(round - 1);
               budget = p.audit;
             });
        Trace.emit trace (Trace.Span_end { label = rl; n })
      done;
      Simulator.maybe_time metrics "refnet_referee_phase" (fun () -> r.r_finish ~n !rst)
  in
  let max_bits = Array.fold_left max 0 per_round_max in
  let total_bits = Array.fold_left ( + ) 0 per_round_total in
  Option.iter
    (fun m -> Metrics.Counter.add (Metrics.Counter.counter m "refnet_bcc_rounds_total") rounds)
    metrics;
  Simulator.close_run ~trace ~metrics ~label:outer ~budget:p.audit ~n ~max_bits ~total_bits;
  ( out,
    {
      rounds;
      bits_limit = limit;
      per_round_max_bits = per_round_max;
      per_round_total_bits = per_round_total;
      broadcast_bits = bcast;
      max_bits;
      total_bits;
      faulted_ids = List.sort_uniq Stdlib.compare !faulted;
    } )

let run ?domains ?chunk ?(delivery = Simulator.In_order) ?(trace = Trace.null) ?metrics (p : 'a t)
    g =
  run_core ?domains ?chunk ~delivery ~trace ~metrics ~src:None p (Graph_source.of_graph g)

let run_source ?domains ?chunk ?(delivery = Simulator.In_order) ?(trace = Trace.null) ?metrics
    (p : 'a t) source =
  Simulator.observe_source metrics source;
  run_core ?domains ?chunk ~delivery ~trace ~metrics
    ~src:(Some (Graph_source.backend source))
    p source

(* ---------- hardening ---------- *)

(* The ledger's rounds close when the referee must speak: at each
   broadcast, and (through [Verdict.report]) at finish.  In a fault-free
   run the engine absorbs every id every round, so nothing goes
   missing. *)
type 's bcc_hardened = {
  bh_ledger : Verdict.ledger;
  mutable bh_inner : 's;
  mutable bh_broke : bool; (* the inner broadcast raised *)
}

let harden_referee ?on_fault (Referee s) =
  Referee
    {
      r_init =
        (fun ~n -> { bh_ledger = Verdict.ledger ~n; bh_inner = s.r_init ~n; bh_broke = false });
      r_absorb =
        (fun ~n ~round h ~id msg ->
          (if Verdict.admit h.bh_ledger ~id then
             match s.r_absorb ~n ~round h.bh_inner ~id msg with
             | inner -> h.bh_inner <- inner
             | exception e when Protocol.default_malformed e -> Verdict.reject h.bh_ledger ~id);
          h);
      r_broadcast =
        (fun ~n ~round h ->
          Verdict.close_round h.bh_ledger;
          match s.r_broadcast ~n ~round h.bh_inner with
          | inner, reply ->
            h.bh_inner <- inner;
            (h, reply)
          | exception e when Protocol.default_malformed e ->
            (* The inner referee choked on a faulted transcript; keep
               its last consistent state and broadcast nothing.  The
               run can no longer end [Decided]. *)
            h.bh_broke <- true;
            (h, Message.empty));
      r_finish =
        (fun ~n h ->
          let report = Verdict.report h.bh_ledger in
          if h.bh_broke then
            Verdict.Inconclusive
              ("the referee could not form a broadcast: " ^ Verdict.report_summary report)
          else Protocol.settle ?on_fault report (fun () -> s.r_finish ~n h.bh_inner));
    }

let harden ?on_fault (p : 'a t) =
  {
    name = p.name ^ "+hardened";
    budget = p.budget;
    init = p.init;
    send = p.send;
    receive = p.receive;
    referee = harden_referee ?on_fault p.referee;
    audit = None;
  }

(* ---------- embeddings ---------- *)

let of_one_round (p : 'a Protocol.t) : 'a t =
  {
    name = p.Protocol.name;
    budget = { rounds = 1; bits_per_round = unbounded };
    init = make_state;
    send = (fun ~round:_ s -> (p.Protocol.local s.view, s));
    receive = (fun ~round:_ ~broadcast:_ s -> s);
    referee =
      Referee
        {
          r_init = (fun ~n -> Protocol.start p.Protocol.referee ~n);
          r_absorb = (fun ~n:_ ~round:_ f ~id msg -> Protocol.feed f ~id msg);
          r_broadcast = (fun ~n:_ ~round:_ f -> (f, Message.empty));
          r_finish = (fun ~n:_ f -> Protocol.finish f);
        };
    audit = p.Protocol.budget;
  }

module Adaptive_degeneracy = struct
  let degree_bound degrees =
    (* Largest d with at least d + 1 vertices of degree >= d.  A subgraph
       of minimum degree delta has delta + 1 vertices whose G-degrees are
       all >= delta, so degeneracy(G) <= this bound. *)
    let sorted = Array.copy degrees in
    Array.sort (fun a b -> Stdlib.compare b a) sorted;
    let best = ref 0 in
    Array.iteri
      (fun i d ->
        (* i is 0-based: position i+1 in the descending order. *)
        let candidate = min d i in
        if candidate > !best then best := candidate)
      sorted;
    !best

  type adeg_state = {
    ad_degrees : int array;
    ad_feed : Graph.t option Protocol.feed option; (* live from round 2 *)
  }

  let protocol () : Graph.t option t =
    {
      name = "bcc-adaptive-degeneracy";
      budget = { rounds = 2; bits_per_round = unbounded };
      init = make_state;
      send =
        (fun ~round s ->
          let v = s.view in
          match round with
          | 1 ->
            let w = Bit_writer.create () in
            Codes.write_fixed w ~width:(Bounds.id_bits (View.n v)) (View.deg v);
            (Message.of_writer w, s)
          | _ ->
            (* Round 2: the broadcast carries k-hat. *)
            let k_hat =
              match s.extra with
              | b :: _ -> Codes.read_fixed (Message.reader b) ~width:(Bounds.id_bits (View.n v))
              | [] -> invalid_arg "bcc-adaptive-degeneracy: missing broadcast"
            in
            let k = max 1 k_hat in
            let q = Degeneracy_protocol.reconstruct ~k () in
            (q.Protocol.local v, s));
      receive = (fun ~round:_ ~broadcast s -> push_extra s broadcast);
      referee =
        Referee
          {
            r_init = (fun ~n -> { ad_degrees = Array.make (max 1 n) 0; ad_feed = None });
            r_absorb =
              (fun ~n ~round st ~id msg ->
                match round with
                | 1 ->
                  st.ad_degrees.(id - 1) <-
                    Codes.read_fixed (Message.reader msg) ~width:(Bounds.id_bits n);
                  st
                | _ -> (
                  match st.ad_feed with
                  | Some f -> { st with ad_feed = Some (Protocol.feed f ~id msg) }
                  | None -> invalid_arg "bcc-adaptive-degeneracy: round 2 before broadcast"));
            r_broadcast =
              (fun ~n ~round:_ st ->
                let k_hat = degree_bound (Array.sub st.ad_degrees 0 n) in
                let w = Bit_writer.create () in
                Codes.write_fixed w ~width:(Bounds.id_bits n) k_hat;
                let k = max 1 k_hat in
                let q = Degeneracy_protocol.reconstruct ~k () in
                ( { st with ad_feed = Some (Protocol.start q.Protocol.referee ~n) },
                  Message.of_writer w ));
            r_finish =
              (fun ~n st ->
                if n = 0 then Some (Graph.empty 0)
                else
                  match st.ad_feed with
                  | Some f -> Protocol.finish f
                  | None -> invalid_arg "bcc-adaptive-degeneracy: finish before round 2");
          };
      audit = None;
    }
end
