open Refnet_graph

type transcript = {
  n : int;
  message_bits : int array;
  max_bits : int;
  total_bits : int;
  faulted_ids : int list;
}

let transcript_of_bits message_bits =
  {
    n = Array.length message_bits;
    message_bits;
    max_bits = Array.fold_left max 0 message_bits;
    total_bits = Array.fold_left ( + ) 0 message_bits;
    faulted_ids = [];
  }

let transcript_of_messages msgs = transcript_of_bits (Array.map Message.bits msgs)

(* [msgs.(i)] is node [base + i + 1]'s message. *)
let emit_node_events ?(base = 0) trace views msgs =
  Array.iteri
    (fun i msg ->
      Trace.emit trace
        (Trace.Node_local
           { id = base + i + 1; bits = Message.bits msg; queries = View.audit views.(i) }))
    msgs

let query_total (c : View.counts) = c.id_reads + c.n_reads + c.deg_reads + c.neighbor_reads

let observe_local metrics views msgs =
  match metrics with
  | None -> ()
  | Some m ->
    Metrics.Counter.add (Metrics.Counter.counter m "refnet_messages_total") (Array.length msgs);
    let bits = Metrics.Histogram.histogram m "refnet_message_bits" in
    Array.iter (fun msg -> Metrics.Histogram.observe bits (Message.bits msg)) msgs;
    let queries = Metrics.Histogram.histogram m "refnet_view_queries" in
    Array.iter (fun v -> Metrics.Histogram.observe queries (query_total (View.audit v))) views

let maybe_time metrics name f =
  match metrics with Some m -> Metrics.time m name f | None -> f ()

(* The epilogue of every one-round run: transcript metrics, then the
   done event carrying the protocol's typed budget, then the span's
   close. *)
let close_run ~trace ~metrics ~label ~budget t =
  (match metrics with
  | None -> ()
  | Some m ->
    Metrics.Counter.incr (Metrics.Counter.counter m "refnet_runs_total");
    Metrics.Histogram.observe (Metrics.Histogram.histogram m "refnet_run_max_bits") t.max_bits;
    Metrics.Counter.add (Metrics.Counter.counter m "refnet_run_bits_total") t.total_bits);
  let n = t.n in
  Trace.emit trace
    (Trace.Referee_done { label; n; max_bits = t.max_bits; total_bits = t.total_bits; budget });
  Trace.emit trace (Trace.Span_end { label; n })

(* The engine-side view constructor: one view record per node, backed
   directly by the source's neighbour slice — zero per-node copies for
   materialized/CSR backends, one fresh run for implicit ones. *)
let view_of src ~n i =
  let nbrs, off, len = Graph_source.neighbors_slice src (i + 1) in
  View.of_slice ~n ~id:(i + 1) nbrs ~off ~len

let local_phase_source ?domains ?(trace = Trace.null) ?metrics (p : 'a Protocol.t) src =
  (* The model makes this phase embarrassingly parallel: each node's
     message depends only on its view.  The engine is the only place
     views of real nodes are built; messages land in their slot by
     identifier, so the vector — and hence the transcript — is
     bit-identical to a sequential run at any domain count and over any
     backend presenting the same labelled graph. *)
  let n = Graph_source.order src in
  if Trace.is_null trace && metrics = None then
    Parallel.init ?domains n (fun i -> p.local (view_of src ~n i))
  else begin
    (* Prebuild the views so their audit tallies survive the parallel
       section; events and metrics are recorded from the submitting
       domain only, after the batch completes, in identifier order. *)
    let views = Array.init n (fun i -> view_of src ~n i) in
    let msgs = Parallel.init ?domains ?metrics n (fun i -> p.local views.(i)) in
    if not (Trace.is_null trace) then emit_node_events trace views msgs;
    observe_local metrics views msgs;
    msgs
  end

let local_phase ?domains ?trace ?metrics p g =
  local_phase_source ?domains ?trace ?metrics p (Graph_source.of_graph g)

(* Blocked schedule: compute [chunk] messages in parallel, feed them to
   the streaming referee, release them, repeat.  Live message storage is
   O(chunk) instead of O(n) — the transcript keeps every length in an
   int array.  Absorbs happen in identifier order exactly as in the
   full-vector schedule, so output and transcript are bit-identical for
   every chunk size; only the interleaving of [Node_local] /
   [Referee_absorb] trace events (and the per-absorb latency sampling,
   skipped here) differs. *)
let run_chunked ?domains ~chunk ~trace ~metrics (p : 'a Protocol.t) src =
  let n = Graph_source.order src in
  let message_bits = Array.make n 0 in
  let feed = ref (Protocol.start p.referee ~n) in
  let quiet = Trace.is_null trace && metrics = None in
  let base = ref 0 in
  while !base < n do
    let b = !base in
    let len = min chunk (n - b) in
    if quiet then begin
      let msgs = Parallel.init ?domains len (fun i -> p.local (view_of src ~n (b + i))) in
      for i = 0 to len - 1 do
        message_bits.(b + i) <- Message.bits msgs.(i);
        feed := Protocol.feed !feed ~id:(b + i + 1) msgs.(i)
      done
    end
    else begin
      let views = Array.init len (fun i -> view_of src ~n (b + i)) in
      let msgs =
        maybe_time metrics "refnet_local_phase" (fun () ->
            Parallel.init ?domains ?metrics len (fun i -> p.local views.(i)))
      in
      if not (Trace.is_null trace) then emit_node_events ~base:b trace views msgs;
      observe_local metrics views msgs;
      maybe_time metrics "refnet_referee_phase" (fun () ->
          for i = 0 to len - 1 do
            message_bits.(b + i) <- Message.bits msgs.(i);
            feed := Protocol.feed !feed ~id:(b + i + 1) msgs.(i);
            if not (Trace.is_null trace) then
              Trace.emit trace (Trace.Referee_absorb { id = b + i + 1; bits = message_bits.(b + i) })
          done);
      match metrics with
      | Some m -> Metrics.Counter.add (Metrics.Counter.counter m "refnet_absorbs_total") len
      | None -> ()
    end;
    base := b + len
  done;
  (Protocol.finish !feed, transcript_of_bits message_bits)

let run_core ?domains ?chunk ~trace ~metrics ~label (p : 'a Protocol.t) src =
  let n = Graph_source.order src in
  Trace.emit trace (Trace.Span_begin { label; n });
  let out, t =
    match chunk with
    | Some c when c >= 1 && c < n -> run_chunked ?domains ~chunk:c ~trace ~metrics p src
    | _ ->
      let msgs =
        maybe_time metrics "refnet_local_phase" (fun () ->
            local_phase_source ?domains ~trace ?metrics p src)
      in
      let out =
        maybe_time metrics "refnet_referee_phase" (fun () ->
            Protocol.run_referee ~trace ?metrics p.referee ~n msgs)
      in
      (out, transcript_of_messages msgs)
  in
  close_run ~trace ~metrics ~label ~budget:p.budget t;
  (out, t)

(* [src=<backend>] is appended outermost — outside [parts=] and the
   +sealed/+hardened suffixes — so backend-tagged runs stay
   distinguishable in [refnet report]; they audit under the protocol's
   own budget like their bare twins. *)
let source_label (p : 'a Protocol.t) src = Printf.sprintf "%s[src=%s]" p.name (Graph_source.backend src)

let observe_source metrics src =
  match metrics with
  | None -> ()
  | Some m ->
    Metrics.Counter.incr
      (Metrics.Counter.counter m
         (Metrics.series "refnet_source_runs_total" [ ("backend", Graph_source.backend src) ]))

let run ?domains ?(trace = Trace.null) ?metrics (p : 'a Protocol.t) g =
  run_core ?domains ~trace ~metrics ~label:p.name p (Graph_source.of_graph g)

let run_source ?domains ?chunk ?(trace = Trace.null) ?metrics (p : 'a Protocol.t) src =
  observe_source metrics src;
  run_core ?domains ?chunk ~trace ~metrics ~label:(source_label p src) p src

let run_faulty_core ?domains ~faults ~trace ~metrics ~label (p : 'a Protocol.t) src =
  (* Identical to [run_core]'s full-vector schedule up to and including
     the local phase; the fault plan then rewrites the delivery
     schedule.  Message {e production} is untouched — the transcript
     keeps measuring what nodes sent, so an empty plan is bit-identical
     to [run] (output, transcript and event stream) at any domain
     count.  Fault plans address the full vector, so this entry point
     does not chunk. *)
  let n = Graph_source.order src in
  Trace.emit trace (Trace.Span_begin { label; n });
  let msgs =
    maybe_time metrics "refnet_local_phase" (fun () ->
        local_phase_source ?domains ~trace ?metrics p src)
  in
  let deliveries, injected = Faults.apply faults msgs in
  (match metrics with
  | Some m when injected <> [] ->
    Metrics.Counter.add
      (Metrics.Counter.counter m "refnet_faults_injected_total")
      (List.length injected)
  | _ -> ());
  if not (Trace.is_null trace) then
    List.iter (fun (id, fault) -> Trace.emit trace (Trace.Fault_injected { id; fault })) injected;
  let out =
    maybe_time metrics "refnet_referee_phase" (fun () ->
        Protocol.feed_deliveries ~trace ?metrics p.referee ~n deliveries)
  in
  let t = { (transcript_of_messages msgs) with faulted_ids = List.map fst injected } in
  close_run ~trace ~metrics ~label ~budget:p.budget t;
  (out, t)

let run_faulty ?(faults = Faults.empty) ?domains ?(trace = Trace.null) ?metrics
    (p : 'a Protocol.t) g =
  run_faulty_core ?domains ~faults ~trace ~metrics ~label:p.name p (Graph_source.of_graph g)

let run_faulty_source ?(faults = Faults.empty) ?domains ?(trace = Trace.null) ?metrics
    (p : 'a Protocol.t) src =
  observe_source metrics src;
  run_faulty_core ?domains ~faults ~trace ~metrics ~label:(source_label p src) p src

let shuffle rng a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let run_async_core ?rng ?domains ~trace ~metrics ~label (p : 'a Protocol.t) src =
  let rng = match rng with Some r -> r | None -> Random.State.make [| 0x5eed |] in
  let n = Graph_source.order src in
  Trace.emit trace (Trace.Span_begin { label; n });
  let order = Array.init n (fun i -> i + 1) in
  shuffle rng order;
  (* Compute in scheduling order (now also interleaved across domains),
     deliver in yet another order: the streaming referee absorbs each
     message as it arrives, and its output must not depend on arrival
     order (one message per node, sender identified). *)
  let inbox = Array.make n None in
  let views = Array.make n None in
  maybe_time metrics "refnet_local_phase" (fun () ->
      Parallel.iter_range ?domains ?metrics n (fun i ->
          let id = order.(i) in
          let v = view_of src ~n (id - 1) in
          views.(id - 1) <- Some v;
          inbox.(id - 1) <- Some (p.local v)));
  let msgs = Array.map (function Some m -> m | None -> assert false) inbox in (* lint: allow referee-totality -- every slot was filled by the local phase above *)
  let views = Array.map (function Some v -> v | None -> assert false) views in (* lint: allow referee-totality -- every slot was filled by the local phase above *)
  if not (Trace.is_null trace) then emit_node_events trace views msgs;
  observe_local metrics views msgs;
  let arrival = Array.init n (fun i -> i + 1) in
  shuffle rng arrival;
  let deliveries = Array.to_list (Array.map (fun id -> (id, msgs.(id - 1))) arrival) in
  let out =
    maybe_time metrics "refnet_referee_phase" (fun () ->
        Protocol.feed_deliveries ~trace ?metrics p.referee ~n deliveries)
  in
  let t = transcript_of_messages msgs in
  close_run ~trace ~metrics ~label ~budget:p.budget t;
  (out, t)

let run_async ?rng ?domains ?(trace = Trace.null) ?metrics (p : 'a Protocol.t) g =
  run_async_core ?rng ?domains ~trace ~metrics ~label:p.name p (Graph_source.of_graph g)

let run_async_source ?rng ?domains ?(trace = Trace.null) ?metrics (p : 'a Protocol.t) src =
  observe_source metrics src;
  run_async_core ?rng ?domains ~trace ~metrics ~label:(source_label p src) p src

let ceil_log2 n =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  max 1 (go 0 n)

let is_frugal t ~c = t.max_bits <= c * ceil_log2 t.n

let frugality_ratio t =
  if t.n = 0 then 0.0 else float_of_int t.max_bits /. float_of_int (ceil_log2 t.n)

let pp_transcript fmt t =
  Format.fprintf fmt "n=%d max=%d bits total=%d bits (%.2f x log n)" t.n t.max_bits
    t.total_bits (frugality_ratio t);
  match t.faulted_ids with
  | [] -> ()
  | ids -> Format.fprintf fmt " faults=%d" (List.length ids)
