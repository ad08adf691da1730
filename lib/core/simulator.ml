open Refnet_graph

type transcript = {
  n : int;
  message_bits : int array;
  max_bits : int;
  total_bits : int;
  faulted_ids : int list;
}

type delivery = In_order | Faulty of Faults.plan | Shuffled of Random.State.t

type 'x producer = {
  produce : order:int array option -> base:int -> len:int -> 'x array;
  message : 'x -> Message.t;
  account : int -> 'x -> unit;
}

let query_total (c : View.counts) = c.id_reads + c.n_reads + c.deg_reads + c.neighbor_reads

let maybe_time metrics name f =
  match metrics with Some m -> Metrics.time m name f | None -> f ()

(* The epilogue of every run: run metrics, then the
   done event carrying the protocol's typed budget, then the span's
   close. *)
let close_run ~trace ~metrics ~label ~budget ~n ~max_bits ~total_bits =
  (match metrics with
  | None -> ()
  | Some m ->
    Metrics.Counter.incr (Metrics.Counter.counter m "refnet_runs_total");
    Metrics.Histogram.observe (Metrics.Histogram.histogram m "refnet_run_max_bits") max_bits;
    Metrics.Counter.add (Metrics.Counter.counter m "refnet_run_bits_total") total_bits);
  Trace.emit trace (Trace.Referee_done { label; n; max_bits; total_bits; budget });
  Trace.emit trace (Trace.Span_end { label; n })

(* The engine-side view constructor: one view record per node, backed
   directly by the source's neighbour slice — zero per-node copies for
   materialized/CSR backends, one fresh run for implicit ones. *)
let view_of src ~n i =
  let nbrs, off, len = Graph_source.neighbors_slice src (i + 1) in
  View.of_slice ~n ~id:(i + 1) nbrs ~off ~len

let in_parallel ?domains ?metrics f ~order ~base ~len =
  match order with
  | None -> Parallel.init ?domains ?metrics len (fun i -> f (base + i))
  | Some order ->
    (* Compute in the drawn order, interleaved across domains; every
       result still lands in its own node's slot. *)
    let out = Array.make len None in
    Parallel.iter_range ?domains ?metrics len (fun k ->
        let i = order.(k) in
        out.(i) <- Some (f i));
    (* lint: allow referee-totality -- [order] is a permutation, so every slot was filled *)
    Array.map (function Some x -> x | None -> assert false) out

(* A uniformly random permutation of [0 .. n-1]: [n - 1] draws. *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Produce a block in parallel, then account for it in identifier order
   on the submitting domain — so events, metrics and the transcript are
   bit-identical at any pool width. *)
let produce_block ~metrics e ~order ~base ~len =
  let xs = e.produce ~order ~base ~len in
  for i = 0 to len - 1 do
    e.account (base + i) xs.(i)
  done;
  (match metrics with
  | None -> ()
  | Some m ->
    Metrics.Counter.add (Metrics.Counter.counter m "refnet_messages_total") len;
    let bits = Metrics.Histogram.histogram m "refnet_message_bits" in
    Array.iter (fun x -> Metrics.Histogram.observe bits (Message.bits (e.message x))) xs);
  xs

let uplink ?chunk ~delivery ~trace ~metrics ~sample_absorbs ~n e ~absorb =
  let block =
    match (chunk, delivery) with
    | Some c, _ when c < 1 ->
      invalid_arg (Printf.sprintf "Simulator.uplink: field chunk is %d, must be at least 1" c)
    | Some c, In_order -> min c n
    | _ -> n
  in
  (* Absorb latency is sampled (every 64th absorb) rather than clocked
     per message: two clock reads per absorb would dominate the
     referees' O(1) per-message work and defeat the <5%-overhead budget
     the metrics microbench asserts. *)
  let sampler =
    match metrics with
    | Some m when sample_absorbs && block = n ->
      Some (m, Metrics.Histogram.histogram m "refnet_absorb_ns")
    | _ -> None
  in
  let order = match delivery with Shuffled rng -> Some (permutation rng n) | _ -> None in
  let faulted = ref [] in
  (* At least one block, so an empty network still opens and closes its
     phases. *)
  let rec blocks b =
    let len = min block (n - b) in
    let xs =
      maybe_time metrics "refnet_local_phase" (fun () ->
          produce_block ~metrics e ~order ~base:b ~len)
    in
    let absorbed = ref 0 in
    let deliver id msg =
      (match sampler with
      | Some (m, h) when !absorbed land 63 = 0 ->
        let t0 = Metrics.now m in
        absorb ~id msg;
        Metrics.Histogram.observe h (max 0 (int_of_float ((Metrics.now m -. t0) *. 1e9)))
      | _ -> absorb ~id msg);
      incr absorbed;
      if not (Trace.is_null trace) then
        Trace.emit trace (Trace.Referee_absorb { id; bits = Message.bits msg })
    in
    maybe_time metrics "refnet_referee_phase" (fun () ->
        match delivery with
        | In_order ->
          for i = 0 to len - 1 do
            deliver (b + i + 1) (e.message xs.(i))
          done
        | Shuffled rng ->
          Array.iter (fun i -> deliver (i + 1) (e.message xs.(i))) (permutation rng n)
        | Faulty plan ->
          let deliveries, injected = Faults.apply plan (Array.map e.message xs) in
          (match metrics with
          | Some m when injected <> [] ->
            Metrics.Counter.add
              (Metrics.Counter.counter m "refnet_faults_injected_total")
              (List.length injected)
          | _ -> ());
          if not (Trace.is_null trace) then
            List.iter
              (fun (id, fault) -> Trace.emit trace (Trace.Fault_injected { id; fault }))
              injected;
          faulted := List.map fst injected;
          List.iter (fun (id, msg) -> deliver id msg) deliveries);
    (match metrics with
    | Some m -> Metrics.Counter.add (Metrics.Counter.counter m "refnet_absorbs_total") !absorbed
    | None -> ());
    if b + len < n then blocks (b + len)
  in
  blocks 0;
  !faulted

(* The one-round engine's side of the round: each node's view, and —
   when tracing or metrics are on — its [Node_local] event and query
   count.  The quiet producer keeps no views. *)
let nodes ?domains ~trace ~metrics (p : 'a Protocol.t) src =
  let n = Graph_source.order src in
  let quiet = Trace.is_null trace && metrics = None in
  (* The block's views outlive its parallel section, so their audit
     tallies can be reported after it. *)
  let views = ref [||] and first = ref 0 in
  let queries =
    Option.map (fun m -> Metrics.Histogram.histogram m "refnet_view_queries") metrics
  in
  {
    produce =
      (fun ~order ~base ~len ->
        if quiet then in_parallel ?domains (fun i -> p.local (view_of src ~n i)) ~order ~base ~len
        else begin
          let vs = Array.init len (fun i -> view_of src ~n (base + i)) in
          views := vs;
          first := base;
          in_parallel ?domains ?metrics (fun i -> p.local vs.(i - base)) ~order ~base ~len
        end);
    message = Fun.id;
    account =
      (fun i msg ->
        if not quiet then begin
          let q = View.audit !views.(i - !first) in
          if not (Trace.is_null trace) then
            Trace.emit trace
              (Trace.Node_local { id = i + 1; bits = Message.bits msg; queries = q });
          Option.iter (fun h -> Metrics.Histogram.observe h (query_total q)) queries
        end);
  }

let local_phase_source ?domains ?(trace = Trace.null) ?metrics (p : 'a Protocol.t) src =
  (* The model makes this phase embarrassingly parallel: each node's
     message depends only on its view.  The engine is the only place
     views of real nodes are built; messages land in their slot by
     identifier, so the vector — and hence the transcript — is
     bit-identical to a sequential run at any domain count and over any
     backend presenting the same labelled graph. *)
  produce_block ~metrics (nodes ?domains ~trace ~metrics p src) ~order:None ~base:0
    ~len:(Graph_source.order src)

let local_phase ?domains ?trace ?metrics p g =
  local_phase_source ?domains ?trace ?metrics p (Graph_source.of_graph g)

let referee_round ?chunk ~delivery ~trace ~metrics (Protocol.Referee s) ~n e =
  let message_bits = Array.make n 0 in
  let st = ref (s.init ~n) in
  let account i x =
    message_bits.(i) <- Message.bits (e.message x);
    e.account i x
  in
  let faulted_ids =
    uplink ?chunk ~delivery ~trace ~metrics ~sample_absorbs:true ~n { e with account }
      ~absorb:(fun ~id msg -> st := s.absorb ~n !st ~id msg)
  in
  ( s.finish ~n !st,
    {
      n;
      message_bits;
      max_bits = Array.fold_left max 0 message_bits;
      total_bits = Array.fold_left ( + ) 0 message_bits;
      faulted_ids;
    } )

let run_core ?domains ?chunk ~delivery ~trace ~metrics ~label (p : 'a Protocol.t) src =
  let n = Graph_source.order src in
  Trace.emit trace (Trace.Span_begin { label; n });
  let out, t =
    referee_round ?chunk ~delivery ~trace ~metrics p.referee ~n
      (nodes ?domains ~trace ~metrics p src)
  in
  close_run ~trace ~metrics ~label ~budget:p.budget ~n ~max_bits:t.max_bits
    ~total_bits:t.total_bits;
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

let run ?domains ?(delivery = In_order) ?(trace = Trace.null) ?metrics (p : 'a Protocol.t) g =
  run_core ?domains ~delivery ~trace ~metrics ~label:p.name p (Graph_source.of_graph g)

let run_source ?domains ?chunk ?(delivery = In_order) ?(trace = Trace.null) ?metrics
    (p : 'a Protocol.t) src =
  observe_source metrics src;
  run_core ?domains ?chunk ~delivery ~trace ~metrics ~label:(source_label p src) p src

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
