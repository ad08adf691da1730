open Refnet_graph

let square_oracle : bool Protocol.t =
  Protocol.rename "square-oracle"
    (Protocol.map_output Cycles.has_square Bounded_degree.full_information)

let diameter3_oracle : bool Protocol.t =
  Protocol.rename "diameter<=3-oracle"
    (Protocol.map_output (fun g -> Distance.diameter_at_most g 3) Bounded_degree.full_information)

let triangle_oracle : bool Protocol.t =
  Protocol.rename "triangle-oracle"
    (Protocol.map_output Cycles.has_triangle Bounded_degree.full_information)

(* Every vertex pair of [1..n], (s, t) with s < t, in lexicographic
   order — the iteration space of the referee's O(n^2) probe sweep. *)
let all_pairs n =
  let pairs = Array.make (n * (n - 1) / 2) (0, 0) in
  let idx = ref 0 in
  for s = 1 to n do
    for t = s + 1 to n do
      pairs.(!idx) <- (s, t);
      incr idx
    done
  done;
  pairs

(* Rebuild a graph from one oracle run per vertex pair.  The probes are
   independent referee-side simulations of G'_{s,t}, so they fan out
   across the domain pool; verdicts land in a fixed slot per pair, and
   the builder replays them in lexicographic order, keeping the result
   identical to the sequential sweep. *)
let graph_of_probe ?metrics ~n probe =
  let pairs = all_pairs n in
  let verdicts = Parallel.map_array ?metrics (fun (s, t) -> probe s t) pairs in
  (* Probes are counted once per sweep, on the submitting domain; the
     workers never touch the registry. *)
  (match metrics with
  | Some m ->
    Metrics.Counter.add (Metrics.Counter.counter m "refnet_oracle_probes_total") (Array.length pairs)
  | None -> ());
  let b = Graph.Builder.create n in
  Array.iteri (fun i yes -> if yes then let s, t = pairs.(i) in Graph.Builder.add_edge b s t) verdicts;
  Graph.Builder.build b

(* The referee simulates the oracle's own (streaming) referee per probe:
   real nodes' recorded Γ-messages are fed first, then the fictitious
   vertices' messages are fabricated and fed on the fly — no per-pair
   message array of the gadget's size is ever materialized. *)
let oracle_view ~size ~id ~neighbors = View.make ~n:size ~id ~neighbors

let square ?metrics (oracle : bool Protocol.t) : Graph.t Protocol.t =
  let local v =
    let n = View.n v in
    let id = View.id v in
    (* Node id's neighbourhood in every G'_{s,t} is N(id) + its pendant —
       independent of s and t, so one Γ-message covers all pairs. *)
    oracle.local (oracle_view ~size:(2 * n) ~id ~neighbors:(View.neighbors v @ [ id + n ]))
  in
  let global ~n msgs =
    graph_of_probe ?metrics ~n (fun s t ->
        let size = 2 * n in
        let feed = ref (Protocol.start oracle.referee ~n:size) in
        for i = 1 to n do
          feed := Protocol.feed !feed ~id:i msgs.(i - 1)
        done;
        for j = n + 1 to size do
          feed :=
            Protocol.feed !feed ~id:j
              (oracle.local
                 (oracle_view ~size ~id:j ~neighbors:(Gadgets.square_fictitious ~n ~s ~t j)))
        done;
        Protocol.finish !feed)
  in
  {
    name = "delta-square[" ^ oracle.name ^ "]";
    local;
    referee = Protocol.batch global;
    budget = None;
  }

let diameter ?metrics (oracle : bool Protocol.t) : Graph.t Protocol.t =
  let local v =
    let n = View.n v in
    let id = View.id v in
    let neighbors = View.neighbors v in
    let size = n + 3 in
    (* m0: id keeps only the universal vertex; ms: id additionally sees
       n+1 (id plays s); mt: id additionally sees n+2 (id plays t). *)
    let m0 = oracle.local (oracle_view ~size ~id ~neighbors:(neighbors @ [ n + 3 ])) in
    let ms = oracle.local (oracle_view ~size ~id ~neighbors:(neighbors @ [ n + 1; n + 3 ])) in
    let mt = oracle.local (oracle_view ~size ~id ~neighbors:(neighbors @ [ n + 2; n + 3 ])) in
    Message.bundle [ m0; ms; mt ]
  in
  let global ~n msgs =
    let size = n + 3 in
    (* Parts are materialized as arrays once: [part] sits inside the
       O(n^2)-probe sweep below, where a per-lookup list walk compounds
       into quadratic referee work. *)
    let parts =
      Parallel.map_array ?metrics (fun m -> Array.of_list (Message.unbundle ~count:3 m)) msgs
    in
    let part i j = parts.(i - 1).(j) in
    graph_of_probe ?metrics ~n (fun s t ->
        let feed = ref (Protocol.start oracle.referee ~n:size) in
        for i = 1 to n do
          feed :=
            Protocol.feed !feed ~id:i
              (if i = s then part i 1 else if i = t then part i 2 else part i 0)
        done;
        for j = n + 1 to n + 3 do
          feed :=
            Protocol.feed !feed ~id:j
              (oracle.local
                 (oracle_view ~size ~id:j ~neighbors:(Gadgets.diameter_fictitious ~n ~s ~t j)))
        done;
        Protocol.finish !feed)
  in
  {
    name = "delta-diameter[" ^ oracle.name ^ "]";
    local;
    referee = Protocol.batch global;
    budget = None;
  }

let triangle ?metrics (oracle : bool Protocol.t) : Graph.t Protocol.t =
  let local v =
    let n = View.n v in
    let id = View.id v in
    let neighbors = View.neighbors v in
    let size = n + 1 in
    let plain = oracle.local (oracle_view ~size ~id ~neighbors) in
    let touched = oracle.local (oracle_view ~size ~id ~neighbors:(neighbors @ [ n + 1 ])) in
    Message.bundle [ plain; touched ]
  in
  let global ~n msgs =
    let size = n + 1 in
    let parts =
      Parallel.map_array ?metrics (fun m -> Array.of_list (Message.unbundle ~count:2 m)) msgs
    in
    let part i j = parts.(i - 1).(j) in
    graph_of_probe ?metrics ~n (fun s t ->
        let feed = ref (Protocol.start oracle.referee ~n:size) in
        for i = 1 to n do
          feed := Protocol.feed !feed ~id:i (if i = s || i = t then part i 1 else part i 0)
        done;
        feed :=
          Protocol.feed !feed ~id:(n + 1)
            (oracle.local
               (oracle_view ~size ~id:(n + 1)
                  ~neighbors:(Gadgets.triangle_fictitious ~n ~s ~t (n + 1))));
        Protocol.finish !feed)
  in
  {
    name = "delta-triangle[" ^ oracle.name ^ "]";
    local;
    referee = Protocol.batch global;
    budget = None;
  }
