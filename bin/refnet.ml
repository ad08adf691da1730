(* refnet — command-line front end for the referee-model library.

   Subcommands:
     generate      emit a graph from a named family (edge list or graph6)
     reconstruct   run the degeneracy / forest protocol on a graph
     recognize     decide degeneracy <= k in one round
     gadget        build the Theorem 1/2/3 gadgets for a vertex pair
     count         Lemma 1 family counting and budgets
     sizes         message-size tables for the protocols
     stats         structural parameters of a graph
     search        exhaustive protocol-existence search at tiny n
     connectivity  coalition connectivity audit
     serve         always-on referee daemon (sessions over TCP/Unix sockets) *)

open Cmdliner
open Refnet_graph

(* ---------- shared converters and helpers ---------- *)

let read_graph path =
  let ic = open_in path in
  (* Close the channel even when reading or parsing raises. *)
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      let s = String.trim s in
      if
        String.length s > 0
        && (s.[0] = '~' || not (String.contains s '\n'))
        && not (String.contains s ' ')
      then Gio.of_graph6 s
      else Gio.of_edge_list s)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Write a JSONL execution trace to $(docv).")

(* Runs [f] with a JSONL sink on the given file, or the null sink.  The
   channel is closed on normal return; commands that [exit] inside [f]
   still get their buffers flushed by [Stdlib.exit] (and the sink itself
   flushes after every Referee_done — see trace.mli). *)
let with_trace path f =
  match path with
  | None -> f Core.Trace.null
  | Some file ->
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f (Core.Trace.jsonl oc))

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record a metrics snapshot of the run into $(docv): Prometheus text exposition if the \
           name ends in .prom, canonical JSON otherwise.")

(* Combines the trace sink with an optional metrics registry.  Several
   subcommands [exit] with a verdict code from inside [f], which skips
   Fun.protect's finalizer — the at_exit hook makes sure the snapshot
   still lands on disk on those paths (exactly once). *)
let with_observability trace metrics_file f =
  match metrics_file with
  | None -> with_trace trace (fun sink -> f sink None)
  | Some file ->
    let m = Core.Metrics.create () in
    let written = ref false in
    let flush_metrics () =
      if not !written then begin
        written := true;
        Core.Metrics.write_file m file
      end
    in
    at_exit flush_metrics;
    Fun.protect ~finally:flush_metrics (fun () -> with_trace trace (fun sink -> f sink (Some m)))

let write_graph fmt g =
  match fmt with
  | `Edges -> print_string (Gio.to_edge_list g)
  | `Graph6 -> print_endline (Gio.to_graph6 g)
  | `Dot -> print_string (Gio.to_dot g)

let fmt_conv = Arg.enum [ ("edges", `Edges); ("graph6", `Graph6); ("dot", `Dot) ]

let fmt_arg =
  Arg.(value & opt fmt_conv `Edges & info [ "f"; "format" ] ~docv:"FMT" ~doc:"Output format: edges, graph6 or dot.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let graph_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc:"Graph file (edge list or graph6).")

let k_arg =
  Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"Degeneracy budget.")

let source_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "source" ] ~docv:"SRC"
        ~doc:
          "Graph backend: $(b,materialized), $(b,csr) (both wrap the GRAPH file), or \
           $(b,implicit:<family-spec>) — e.g. implicit:path:100000 or implicit:regular:1000:4:7 \
           — which needs no file at all.  Engine runs record the backend in their span and \
           metrics labels as a [src=...] decoration.")

(* Resolves [--source] against an optional graph file: [materialized]
   and [csr] wrap the file's graph, [implicit:...] stands alone.
   Without [--source], the file (when given) is the materialized
   backend. *)
let resolve_source source g =
  match (source, g) with
  | None, Some g -> Some (Graph_source.of_graph g)
  | None, None -> None
  | Some spec, g -> Some (Graph_source.parse ?graph:g spec)

(* ---------- generate ---------- *)

let family_conv =
  Arg.enum
    [
      ("path", `Path); ("cycle", `Cycle); ("complete", `Complete); ("star", `Star);
      ("wheel", `Wheel); ("grid", `Grid); ("torus", `Torus); ("hypercube", `Hypercube);
      ("petersen", `Petersen); ("tree", `Tree); ("forest", `Forest);
      ("k-tree", `Ktree); ("apollonian", `Apollonian); ("outerplanar", `Outerplanar);
      ("gnp", `Gnp); ("bipartite", `Bipartite); ("k-degenerate", `Kdeg);
    ]

let generate family n k p seed fmt =
  let rng = Random.State.make [| seed |] in
  let g =
    match family with
    | `Path -> Generators.path n
    | `Cycle -> Generators.cycle n
    | `Complete -> Generators.complete n
    | `Star -> Generators.star n
    | `Wheel -> Generators.wheel n
    | `Grid ->
      let side = int_of_float (sqrt (float_of_int n)) in
      Generators.grid side (max 1 ((n + side - 1) / side))
    | `Torus ->
      let side = max 3 (int_of_float (sqrt (float_of_int n))) in
      Generators.torus side side
    | `Hypercube ->
      let rec dim d = if 1 lsl d >= n then d else dim (d + 1) in
      Generators.hypercube (dim 0)
    | `Petersen -> Generators.petersen ()
    | `Tree -> Generators.random_tree rng n
    | `Forest -> Generators.random_forest rng n ~trees:(max 1 (n / 20))
    | `Ktree -> Generators.random_k_tree rng n ~k
    | `Apollonian -> Generators.random_apollonian rng n
    | `Outerplanar -> Generators.random_maximal_outerplanar rng n
    | `Gnp -> Generators.gnp rng n p
    | `Bipartite -> Generators.random_bipartite rng ~left:(n / 2) ~right:(n - (n / 2)) p
    | `Kdeg -> Generators.random_k_degenerate rng n ~k
  in
  write_graph fmt g

let generate_cmd =
  let family =
    Arg.(required & pos 0 (some family_conv) None & info [] ~docv:"FAMILY" ~doc:"Graph family.")
  in
  let n = Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Number of vertices.") in
  let p = Arg.(value & opt float 0.3 & info [ "p" ] ~docv:"P" ~doc:"Edge probability.") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a graph from a named family")
    Term.(const generate $ family $ n $ k_arg $ p $ seed_arg $ fmt_arg)

(* ---------- reconstruct ---------- *)

let reconstruct path k forest trace metrics fmt =
  let g = read_graph path in
  let n = Graph.order g in
  let run p =
    with_observability trace metrics (fun sink m -> Core.Simulator.run ~trace:sink ?metrics:m p g)
  in
  if forest then begin
    match run Core.Forest_protocol.reconstruct with
    | Some h, t ->
      Printf.eprintf "forest protocol: %d bits/node, exact=%b\n%!" t.Core.Simulator.max_bits
        (Graph.equal g h);
      write_graph fmt h
    | None, _ ->
      prerr_endline "forest protocol: rejected (graph has a cycle)";
      exit 1
  end
  else begin
    match run (Core.Degeneracy_protocol.reconstruct ~k ()) with
    | Some h, t ->
      Printf.eprintf "degeneracy-%d protocol: %d bits/node (bound %d), exact=%b\n%!" k
        t.Core.Simulator.max_bits
        (Core.Degeneracy_protocol.message_bits ~k n)
        (Graph.equal g h);
      write_graph fmt h
    | None, _ ->
      Printf.eprintf "degeneracy-%d protocol: rejected (degeneracy(G) = %d > %d)\n%!" k
        (Degeneracy.degeneracy g) k;
      exit 1
  end

let reconstruct_cmd =
  let forest =
    Arg.(value & flag & info [ "forest" ] ~doc:"Use the forest (Section III.A) protocol.")
  in
  Cmd.v
    (Cmd.info "reconstruct" ~doc:"Reconstruct a graph at the referee in one frugal round")
    Term.(const reconstruct $ graph_file_arg $ k_arg $ forest $ trace_arg $ metrics_arg $ fmt_arg)

(* ---------- recognize ---------- *)

let recognize path k generalized trace metrics =
  let g = read_graph path in
  let protocol =
    if generalized then Core.Generalized_degeneracy.recognize k
    else Core.Recognition.degeneracy_at_most k
  in
  let verdict, t =
    with_observability trace metrics (fun sink m ->
        Core.Simulator.run ~trace:sink ?metrics:m protocol g)
  in
  Printf.printf "%s degeneracy <= %d : %b   (%d bits/node; true %s = %d)\n"
    (if generalized then "generalized" else "plain")
    k verdict t.Core.Simulator.max_bits
    (if generalized then "generalized degeneracy" else "degeneracy")
    (if generalized then Degeneracy.generalized_degeneracy g else Degeneracy.degeneracy g);
  exit (if verdict then 0 else 1)

let recognize_cmd =
  let generalized =
    Arg.(value & flag & info [ "generalized" ] ~doc:"Use the generalized-degeneracy protocol.")
  in
  Cmd.v
    (Cmd.info "recognize" ~doc:"Decide degeneracy <= k in one round")
    Term.(const recognize $ graph_file_arg $ k_arg $ generalized $ trace_arg $ metrics_arg)

(* ---------- gadget ---------- *)

let gadget_kind_conv =
  Arg.enum [ ("square", `Square); ("diameter", `Diameter); ("triangle", `Triangle) ]

let gadget path kind s t fmt =
  let g = read_graph path in
  let g' =
    match kind with
    | `Square -> Core.Gadgets.square g s t
    | `Diameter -> Core.Gadgets.diameter g s t
    | `Triangle -> Core.Gadgets.triangle g s t
  in
  let verdict =
    match kind with
    | `Square -> Cycles.has_square g'
    | `Diameter -> Distance.diameter_at_most g' 3
    | `Triangle -> Cycles.has_triangle g'
  in
  Printf.eprintf "gadget property holds: %b   edge {%d,%d} present: %b\n%!" verdict s t
    (Graph.has_edge g s t);
  write_graph fmt g'

let gadget_cmd =
  let kind =
    Arg.(required & pos 1 (some gadget_kind_conv) None & info [] ~docv:"KIND"
           ~doc:"square, diameter or triangle.")
  in
  let s = Arg.(required & pos 2 (some int) None & info [] ~docv:"S" ~doc:"First vertex.") in
  let t = Arg.(required & pos 3 (some int) None & info [] ~docv:"T" ~doc:"Second vertex.") in
  Cmd.v
    (Cmd.info "gadget" ~doc:"Build the G'_{s,t} gadget of Theorems 1-3")
    Term.(const gadget $ graph_file_arg $ kind $ s $ t $ fmt_arg)

(* ---------- count ---------- *)

let count max_n c =
  Printf.printf "%4s %16s %16s %8s\n" "n" "log2 g(n)" "budget" "fits";
  print_endline "family: square-free (exhaustive enumeration)";
  for n = 1 to min max_n 7 do
    let lg = Core.Counting.log2_family_size Core.Counting.Square_free n in
    let b = Core.Counting.budget ~c n in
    Printf.printf "%4d %16.1f %16.1f %8s\n" n lg b (if lg <= b then "yes" else "NO")
  done;
  List.iter
    (fun (name, fam) ->
      match Core.Counting.crossover ~c fam ~max_n with
      | Some n -> Printf.printf "family %s: crossover at n = %d (c = %d)\n" name n c
      | None -> Printf.printf "family %s: no crossover up to n = %d\n" name max_n)
    [ ("all-graphs", Core.Counting.All_graphs); ("bipartite", Core.Counting.Bipartite_fixed_halves) ]

let count_cmd =
  let max_n = Arg.(value & opt int 256 & info [ "max-n" ] ~docv:"N" ~doc:"Search limit.") in
  let c = Arg.(value & opt int 4 & info [ "c" ] ~docv:"C" ~doc:"Frugality constant.") in
  Cmd.v
    (Cmd.info "count" ~doc:"Lemma 1 counting: family sizes vs the frugal budget")
    Term.(const count $ max_n $ c)

(* ---------- sizes ---------- *)

let sizes n graph source trace metrics =
  let g = Option.map read_graph graph in
  let src = resolve_source source g in
  let n = match src with Some s -> Graph_source.order s | None -> n in
  Printf.printf "message sizes at n = %d (id width %d bits):\n" n (Core.Bounds.id_bits n);
  Printf.printf "  forest protocol          : %4d bits\n" (Core.Bounds.forest_message_bits n);
  List.iter
    (fun k ->
      Printf.printf "  degeneracy protocol k=%-2d : %4d bits   generalized: %4d bits\n" k
        (Core.Bounds.degeneracy_message_bits ~k n)
        (Core.Bounds.generalized_message_bits ~k n))
    [ 1; 2; 3; 5; 8 ];
  List.iter
    (fun d ->
      Printf.printf "  bounded-degree (d=%-2d)    : %4d bits\n" d
        (Core.Bounded_degree.message_bits ~max_degree:d n))
    [ 2; 4; 8 ];
  (* With a concrete graph (file or implicit spec), confront the closed
     forms with measured transcripts (and exercise the trace sink on
     real runs). *)
  match src with
  | None -> ()
  | Some src ->
    with_observability trace metrics (fun sink m ->
        let run p = Core.Simulator.run_source ~trace:sink ?metrics:m p src in
        let is_forest, tf = run Core.Forest_protocol.recognize in
        Printf.printf "measured on %s (n = %d, m = %d, backend %s):\n"
          (match graph with Some path -> path | None -> Graph_source.describe src)
          n (Graph_source.size src) (Graph_source.backend src);
        Printf.printf "  forest protocol          : %4d bits/node (is forest: %b)\n"
          tf.Core.Simulator.max_bits is_forest;
        (* The true degeneracy needs the materialized graph; backend-only
           sources fall back to the recognition threshold k = 2. *)
        let k = match g with Some g -> max 1 (Degeneracy.degeneracy g) | None -> 2 in
        let ok, td = run (Core.Recognition.degeneracy_at_most k) in
        Printf.printf "  degeneracy protocol k=%-2d : %4d bits/node (accepted: %b)\n" k
          td.Core.Simulator.max_bits ok)

let sizes_cmd =
  let n = Arg.(value & opt int 1024 & info [ "n" ] ~docv:"N" ~doc:"Network size.") in
  let graph =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH"
          ~doc:"Optional graph file: also run the protocols and report measured sizes.")
  in
  Cmd.v
    (Cmd.info "sizes" ~doc:"Closed-form message-size tables")
    Term.(const sizes $ n $ graph $ source_arg $ trace_arg $ metrics_arg)

(* ---------- connectivity ---------- *)

let connectivity path parts trace metrics =
  let g = read_graph path in
  let n = Graph.order g in
  let partition = Core.Coalition.partition_by_ranges ~n ~parts in
  let verdict, t =
    with_observability trace metrics (fun sink m ->
        Core.Coalition.run ~trace:sink ?metrics:m Core.Connectivity_parts.decide g
          ~parts:partition)
  in
  Printf.printf "connected: %b   (coalitions: %d, max %d bits/node, bound %d)\n" verdict parts
    t.Core.Simulator.max_bits
    (Core.Connectivity_parts.per_node_bound ~n ~parts);
  exit (if verdict then 0 else 1)

(* ---------- faults ---------- *)

let fault_proto_conv =
  Arg.enum
    [
      ("forest", `Forest); ("degeneracy", `Degeneracy); ("bounded", `Bounded);
      ("sketch", `Sketch); ("connectivity", `Connectivity);
    ]

let faults path proto k parts seed crash truncate flip flip_bits duplicate spoof source trace
    metrics =
  let g = Option.map read_graph path in
  let src =
    match resolve_source source g with
    | Some src -> src
    | None -> invalid_arg "faults: provide a GRAPH file or --source implicit:<family-spec>"
  in
  let n = Graph_source.order src in
  let plan = Core.Faults.random ~seed ~n ~crash ~truncate ~flip ~flip_bits ~duplicate ~spoof () in
  Format.printf "fault plan: %a@." Core.Faults.pp plan;
  let report pp_payload (verdict, t) =
    Format.printf "verdict: %a@." (Core.Verdict.pp pp_payload) verdict;
    Format.printf "transcript: %a@." Core.Simulator.pp_transcript t;
    exit (match verdict with Core.Verdict.Inconclusive _ -> 1 | _ -> 0)
  in
  let pp_graph fmt = function
    | Some h -> Format.fprintf fmt "graph(n=%d, m=%d)" (Graph.order h) (Graph.size h)
    | None -> Format.pp_print_string fmt "rejected"
  in
  let delivery = Core.Simulator.Faulty plan in
  with_observability trace metrics (fun sink m ->
      let run p = Core.Simulator.run_source ~delivery ~trace:sink ?metrics:m p src in
      match proto with
      | `Forest -> report pp_graph (run Core.Forest_protocol.hardened)
      | `Degeneracy -> report pp_graph (run (Core.Degeneracy_protocol.hardened ~k ()))
      | `Bounded -> report pp_graph (run (Core.Bounded_degree.hardened ~max_degree:k))
      | `Sketch -> report Format.pp_print_bool (run (Core.Sketch_connectivity.hardened ~seed ()))
      | `Connectivity ->
        let partition = Core.Coalition.partition_by_ranges ~n ~parts in
        report Format.pp_print_bool
          (Core.Coalition.run_source ~delivery ~trace:sink ?metrics:m
             Core.Connectivity_parts.hardened src ~parts:partition))

let faults_cmd =
  let proto =
    Arg.(
      value
      & opt fault_proto_conv `Forest
      & info [ "protocol" ] ~docv:"P"
          ~doc:"Hardened protocol: forest, degeneracy, bounded, sketch or connectivity.")
  in
  let parts = Arg.(value & opt int 4 & info [ "parts" ] ~docv:"K" ~doc:"Coalition count.") in
  let rate name doc =
    Arg.(value & opt float 0. & info [ name ] ~docv:"P" ~doc)
  in
  let crash = rate "crash" "Per-node crash (message loss) probability." in
  let truncate = rate "truncate" "Per-node truncation probability." in
  let flip = rate "flip" "Per-node bit-flip probability." in
  let flip_bits =
    Arg.(value & opt int 1 & info [ "flip-bits" ] ~docv:"B" ~doc:"Bits flipped per hit message.")
  in
  let duplicate = rate "duplicate" "Per-node duplicate-delivery probability." in
  let spoof = rate "spoof" "Per-node sender-spoofing probability." in
  let graph =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH"
          ~doc:"Graph file (edge list or graph6); optional when --source is implicit.")
  in
  Cmd.v
    (Cmd.info "faults" ~doc:"Run a hardened protocol under a seeded fault-injection campaign")
    Term.(
      const faults $ graph $ proto $ k_arg $ parts $ seed_arg $ crash $ truncate $ flip
      $ flip_bits $ duplicate $ spoof $ source_arg $ trace_arg $ metrics_arg)

(* ---------- bcc ---------- *)

(* Multi-round runs over the broadcast congested clique engine.  The
   default protocol is the deterministic connectivity of
   Bcc_connectivity (O(1) rounds, O(log n) bits per round — the regime
   the one-round model cannot reach); [--adaptive] runs the two-round
   adaptive degeneracy reconstruction instead.  A size-free implicit
   spec ([--source implicit:cycle]) is instantiated at [-n]. *)

let pp_bcc_transcript src (t : Core.Bcc.transcript) =
  Printf.printf "source: %s   n=%d\n" (Graph_source.describe src) (Graph_source.order src);
  Printf.printf "rounds: %d   budget: %s bits per message\n" t.Core.Bcc.rounds
    (if t.Core.Bcc.bits_limit = max_int then "unbounded"
     else string_of_int t.Core.Bcc.bits_limit);
  Array.iteri
    (fun i mx ->
      let bcast =
        if i < Array.length t.Core.Bcc.broadcast_bits then
          Printf.sprintf "   broadcast %d bits" t.Core.Bcc.broadcast_bits.(i)
        else ""
      in
      Printf.printf "  round %d: max %d bits   total %d bits%s\n" (i + 1) mx
        t.Core.Bcc.per_round_total_bits.(i) bcast)
    t.Core.Bcc.per_round_max_bits;
  Printf.printf "total: %d bits uplink, max message %d bits\n" t.Core.Bcc.total_bits
    t.Core.Bcc.max_bits

let bcc path source n_default rounds bandwidth adaptive chunk crash truncate seed trace metrics =
  let g = Option.map read_graph path in
  let src =
    match (source, g) with
    | None, None -> invalid_arg "bcc: provide a GRAPH file or --source implicit:<family-spec>"
    | None, Some g -> Graph_source.of_graph g
    | Some spec, g -> (
      try Graph_source.parse ?graph:g spec
      with Invalid_argument _ when g = None ->
        (* A size-free family spec: instantiate it at the requested n. *)
        Graph_source.of_implicit (Implicit.parse_family spec n_default))
  in
  let n = Graph_source.order src in
  let rounds =
    match rounds with
    | Some r -> r
    | None ->
      let max_degree = ref 0 in
      for v = 1 to n do
        max_degree := max !max_degree (Graph_source.degree src v)
      done;
      Core.Bcc_connectivity.rounds_for ~bandwidth ~max_degree:!max_degree
  in
  with_observability trace metrics (fun sink m ->
      if adaptive then begin
        let h, t =
          Core.Bcc.run_source ?chunk ~trace:sink ?metrics:m
            (Core.Bcc.Adaptive_degeneracy.protocol ())
            src
        in
        pp_bcc_transcript src t;
        match h with
        | Some h ->
          Printf.printf "reconstructed: n=%d m=%d\n" (Graph.order h) (Graph.size h);
          exit 0
        | None ->
          print_endline "reconstructed: rejected";
          exit 1
      end
      else if crash = 0. && truncate = 0. then begin
        let verdict, t =
          Core.Bcc.run_source ?chunk ~trace:sink ?metrics:m
            (Core.Bcc_connectivity.protocol ~rounds ~bandwidth ())
            src
        in
        pp_bcc_transcript src t;
        match verdict with
        | Some true ->
          print_endline "connectivity: connected";
          exit 0
        | Some false ->
          print_endline "connectivity: disconnected";
          exit 1
        | None ->
          Printf.printf "connectivity: undecided after %d rounds (raise --rounds)\n" rounds;
          exit 1
      end
      else begin
        let plan = Core.Faults.random ~seed ~n ~crash ~truncate () in
        Format.printf "fault plan: %a@." Core.Faults.pp plan;
        let verdict, t =
          Core.Bcc.run_source ?chunk ~delivery:(Core.Simulator.Faulty plan) ~trace:sink
            ?metrics:m
            (Core.Bcc_connectivity.hardened ~rounds ~bandwidth ())
            src
        in
        pp_bcc_transcript src t;
        Format.printf "verdict: %a@."
          (Core.Verdict.pp (fun fmt v ->
               Format.pp_print_string fmt
                 (match v with
                 | Some true -> "connected"
                 | Some false -> "disconnected"
                 | None -> "undecided")))
          verdict;
        exit (match verdict with Core.Verdict.Inconclusive _ -> 1 | _ -> 0)
      end)

let bcc_cmd =
  let graph =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH"
          ~doc:"Graph file (edge list or graph6); optional when --source is implicit.")
  in
  let n =
    Arg.(
      value
      & opt int 512
      & info [ "n" ] ~docv:"N" ~doc:"Size used to instantiate a size-free implicit family spec.")
  in
  let rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Round budget (default: enough to decide either way at the given bandwidth).")
  in
  let bandwidth =
    Arg.(
      value
      & opt int 2
      & info [ "bandwidth" ] ~docv:"C" ~doc:"Per-round budget in units of id_bits n.")
  in
  let adaptive =
    Arg.(
      value
      & flag
      & info [ "adaptive" ]
          ~doc:"Run the two-round adaptive degeneracy reconstruction instead of connectivity.")
  in
  let chunk =
    Arg.(
      value
      & opt (some int) None
      & info [ "chunk" ] ~docv:"K" ~doc:"Stream the referee feed in chunks of $(docv) messages.")
  in
  let rate doc_name doc = Arg.(value & opt float 0. & info [ doc_name ] ~docv:"P" ~doc) in
  let crash = rate "crash" "Per-node crash probability (switches to the hardened protocol)." in
  let truncate = rate "truncate" "Per-node truncation probability (hardened protocol)." in
  Cmd.v
    (Cmd.info "bcc" ~doc:"Run a broadcast-congested-clique protocol under a round/bit budget")
    Term.(
      const bcc $ graph $ source_arg $ n $ rounds $ bandwidth $ adaptive $ chunk $ crash
      $ truncate $ seed_arg $ trace_arg $ metrics_arg)

(* ---------- sweep ---------- *)

(* One traced run of every flagship protocol per size: the trace feeds
   [refnet report]'s bound audit, the metrics file a live snapshot.
   Graphs are seeded per (seed, n), so a sweep is reproducible.

   [--source materialized|csr] routes the same generated graphs through
   the chosen backend (transcripts are bit-identical; only the [src=]
   label differs).  [--source implicit:<family>] takes a size-free
   family spec instead — the family is instantiated at each sweep size
   without ever materializing, so sizes beyond the incidence-matrix
   wall (n = 10^6+) are in reach; reconstruction protocols need a known
   graph class, so the implicit sweep runs the recognition ones. *)
let sweep sizes seed k parts source chunk trace metrics =
  with_observability trace metrics (fun sink m ->
      let implicit_family =
        match source with
        | Some spec when spec <> "materialized" && spec <> "csr" ->
          Some (fun n -> Implicit.parse_family spec n)
        | _ -> None
      in
      List.iter
        (fun n ->
          match implicit_family with
          | Some fam ->
            let src = Graph_source.of_implicit (fam n) in
            let run p =
              ignore (Core.Simulator.run_source ?chunk ~trace:sink ?metrics:m p src)
            in
            run Core.Forest_protocol.recognize;
            (* The reconstructing degeneracy referee keeps an n^2-bit
               matrix and the sketch referee ~log^3 n bits per node:
               past these sizes only the O(n)-word referees run, which
               is what makes the million-node sweep fit in memory. *)
            let degeneracy_ok = n <= 20_000 and sketch_ok = n <= 200_000 in
            if degeneracy_ok then run (Core.Recognition.degeneracy_at_most k);
            if sketch_ok then run (Core.Sketch_connectivity.protocol ~seed ());
            let partition = Core.Coalition.partition_by_ranges ~n ~parts:(min parts n) in
            ignore
              (Core.Coalition.run_source ~trace:sink ?metrics:m Core.Connectivity_parts.decide
                 src ~parts:partition);
            Printf.printf "n=%7d: forest-recognize%s%s, coalition(%d parts) on %s done\n%!" n
              (if degeneracy_ok then Printf.sprintf ", degeneracy<=%d" k else "")
              (if sketch_ok then ", sketch" else "")
              (min parts n) (Graph_source.describe src)
          | None ->
            let rng = Random.State.make [| seed; n |] in
            let run p g =
              match source with
              | None -> ignore (Core.Simulator.run ~trace:sink ?metrics:m p g)
              | Some spec ->
                ignore
                  (Core.Simulator.run_source ?chunk ~trace:sink ?metrics:m p
                     (Graph_source.parse ~graph:g spec))
            in
            run Core.Forest_protocol.reconstruct (Generators.random_tree rng n);
            run
              (Core.Degeneracy_protocol.reconstruct ~k ())
              (Generators.random_k_degenerate rng n ~k);
            let side = max 2 (int_of_float (sqrt (float_of_int n))) in
            run (Core.Bounded_degree.reconstruct ~max_degree:4) (Generators.grid side side);
            let connected = Generators.random_connected rng n 0.15 in
            let partition = Core.Coalition.partition_by_ranges ~n ~parts:(min parts n) in
            (match source with
            | None ->
              ignore
                (Core.Coalition.run ~trace:sink ?metrics:m Core.Connectivity_parts.decide
                   connected ~parts:partition)
            | Some spec ->
              ignore
                (Core.Coalition.run_source ~trace:sink ?metrics:m Core.Connectivity_parts.decide
                   (Graph_source.parse ~graph:connected spec)
                   ~parts:partition));
            run (Core.Sketch_connectivity.protocol ~seed ()) connected;
            Printf.printf
              "n=%4d: forest, degeneracy-%d, bounded-degree-4, coalition(%d parts), sketch done\n%!"
              n k (min parts n))
        sizes)

let sweep_cmd =
  let sizes =
    Arg.(
      value
      & opt (list int) [ 32; 64; 128 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Comma-separated network sizes to sweep.")
  in
  let parts = Arg.(value & opt int 4 & info [ "parts" ] ~docv:"K" ~doc:"Coalition count.") in
  let source =
    Arg.(
      value
      & opt (some string) None
      & info [ "source" ] ~docv:"SRC"
          ~doc:
            "Graph backend for the sweep: $(b,materialized), $(b,csr), or a size-free \
             $(b,implicit:<family>) spec (implicit:path, implicit:grid, implicit:regular:D, \
             implicit:degenerate:K, ...) instantiated at each size.")
  in
  let chunk =
    Arg.(
      value
      & opt (some int) None
      & info [ "chunk" ] ~docv:"C"
          ~doc:
            "Feed the referee in chunks of $(docv) messages: peak live-message storage drops \
             from O(n) to O(C) with a bit-identical transcript.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run every flagship protocol across a size sweep, recording traces and metrics for \
          offline bound auditing with $(b,refnet report)")
    Term.(const sweep $ sizes $ seed_arg $ k_arg $ parts $ source $ chunk $ trace_arg $ metrics_arg)

(* ---------- report ---------- *)

let report traces json_out =
  let r = Core.Report.create () in
  List.iter (Core.Report.ingest_file r) traces;
  Format.printf "%a@?" Core.Report.pp r;
  (match json_out with
  | Some file ->
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Core.Report.to_json r);
        output_char oc '\n')
  | None -> ());
  match Core.Report.violations r with
  | [] -> ()
  | vs ->
    Printf.eprintf "refnet report: %d bound audit violation%s\n" (List.length vs)
      (if List.length vs = 1 then "" else "s");
    exit 1

let report_cmd =
  let traces =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE" ~doc:"JSONL trace file(s).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the aggregate report as canonical JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate JSONL traces offline: per-protocol bit histograms, fault counts and \
          bound-audit verdicts (exit 1 on any violated budget)")
    Term.(const report $ traces $ json_out)

(* ---------- flight ---------- *)

(* Decode crash-dump flight recordings and replay their trace events
   through the same Report pipeline as live JSONL traces — the audit
   verdicts must agree with what a live trace of the same sessions
   would produce.  Decode is total: malformed bytes become findings,
   which are reported, never raised. *)
let flight dumps json_out =
  let decoded =
    List.map
      (fun path ->
        match Core.Flight.decode_file path with
        | Ok d -> (path, d)
        | Error msg ->
          Printf.eprintf "refnet flight: %s\n" msg;
          exit 2)
      dumps
  in
  let sum field = List.fold_left (fun acc (_, d) -> acc + field d) 0 decoded in
  let recorded = sum (fun d -> d.Core.Flight.d_recorded) in
  let dropped = sum (fun d -> d.Core.Flight.d_dropped) in
  let findings =
    List.concat_map
      (fun (path, d) -> List.map (fun f -> (path, f)) d.Core.Flight.d_findings)
      decoded
  in
  let entries = List.concat_map (fun (_, d) -> d.Core.Flight.d_entries) decoded in
  let r = Core.Report.create () in
  let notes = ref 0 in
  List.iter
    (function
      | Core.Flight.Event { trace; ev; _ } ->
        Core.Report.ingest_line r (Core.Trace.json_of_event ~session:trace ev)
      | Core.Flight.Note _ -> incr notes)
    entries;
  let items = List.length entries in
  let open_sessions = Core.Flight.open_traces entries in
  (match json_out with
  | true ->
    let sessions_json =
      String.concat ", "
        (List.map
           (fun (trace, summary) ->
             Printf.sprintf "{\"trace\": \"%s\", \"summary\": %s}"
               (Core.Flight.hex_of_trace trace)
               (Refnet_json.Json.string summary))
           open_sessions)
    in
    Printf.printf
      "{\"files\": %d, \"flight_recorded\": %d, \"flight_drops_total\": %d, \
       \"flight_findings\": %d, \"items\": %d, \"notes\": %d, \
       \"open_sessions\": [%s], \"report\": %s}\n"
      (List.length dumps) recorded dropped (List.length findings) items !notes sessions_json
      (Core.Report.to_json r)
  | false ->
    Printf.printf "flight: %d file%s, %d recorded, %d dropped, %d items (%d notes)\n"
      (List.length dumps)
      (if List.length dumps = 1 then "" else "s")
      recorded dropped items !notes;
    List.iter
      (fun (path, f) ->
        Printf.printf "  finding %s@%d: %s\n" path f.Core.Flight.f_offset
          f.Core.Flight.f_reason)
      findings;
    List.iter
      (fun (trace, summary) ->
        Printf.printf "  open session %s: %s\n"
          (Core.Flight.hex_of_trace trace)
          summary)
      open_sessions;
    Format.printf "%a@?" Core.Report.pp r);
  match Core.Report.violations r with
  | [] -> ()
  | vs ->
    Printf.eprintf "refnet flight: %d bound audit violation%s\n" (List.length vs)
      (if List.length vs = 1 then "" else "s");
    exit 1

let flight_cmd =
  let dumps =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"DUMP" ~doc:".flight dump file(s).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print a JSON object (decode counters, open sessions, embedded report) instead of \
             the human-readable rendering.")
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:
         "Decode flight-recorder crash dumps, list sessions found mid-flight, and replay the \
          recorded events through the $(b,refnet report) bound audit (exit 1 on any violated \
          budget)")
    Term.(const flight $ dumps $ json)

(* ---------- search ---------- *)

let goal_conv =
  Arg.enum
    [
      ("triangle", `Triangle); ("square", `Square); ("connectivity", `Connectivity);
      ("bipartite", `Bip); ("reconstruct", `Reconstruct); ("forest-family", `Forest_family);
    ]

let search n bits goal =
  let colors = 1 lsl bits in
  let result =
    match goal with
    | `Triangle -> Core.Protocol_search.search_decider ~n ~colors ~property:Cycles.has_triangle ()
    | `Square -> Core.Protocol_search.search_decider ~n ~colors ~property:Cycles.has_square ()
    | `Connectivity ->
      Core.Protocol_search.search_decider ~n ~colors ~property:Connectivity.is_connected ()
    | `Bip -> Core.Protocol_search.search_decider ~n ~colors ~property:Bipartite.is_bipartite ()
    | `Reconstruct -> Core.Protocol_search.search_reconstructor ~n ~colors ()
    | `Forest_family ->
      Core.Protocol_search.search_family_reconstructor ~n ~colors ~family:Spanning.is_forest ()
  in
  match result with
  | Core.Protocol_search.Found w ->
    Printf.printf "A %d-bit one-round protocol EXISTS at n = %d.  Witness tables:\n" bits n;
    Array.iteri
      (fun i table ->
        Printf.printf "  node %d:" (i + 1);
        Array.iteri (fun mask v -> Printf.printf " N#%d->%d" mask v) table;
        print_newline ())
      w
  | Impossible ->
    Printf.printf
      "IMPOSSIBLE: no one-round protocol with %d-bit messages achieves this at n = %d\n\
       (exhaustively verified over every local-function assignment).\n"
      bits n;
    exit 1
  | Aborted ->
    print_endline "search aborted (budget)";
    exit 2

let search_cmd =
  let n = Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Network size (<= 4).") in
  let bits = Arg.(value & opt int 1 & info [ "bits" ] ~docv:"B" ~doc:"Message bits per node.") in
  let goal =
    Arg.(required & pos 0 (some goal_conv) None & info [] ~docv:"GOAL"
           ~doc:"triangle, square, connectivity, bipartite, reconstruct or forest-family.")
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Exhaustively decide whether ANY b-bit one-round protocol exists")
    Term.(const search $ n $ bits $ goal)

(* ---------- lint ---------- *)

(* Thin wrapper over lib/lint, and the CI lint gate: exits 0 on a clean
   tree (or all findings baselined), 1 on any new finding, 2 when the
   baseline file is unreadable. *)
let lint paths json deep baseline =
  let paths = match paths with [] -> Lint.Driver.program_roots | ps -> ps in
  (* lint: allow determinism -- lint wall-time for the report, not a model run *)
  let t0 = Unix.gettimeofday () in
  let files, findings, roots =
    if deep then
      let d = Lint.Driver.deep_paths paths in
      ( d.Lint.Driver.deep_files,
        d.deep_findings,
        Some (d.deep_roots_proven, d.deep_roots_total) )
    else
      let files, findings = Lint.Driver.lint_paths paths in
      (files, findings, None)
  in
  (* lint: allow determinism -- lint wall-time for the report, not a model run *)
  let wall_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
  let gating =
    match baseline with
    | None -> findings
    | Some file -> (
      match Lint.Baseline.load file with
      | Error msg ->
        Printf.eprintf "refnet lint: %s\n" msg;
        exit 2
      | Ok base -> Lint.Baseline.diff ~baseline:base findings)
  in
  if json then
    print_endline (Lint.Finding.report_json ~wall_ms ~files:(List.length files) findings)
  else begin
    List.iter (fun f -> print_endline (Lint.Finding.to_string f)) findings;
    (match roots with
    | Some (proven, total) ->
      Printf.printf
        "refnet lint: exn-escape proved %d/%d referee roots confined to the malformed class \
         (%s)\n"
        proven total
        (String.concat ", " Lint.Exnflow.allowed)
    | None -> ());
    Printf.printf "refnet lint: %d finding%s%s in %d scanned file%s, %d ms\n"
      (List.length findings)
      (if List.length findings = 1 then "" else "s")
      (if baseline = None then ""
       else Printf.sprintf " (%d new vs baseline)" (List.length gating))
      (List.length files)
      (if List.length files = 1 then "" else "s")
      wall_ms
  end;
  exit (if gating = [] then 0 else 1)

let lint_cmd =
  let paths =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"Files or directories to lint (default: lib bin bench examples).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the findings as a canonical JSON report.")
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Also run the whole-repo call-graph passes: exception-escape totality over the \
             registered referees, Parallel capture races, blocking-call reachability from \
             the serve loop, and stale-suppression detection.  They always analyse lib bin \
             bench examples; only findings under the given PATHs are reported.")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Diff findings against a committed schema-v2 JSON report; known findings are \
             reported but only new ones fail the run (exit 2 if $(docv) is unreadable).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically enforce the model's invariants (view boundary, determinism, referee \
          totality, bit accounting — plus, with $(b,--deep), exception-escape \
          totality, parallel races and blocking-call reachability over the repo call graph); \
          exit 1 on any new finding")
    Term.(const lint $ paths $ json $ deep $ baseline)

(* ---------- stats ---------- *)

let stats path =
  let g = read_graph path in
  print_endline (Parameters.summary g);
  Printf.printf "girth: %s   diameter: %s   bipartite: %b   connected: %b\n"
    (match Cycles.girth g with Some d -> string_of_int d | None -> "acyclic")
    (match Distance.diameter g with Some d -> string_of_int d | None -> "inf")
    (Bipartite.is_bipartite g)
    (Connectivity.is_connected g);
  let lo, hi = Parameters.arboricity_bounds g in
  Printf.printf "arboricity in [%d, %d]   triangles: %d   has C4: %b\n" lo hi
    (Cycles.triangle_count g) (Cycles.has_square g);
  if Graph.order g <= 18 then
    Printf.printf "treewidth (exact): %d\n" (Treewidth.treewidth g)
  else print_endline "treewidth: skipped (n > 18)";
  let k = max 1 (Degeneracy.degeneracy g) in
  Printf.printf "one-round reconstruction budget: k=%d, %d bits/node (forest protocol: %s)\n" k
    (Core.Bounds.degeneracy_message_bits ~k (Graph.order g))
    (if Spanning.is_forest g then Printf.sprintf "%d bits" (Core.Bounds.forest_message_bits (Graph.order g))
     else "n/a")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Structural parameters of a graph (degeneracy, treewidth, ...)")
    Term.(const stats $ graph_file_arg)

(* ---------- serve ---------- *)

let serve_probe addr =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let result =
    let* listen = Serve.Daemon.parse_listen addr in
    let* c = Serve.Client.connect listen in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        let* () = Serve.Client.handshake c in
        let n = 4 in
        match Serve.Registry.lookup ~spec:"count" ~n with
        | Error e -> Error e
        | Ok (Serve.Registry.Entry { protocol = p; _ }) ->
          let msgs =
            Core.Simulator.local_phase p (Generators.path n)
            |> Array.to_list
            |> List.mapi (fun i m -> (i + 1, m))
          in
          Serve.Client.run_session c ~protocol:"count" ~n msgs)
  in
  match result with
  | Ok v ->
    let status =
      match v.Serve.Client.status with
      | Serve.Frame.Decided -> "decided"
      | Serve.Frame.Degraded -> "degraded"
      | Serve.Frame.Inconclusive -> "inconclusive"
    in
    Printf.printf "probe ok: %s %s\n" status v.Serve.Client.payload;
    exit (match v.Serve.Client.status with Serve.Frame.Decided -> 0 | _ -> 1)
  | Error msg ->
    Printf.eprintf "probe failed: %s\n" msg;
    exit 1

let serve listen metrics_listen selftest probe sessions conns nodes protocol chaos seed min_rate
    json deadline idle_timeout max_sessions credit domains max_run flight_dir flight_capacity
    trace metrics_file =
  match probe with
  | Some addr -> serve_probe addr
  | None ->
    if selftest then
      with_observability trace metrics_file (fun sink m ->
          let cfg =
            {
              Serve.Selftest.default_cfg with
              Serve.Selftest.sessions;
              conns;
              n = nodes;
              protocol;
              faulty = chaos;
              seed;
            }
          in
          let engine_cfg =
            {
              Serve.Selftest.default_engine_cfg with
              Serve.Engine.max_sessions;
              session_credit = credit;
              domains;
            }
          in
          (* the selftest always records flight data: the outcome audits
             that every verdict left decodable evidence in the rings *)
          let fl = Core.Flight.create ~capacity:flight_capacity () in
          let outcome =
            Serve.Selftest.run ~trace:sink ?metrics:m ~flight:fl ~engine_cfg cfg
          in
          if json then print_endline (Serve.Selftest.to_json outcome)
          else Format.printf "%a@." Serve.Selftest.pp outcome;
          match Serve.Selftest.passed ?min_rate outcome with
          | Ok () -> exit 0
          | Error msg ->
            Printf.eprintf "selftest failed: %s\n" msg;
            exit 1)
    else begin
      match Serve.Daemon.parse_listen listen with
      | Error msg ->
        Printf.eprintf "refnet serve: %s\n" msg;
        exit 1
      | Ok listen_spec ->
        let metrics_listen_spec =
          match metrics_listen with
          | None -> None
          | Some s -> (
            match Serve.Daemon.parse_listen s with
            | Ok l -> Some l
            | Error msg ->
              Printf.eprintf "refnet serve: %s\n" msg;
              exit 1)
        in
        with_trace trace (fun sink ->
            (* the daemon keeps a registry whenever anything consumes it:
               a scrape endpoint or a shutdown snapshot file *)
            let m =
              if metrics_listen_spec <> None || metrics_file <> None then
                Some (Core.Metrics.create ())
              else None
            in
            let opts =
              {
                (Serve.Daemon.default_opts ~listen:listen_spec) with
                Serve.Daemon.metrics_listen = metrics_listen_spec;
                metrics_file;
                engine_cfg =
                  {
                    Serve.Engine.default_config with
                    Serve.Engine.deadline_s = deadline;
                    idle_timeout_s = idle_timeout;
                    max_sessions;
                    session_credit = credit;
                    domains;
                  };
                trace = sink;
                metrics = m;
                flight_dir;
                flight_capacity = Some flight_capacity;
                max_run_s = max_run;
              }
            in
            exit (Serve.Daemon.run opts))
    end

let serve_cmd =
  let listen =
    Arg.(
      value
      & opt string "tcp:127.0.0.1:7477"
      & info [ "listen" ] ~docv:"ADDR" ~doc:"Listen address: tcp:HOST:PORT, tcp:PORT or unix:PATH.")
  in
  let metrics_listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-listen" ] ~docv:"ADDR"
          ~doc:"Serve a Prometheus text snapshot to HTTP scrapes on $(docv).")
  in
  let selftest =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:
            "Run the in-process load generator against the engine instead of listening; exits 0 \
             only if every robustness invariant held.")
  in
  let probe =
    Arg.(
      value
      & opt (some string) None
      & info [ "probe" ] ~docv:"ADDR"
          ~doc:"Connect to a running daemon, run one tiny session, and exit 0 on a Decided verdict.")
  in
  let sessions =
    Arg.(value & opt int 20_000 & info [ "sessions" ] ~docv:"N" ~doc:"Selftest: sessions to run.")
  in
  let conns =
    Arg.(value & opt int 64 & info [ "conns" ] ~docv:"N" ~doc:"Selftest: concurrent client workers.")
  in
  let nodes =
    Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N" ~doc:"Selftest: nodes per session.")
  in
  let protocol =
    Arg.(
      value & opt string "count"
      & info [ "protocol" ] ~docv:"SPEC"
          ~doc:"Session protocol: count, forest, degeneracy:K, bounded:D or sketch:SEED.")
  in
  let chaos =
    Arg.(
      value & opt float 0.0
      & info [ "chaos" ] ~docv:"FRAC"
          ~doc:
            "Selftest: fraction of sessions given a hostile behaviour (channel faults, crashes, \
             truncated frames, corrupt bytes, stalls).")
  in
  let min_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-rate" ] ~docv:"RATE" ~doc:"Selftest: fail below $(docv) sessions/second.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Selftest: print the outcome as JSON.") in
  let deadline =
    Arg.(
      value & opt float 30.
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Per-session wall-clock budget before a forced verdict.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 10.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Max quiet gap on a session before a forced verdict.")
  in
  let max_sessions =
    Arg.(
      value & opt int 4096
      & info [ "max-sessions" ] ~docv:"N" ~doc:"Admission cap: shed load above this many live sessions.")
  in
  let credit =
    Arg.(
      value & opt int 256
      & info [ "credit" ] ~docv:"N" ~doc:"Per-session ingress window (Msg frames in flight).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"W" ~doc:"Parallel pool width for session folding.")
  in
  let max_run =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-run" ] ~docv:"SECONDS" ~doc:"Stop (as if SIGTERM) after $(docv); for smoke tests.")
  in
  let flight_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:
            "Attach a crash-safe flight recorder: ring dumps land in $(docv) on every anomaly, \
             on SIGUSR1 and at exit; on boot the directory is scanned and mid-flight sessions \
             are refused with evidence ($(b,refnet flight) decodes the dumps).")
  in
  let flight_capacity =
    Arg.(
      value & opt int 65536
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:"Flight recorder ring entries (oldest entries overwrite beyond this).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Always-on referee daemon: clients open sessions over a length-framed binary protocol, \
          stream node messages, and receive a sound Verdict; degrades under faults instead of dying")
    Term.(
      const serve $ listen $ metrics_listen $ selftest $ probe $ sessions $ conns $ nodes
      $ protocol $ chaos $ seed_arg $ min_rate $ json $ deadline $ idle_timeout $ max_sessions
      $ credit $ domains $ max_run $ flight_dir $ flight_capacity $ trace_arg $ metrics_arg)

let connectivity_cmd =
  let parts = Arg.(value & opt int 4 & info [ "parts" ] ~docv:"K" ~doc:"Coalition count.") in
  Cmd.v
    (Cmd.info "connectivity" ~doc:"Coalition connectivity audit (conclusion protocol)")
    Term.(const connectivity $ graph_file_arg $ parts $ trace_arg $ metrics_arg)

let () =
  let info =
    Cmd.info "refnet" ~version:"1.0.0"
      ~doc:"One-round referee protocols on interconnection networks (IPDPS 2011 reproduction)"
  in
  (* [~catch:false] so stray exceptions reach us instead of cmdliner's
     multi-line backtrace dump: one diagnostic line on stderr, exit 2 —
     distinct from the 0/1 verdict codes the subcommands use. *)
  match
    Cmd.eval ~catch:false
      (Cmd.group info
         [
           generate_cmd; reconstruct_cmd; recognize_cmd; gadget_cmd; count_cmd; sizes_cmd; stats_cmd; search_cmd;
           connectivity_cmd; faults_cmd; bcc_cmd; sweep_cmd; report_cmd; flight_cmd; lint_cmd; serve_cmd;
         ])
  with
  | code -> exit code
  | exception e ->
    let msg = Printexc.to_string e in
    let msg = match String.index_opt msg '\n' with Some i -> String.sub msg 0 i | None -> msg in
    Printf.eprintf "refnet: %s\n" msg;
    exit 2
