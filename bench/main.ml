(* Experiment harness: regenerates every figure and quantitative claim of
   the paper (see DESIGN.md section 4 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured commentary).

   Usage:
     main.exe            run every experiment table + timing benches
     main.exe tables     only the experiment tables (fast)
     main.exe timings    only the Bechamel timing benches
     main.exe scaling    multicore scaling: sequential vs 2/4/8 domains,
                         results written to BENCH_refnet.json
     main.exe faults     fault campaign: hardened-vs-plain absorb cost and
                         crash-rate degradation, written to BENCH_refnet.json
     main.exe metrics    metrics-overhead microbench: unobserved runs pay
                         nothing, live registries stay under 5%, written to
                         BENCH_refnet.json
     main.exe graphsource  Graph_source campaign: backend transcript
                         equivalence at n = 512, then forest recognition on
                         an implicit path at n = 10^3..10^6 with a chunked
                         referee feed, peak-heap gated, written to
                         BENCH_refnet.json
     main.exe bcc        broadcast congested clique: connectivity rounds-vs-bits
                         sweep over the implicit families with oracle-checked
                         verdicts, one-round anchors, engine transcript
                         equivalence, and one million-node run's time,
                         allocation and peak heap, written to BENCH_bcc.json
                         (the million-node rows accumulate across runs)
     main.exe serve      referee daemon campaign (D1): clean session
                         throughput, then a chaos sweep with rising faulty
                         fractions gated on zero lies / zero quarantine
                         escapes, written to BENCH_refnet.json
     main.exe flight     flight-recorder overhead (D2): the chaos selftest
                         with rings on vs off, median-of-ratios overhead
                         gated under 5%, written to BENCH_refnet.json *)

open Refnet_graph

let rng () = Random.State.make [| 0xbeef; 0xcafe |]

let line = String.make 78 '-'

let section id title =
  Printf.printf "\n%s\n%s  %s\n%s\n" line id title line

(* ------------------------------------------------------------------ *)
(* F1: diameter gadget (paper Figure 1)                                 *)
(* ------------------------------------------------------------------ *)

let experiment_f1 () =
  section "F1" "Diameter gadget G'_{s,t} (Theorem 2, Figure 1)";
  Printf.printf
    "Base graph G + pendants on s,t + universal vertex: diam <= 3 iff {s,t} in E.\n\n";
  let r = rng () in
  Printf.printf "%6s %6s %8s %10s %12s\n" "n" "p" "pairs" "violations" "edge-pairs";
  List.iter
    (fun (n, p) ->
      let g = Generators.gnp r n p in
      let pairs = ref 0 and violations = ref 0 and edges = ref 0 in
      for s = 1 to n do
        for t = s + 1 to n do
          incr pairs;
          let verdict = Distance.diameter_at_most (Core.Gadgets.diameter g s t) 3 in
          if Graph.has_edge g s t then incr edges;
          if verdict <> Graph.has_edge g s t then incr violations
        done
      done;
      Printf.printf "%6d %6.2f %8d %10d %12d\n" n p !pairs !violations !edges)
    [ (8, 0.2); (8, 0.5); (12, 0.3); (16, 0.25); (20, 0.15) ];
  (* The figure's concrete observation: the critical pair is the two
     pendant vertices n+1, n+2. *)
  let g = Generators.path 7 in
  let adjacent = Core.Gadgets.diameter g 1 2 and non_adjacent = Core.Gadgets.diameter g 1 7 in
  Printf.printf
    "\nFigure-1 witness on P7: d(n+1, n+2) = %s with edge {1,2}, %s without edge {1,7}\n"
    (match Distance.distance adjacent 8 9 with Some d -> string_of_int d | None -> "inf")
    (match Distance.distance non_adjacent 8 9 with Some d -> string_of_int d | None -> "inf")

(* ------------------------------------------------------------------ *)
(* F2: triangle gadget (paper Figure 2)                                 *)
(* ------------------------------------------------------------------ *)

let experiment_f2 () =
  section "F2" "Triangle gadget G'_{s,t} (Theorem 3, Figure 2)";
  Printf.printf "Bipartite G + apex adjacent to {s,t}: triangle iff {s,t} in E.\n\n";
  let r = rng () in
  Printf.printf "%6s %6s %8s %10s %12s\n" "n" "p" "pairs" "violations" "edge-pairs";
  List.iter
    (fun (half, p) ->
      let g = Generators.random_bipartite r ~left:half ~right:half p in
      let n = 2 * half in
      let pairs = ref 0 and violations = ref 0 and edges = ref 0 in
      for s = 1 to n do
        for t = s + 1 to n do
          incr pairs;
          let verdict = Cycles.has_triangle (Core.Gadgets.triangle g s t) in
          if Graph.has_edge g s t then incr edges;
          if verdict <> Graph.has_edge g s t then incr violations
        done
      done;
      Printf.printf "%6d %6.2f %8d %10d %12d\n" n p !pairs !violations !edges)
    [ (4, 0.4); (6, 0.5); (8, 0.3); (10, 0.5) ]

(* ------------------------------------------------------------------ *)
(* T1: Lemma 2 message sizes                                            *)
(* ------------------------------------------------------------------ *)

let experiment_t1 () =
  section "T1" "Message size of Algorithm 3 vs the Lemma 2 bound O(k^2 log n)";
  Printf.printf "%6s %4s %12s %12s %14s\n" "n" "k" "measured(b)" "layout(b)" "bits/log n";
  let r = rng () in
  List.iter
    (fun n ->
      List.iter
        (fun k ->
          let g = Generators.random_k_degenerate r n ~k in
          let _, t = Core.Simulator.run (Core.Degeneracy_protocol.reconstruct ~k ()) g in
          Printf.printf "%6d %4d %12d %12d %14.2f\n" n k t.Core.Simulator.max_bits
            (Core.Degeneracy_protocol.message_bits ~k n)
            (Core.Simulator.frugality_ratio t))
        [ 1; 2; 3; 5 ])
    [ 64; 256; 1024 ]

(* ------------------------------------------------------------------ *)
(* T2: Theorem 5 reconstruction across graph classes                    *)
(* ------------------------------------------------------------------ *)

let experiment_t2 () =
  section "T2" "One-round reconstruction across bounded-degeneracy classes (Theorem 5)";
  Printf.printf "%-22s %6s %4s %8s %10s %12s\n" "class" "n" "k" "exact" "max-bits" "runs";
  let r = rng () in
  let runs = 5 in
  let trial name k make =
    let exact = ref 0 and bits = ref 0 in
    for _ = 1 to runs do
      let g = make () in
      let out, t = Core.Simulator.run (Core.Degeneracy_protocol.reconstruct ~k ()) g in
      if out = Some g then incr exact;
      bits := max !bits t.Core.Simulator.max_bits
    done;
    (name, k, !exact, !bits)
  in
  let n = 100 in
  List.iter
    (fun (name, k, exact, bits) ->
      Printf.printf "%-22s %6d %4d %7d/%d %10d %12d\n" name n k exact runs bits runs)
    [
      trial "random forest" 1 (fun () -> Generators.random_forest r n ~trees:4);
      trial "maximal outerplanar" 2 (fun () -> Generators.random_maximal_outerplanar r n);
      trial "grid (planar)" 2 (fun () -> Generators.grid 10 10);
      trial "apollonian (planar)" 3 (fun () -> Generators.random_apollonian r n);
      trial "planar budget k=5" 5 (fun () -> Generators.random_apollonian r n);
      trial "3-tree (treewidth 3)" 3 (fun () -> Generators.random_k_tree r n ~k:3);
      trial "random 4-degenerate" 4 (fun () -> Generators.random_k_degenerate r n ~k:4);
    ]

(* ------------------------------------------------------------------ *)
(* T3: Lemma 1 counting                                                 *)
(* ------------------------------------------------------------------ *)

let experiment_t3 () =
  section "T3" "Lemma 1: family sizes vs the frugal information budget";
  let c = 4 in
  Printf.printf "(budget constant c = %d, i.e. messages of c log n bits)\n\n" c;
  Printf.printf "%4s %18s %18s %12s %10s\n" "n" "log2 #square-free" "budget c*n*log n" "fits?"
    "n^1.5";
  for n = 2 to 7 do
    let lg = Core.Counting.log2_family_size Core.Counting.Square_free n in
    let budget = Core.Counting.budget ~c n in
    Printf.printf "%4d %18.1f %18.1f %12s %10.1f\n" n lg budget
      (if lg <= budget then "yes" else "NO")
      (Core.Bounds.square_free_growth_exponent n)
  done;
  Printf.printf "\nClosed-form families (crossover = first n where the family outgrows c=%d):\n" c;
  List.iter
    (fun (name, fam) ->
      match Core.Counting.crossover ~c fam ~max_n:4096 with
      | Some n -> Printf.printf "  %-28s crossover at n = %d\n" name n
      | None -> Printf.printf "  %-28s no crossover below 4096\n" name)
    [
      ("all graphs (Theorem 2)", Core.Counting.All_graphs);
      ("bipartite halves (Theorem 3)", Core.Counting.Bipartite_fixed_halves);
    ]

(* ------------------------------------------------------------------ *)
(* T4/T5/T6: the reduction protocols                                    *)
(* ------------------------------------------------------------------ *)

let experiment_reductions () =
  section "T4-T6" "Reduction protocols Δ (Theorems 1-3): reconstruction via gadget oracles";
  Printf.printf "%-12s %6s %8s %12s %12s %8s\n" "reduction" "n" "exact" "Δ bits" "oracle(n)b"
    "blowup";
  let r = rng () in
  let row name delta oracle_bits g =
    let n = Graph.order g in
    let out, t = Core.Simulator.run delta g in
    Printf.printf "%-12s %6d %8s %12d %12d %7.2fx\n" name n
      (if Graph.equal out g then "yes" else "NO")
      t.Core.Simulator.max_bits (oracle_bits n)
      (float_of_int t.Core.Simulator.max_bits /. float_of_int (oracle_bits n))
  in
  let id_bits n = n in
  List.iter
    (fun n ->
      let tree = Generators.random_tree r n in
      row "square" (Core.Reduction.square Core.Reduction.square_oracle) id_bits tree;
      let any = Generators.gnp r n 0.4 in
      row "diameter" (Core.Reduction.diameter Core.Reduction.diameter3_oracle) id_bits any;
      let bip = Generators.random_bipartite r ~left:(n / 2) ~right:(n - (n / 2)) 0.5 in
      row "triangle" (Core.Reduction.triangle Core.Reduction.triangle_oracle) id_bits bip)
    [ 8; 12; 16 ];
  Printf.printf
    "\n(oracle = full-information decider, n bits/node; paper predicts blowups of\n\
    \ k(2n)/k(n) = 2x, 3k(n+3)/k(n) ~ 3x, 2k(n+1)/k(n) ~ 2x — plus O(log n) framing)\n"

(* ------------------------------------------------------------------ *)
(* T7: coalition connectivity                                           *)
(* ------------------------------------------------------------------ *)

let experiment_t7 () =
  section "T7" "Coalition connectivity (conclusion): O(k log n) bits per node";
  let n = 64 in
  let r = rng () in
  Printf.printf "%6s %6s %10s %12s %12s %10s\n" "parts" "runs" "correct" "max-bits" "bound(b)"
    "k*log n";
  List.iter
    (fun parts ->
      let runs = 20 in
      let correct = ref 0 and bits = ref 0 in
      for _ = 1 to runs do
        let g = Generators.gnp r n 0.05 in
        let partition = Core.Coalition.partition_by_ranges ~n ~parts in
        let verdict, t = Core.Coalition.run Core.Connectivity_parts.decide g ~parts:partition in
        if verdict = Connectivity.is_connected g then incr correct;
        bits := max !bits t.Core.Simulator.max_bits
      done;
      Printf.printf "%6d %6d %8d/%d %12d %12d %10d\n" parts runs !correct runs !bits
        (Core.Connectivity_parts.per_node_bound ~n ~parts)
        (parts * Core.Bounds.id_bits n))
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* T9: generalized degeneracy on dense graphs                           *)
(* ------------------------------------------------------------------ *)

let experiment_t9 () =
  section "T9" "Generalized degeneracy: dense graphs the plain protocol cannot touch";
  let r = rng () in
  Printf.printf "%-24s %6s %8s %8s %10s %10s\n" "class" "n" "plain-d" "gen-d" "plain@k=2"
    "gen@k=2";
  List.iter
    (fun (name, g) ->
      let plain = Degeneracy.degeneracy g and gen = Degeneracy.generalized_degeneracy g in
      let plain_ok =
        fst (Core.Simulator.run (Core.Degeneracy_protocol.reconstruct ~k:2 ()) g) = Some g
      in
      let gen_ok =
        fst (Core.Simulator.run (Core.Generalized_degeneracy.reconstruct ~k:2 ()) g) = Some g
      in
      Printf.printf "%-24s %6d %8d %8d %10s %10s\n" name (Graph.order g) plain gen
        (if plain_ok then "yes" else "no")
        (if gen_ok then "yes" else "no"))
    [
      ("complement of tree", Graph.complement (Generators.random_tree r 40));
      ("complement of cycle", Graph.complement (Generators.cycle 40));
      ("near-clique (K40 - M)", Graph.complement (Generators.random_forest r 40 ~trees:20));
      ("grid (sparse control)", Generators.grid 6 6);
    ]

(* ------------------------------------------------------------------ *)
(* T10: recognition thresholds                                          *)
(* ------------------------------------------------------------------ *)

let experiment_t10 () =
  section "T10" "Recognition protocol: accept iff degeneracy <= k";
  let families =
    [
      ("tree", Generators.complete_binary_tree 31);
      ("cycle", Generators.cycle 20);
      ("outerplanar", Generators.random_maximal_outerplanar (rng ()) 20);
      ("apollonian", Generators.random_apollonian (rng ()) 20);
      ("K6", Generators.complete 6);
      ("petersen", Generators.petersen ());
    ]
  in
  Printf.printf "%-14s %6s |" "family" "deg";
  List.iter (fun k -> Printf.printf " k=%d" k) [ 1; 2; 3; 4; 5 ];
  print_newline ();
  List.iter
    (fun (name, g) ->
      Printf.printf "%-14s %6d |" name (Degeneracy.degeneracy g);
      List.iter
        (fun k ->
          let ok = fst (Core.Simulator.run (Core.Recognition.degeneracy_at_most k) g) in
          Printf.printf "  %s " (if ok then "+" else "-"))
        [ 1; 2; 3; 4; 5 ];
      print_newline ())
    families

(* ------------------------------------------------------------------ *)
(* T11: adaptive two-round protocol (Section IV, "more rounds")         *)
(* ------------------------------------------------------------------ *)

let experiment_t11 () =
  section "T11" "Two rounds beat one: adaptive reconstruction with unknown k";
  Printf.printf
    "Round 1: degrees -> referee infers k-hat -> round 2: Algorithm 3 at k-hat.\n\n";
  Printf.printf "%-22s %6s %8s %8s %12s %12s\n" "graph" "n" "deg(G)" "k-hat" "r2 bits"
    "exact";
  let r = rng () in
  List.iter
    (fun (name, g) ->
      let degrees =
        Array.of_list (List.map (Graph.degree g) (Graph.vertices g))
      in
      let k_hat = Core.Bcc.Adaptive_degeneracy.degree_bound degrees in
      let out, t = Core.Bcc.run (Core.Bcc.Adaptive_degeneracy.protocol ()) g in
      let r2 = t.Core.Bcc.per_round_max_bits.(1) in
      Printf.printf "%-22s %6d %8d %8d %12d %12s\n" name (Graph.order g)
        (Degeneracy.degeneracy g) k_hat r2
        (if out = Some g then "yes" else "NO"))
    [
      ("random tree", Generators.random_tree r 64);
      ("8x8 grid", Generators.grid 8 8);
      ("apollonian", Generators.random_apollonian r 64);
      ("G(64, 0.1)", Generators.gnp r 64 0.1);
      ("G(64, 0.5)", Generators.gnp r 64 0.5);
      ("K16 (worst case)", Generators.complete 16);
    ]

(* ------------------------------------------------------------------ *)
(* T12: bipartiteness => bipartite connectivity (ongoing-work remark)   *)
(* ------------------------------------------------------------------ *)

let experiment_t12 () =
  section "T12" "Reduction: bipartiteness oracle decides bipartite connectivity";
  let r = rng () in
  Printf.printf "%6s %6s %8s %10s %12s\n" "n" "p" "runs" "correct" "Δ bits";
  List.iter
    (fun (half, p) ->
      let n = 2 * half in
      let left = List.init half (fun i -> i + 1) in
      let right = List.init half (fun i -> half + i + 1) in
      let delta =
        Core.Bipartite_reduction.connectivity
          ~oracle:Core.Bipartite_reduction.bipartiteness_oracle ~left ~right
      in
      let runs = 10 in
      let correct = ref 0 and bits = ref 0 in
      for _ = 1 to runs do
        let g = Generators.random_bipartite r ~left:half ~right:half p in
        let verdict, t = Core.Simulator.run delta g in
        if verdict = Connectivity.is_connected g then incr correct;
        bits := max !bits t.Core.Simulator.max_bits
      done;
      Printf.printf "%6d %6.2f %8d %8d/%d %12d\n" n p runs !correct runs !bits)
    [ (4, 0.3); (6, 0.4); (8, 0.25); (8, 0.5) ]

(* ------------------------------------------------------------------ *)
(* T13: fooling pairs — Lemma 1 constructively                          *)
(* ------------------------------------------------------------------ *)

let experiment_t13 () =
  section "T13" "Fooling pairs: capacity of clipped protocols vs family size";
  Printf.printf
    "Clip the (correct, non-frugal) square oracle to b*log n bits and count the\n\
     distinct message vectors it can produce over all graphs on n vertices.\n\n";
  Printf.printf "%4s %10s %14s %14s %14s\n" "n" "graphs" "cap b=1" "cap b=2" "fooled(b=1)";
  for n = 3 to 5 do
    let total = Enumerate.count n ~where:(fun _ -> true) in
    let cap b =
      let p = Core.Fooling.truncate ~budget:b Core.Reduction.square_oracle in
      Core.Fooling.vector_count ~n ~local:p.Core.Protocol.local (Enumerate.iter n)
    in
    let fooled =
      match
        Core.Fooling.fooling_pair_for ~n ~budget:1 Core.Reduction.square_oracle
          ~property:Cycles.has_square
      with
      | Some _ -> "yes"
      | None -> "no"
    in
    Printf.printf "%4d %10d %14d %14d %14s\n" n total (cap 1) (cap 2) fooled
  done

(* ------------------------------------------------------------------ *)
(* T14: ablation — Newton decoder vs Lemma 3 lookup table               *)
(* ------------------------------------------------------------------ *)

let experiment_t14 () =
  section "T14" "Ablation: Newton-identities decoder vs the Lemma 3 lookup table";
  Printf.printf "%6s %4s %14s %16s %16s\n" "n" "k" "table entries" "table build(ms)"
    "decode agree";
  let r = rng () in
  List.iter
    (fun (n, k) ->
      let t0 = Sys.time () in
      let table = Refnet_algebra.Power_sum.Table.build ~n ~k in
      let build_ms = 1000.0 *. (Sys.time () -. t0) in
      let g = Generators.random_k_degenerate r n ~k in
      let via_table =
        fst
          (Core.Simulator.run
             (Core.Degeneracy_protocol.reconstruct
                ~decoder:(Core.Degeneracy_protocol.table_decoder table)
                ~k ())
             g)
      in
      let via_newton =
        fst (Core.Simulator.run (Core.Degeneracy_protocol.reconstruct ~k ()) g)
      in
      Printf.printf "%6d %4d %14d %16.1f %16s\n" n k
        (Refnet_algebra.Power_sum.Table.entries table)
        build_ms
        (if via_table = via_newton && via_table = Some g then "yes" else "NO"))
    [ (16, 2); (32, 2); (16, 3); (24, 3) ];
  Printf.printf
    "\n(The table needs O(n^k) space — the Newton decoder removes that wall;\n\
    \ both are exact by Wright's theorem.)\n"

(* ------------------------------------------------------------------ *)
(* T15: hardness sweep over subgraph patterns S                         *)
(* ------------------------------------------------------------------ *)

let experiment_t15 () =
  section "T15" "Section II framing: 'does G admit S as a subgraph?' across patterns";
  Printf.printf
    "Clip the full-information oracle to 1 log n bits/node and hunt fooling pairs\n\
     for each pattern S over all graphs on n = 5 vertices.  The paper: hardness\n\
     holds for most S 'not reduced to an edge'; an edge is decidable with 1 bit.\n\n";
  let n = 5 in
  let patterns =
    [
      ("edge (P2)", Subgraph.path_pattern 2);
      ("path P3", Subgraph.path_pattern 3);
      ("triangle", Subgraph.clique_pattern 3);
      ("square C4", Subgraph.cycle_pattern 4);
      ("path P4", Subgraph.path_pattern 4);
      ("claw K13", Subgraph.star_pattern 4);
      ("K4", Subgraph.clique_pattern 4);
    ]
  in
  Printf.printf "%-12s %14s %14s\n" "pattern S" "fooled(b=1)" "fooled(b=2)";
  List.iter
    (fun (name, pattern) ->
      let fooled b =
        match
          Core.Fooling.fooling_pair_for ~n ~budget:b Core.Reduction.square_oracle
            ~property:(fun g -> Subgraph.contains ~pattern g)
        with
        | Some _ -> "yes"
        | None -> "no"
      in
      Printf.printf "%-12s %14s %14s\n" name (fooled 1) (fooled 2))
    patterns;
  (* The contrast: a purpose-built 1-bit protocol decides S = edge for
     every graph — the case the paper excludes from its hardness claim. *)
  let edge_protocol : bool Core.Protocol.t =
    {
      name = "has-edge (1 bit)";
      local =
        (fun v ->
          let w = Refnet_bits.Bit_writer.create () in
          Refnet_bits.Bit_writer.add_bit w (Core.View.deg v > 0);
          Core.Message.of_writer w);
      referee =
        Core.Protocol.streaming
          ~init:(fun ~n:_ -> false)
          ~absorb:(fun ~n:_ acc ~id:_ m ->
            acc || Refnet_bits.Bit_reader.read_bit (Core.Message.reader m))
          ~finish:(fun ~n:_ acc -> acc);
      budget = None;
    }
  in
  let collision =
    Core.Fooling.find_pair ~n
      ~property:(fun g -> Subgraph.contains ~pattern:(Subgraph.path_pattern 2) g)
      ~local:edge_protocol.Core.Protocol.local (Enumerate.iter n)
  in
  Printf.printf "\n1-bit edge protocol over all %d graphs on n=%d: fooling pair %s\n"
    (Enumerate.count n ~where:(fun _ -> true))
    n
    (match collision with Some _ -> "FOUND (bug!)" | None -> "impossible — S = edge is easy")

(* ------------------------------------------------------------------ *)
(* T16: the open question — randomized one-round connectivity           *)
(* ------------------------------------------------------------------ *)

let experiment_t16 () =
  section "T16" "Open question: one-round connectivity via public-coin graph sketches";
  Printf.printf
    "AGM-style l0-sampler sketches give a randomized one-round protocol with\n\
     O(log^3 n) bits/node: sound on disconnected inputs, complete w.h.p.\n\n";
  let r = rng () in
  Printf.printf "%6s %8s %14s %14s %12s %12s\n" "n" "runs" "conn correct" "disc correct"
    "bits/node" "n bits";
  List.iter
    (fun n ->
      let runs = 15 in
      let conn_ok = ref 0 and disc_ok = ref 0 in
      for seed = 1 to runs do
        let p = Core.Sketch_connectivity.protocol ~seed () in
        let g_conn = Generators.random_connected r n 0.08 in
        if fst (Core.Simulator.run p g_conn) then incr conn_ok;
        let g_disc =
          Graph.disjoint_union
            (Generators.random_connected r (n / 2) 0.15)
            (Generators.random_connected r (n - (n / 2)) 0.15)
        in
        if not (fst (Core.Simulator.run p g_disc)) then incr disc_ok
      done;
      Printf.printf "%6d %8d %11d/%d %11d/%d %12d %12d\n" n runs !conn_ok runs !disc_ok runs
        (Core.Sketch_connectivity.message_bits ~n ())
        n)
    [ 16; 32; 64; 128 ];
  Printf.printf
    "\n(messages are polylog: they grow ~(log n)^3 while the trivial incidence\n\
    \ message grows ~n; crossover near n = 65536 at these constants.  The\n\
    \ paper's conjecture — no deterministic O(log n)-bit protocol — stands.)\n"

(* ------------------------------------------------------------------ *)
(* T17: what IS easy in one round                                       *)
(* ------------------------------------------------------------------ *)

let experiment_t17 () =
  section "T17" "The easy landscape: degree-determined properties in one round";
  Printf.printf
    "Anything a node can compute from deg(v) travels in one id-width message;\n\
     contrast with T13/T15 where even 'is there a square' needs Omega(n) bits.\n\n";
  let r = rng () in
  let n = 128 in
  Printf.printf "%-22s %12s %10s\n" "property" "bits/node" "correct";
  let g = Generators.gnp r n 0.07 in
  let check name p truth =
    let out, t = Core.Simulator.run p g in
    Printf.printf "%-22s %12d %10s\n" name t.Core.Simulator.max_bits
      (if out = truth then "yes" else "NO")
  in
  check "edge count" Core.Easy_protocols.edge_count (Graph.size g);
  check "max degree" Core.Easy_protocols.max_degree (Graph.max_degree g);
  check "min degree" Core.Easy_protocols.min_degree (Graph.min_degree g);
  check "is regular" Core.Easy_protocols.is_regular false;
  check "has isolated vertex" Core.Easy_protocols.has_isolated_vertex
    (List.exists (fun v -> Graph.degree g v = 0) (Graph.vertices g));
  check "all degrees even" Core.Easy_protocols.all_degrees_even
    (List.for_all (fun v -> Graph.degree g v land 1 = 0) (Graph.vertices g));
  let seq, t = Core.Simulator.run Core.Easy_protocols.degree_sequence g in
  Printf.printf "%-22s %12d %10s\n" "degree sequence" t.Core.Simulator.max_bits
    (if seq = Graph.degree_sequence g then "yes" else "NO")

(* ------------------------------------------------------------------ *)
(* T18: wire-format ablation — fixed vs compact message layout          *)
(* ------------------------------------------------------------------ *)

let experiment_t18 () =
  section "T18" "Ablation: fixed-width layout (the paper's) vs compact gamma-coded layout";
  Printf.printf
    "Both layouts carry the same power sums and decode identically; the compact\n\
     one pays per-field length headers to stop padding small values.\n\n";
  let r = rng () in
  Printf.printf "%-24s %6s %4s %12s %12s %12s %9s\n" "graph" "n" "k" "fixed max" "compact max"
    "compact avg" "saving";
  List.iter
    (fun (name, k, g) ->
      let n = Graph.order g in
      let run layout =
        snd (Core.Simulator.run (Core.Degeneracy_protocol.reconstruct ~layout ~k ()) g)
      in
      let tf = run Core.Degeneracy_protocol.Fixed in
      let tc = run Core.Degeneracy_protocol.Compact in
      Printf.printf "%-24s %6d %4d %12d %12d %12.1f %8.1f%%\n" name n k
        tf.Core.Simulator.max_bits tc.Core.Simulator.max_bits
        (float_of_int tc.Core.Simulator.total_bits /. float_of_int n)
        (100.0
        *. (1.0
           -. float_of_int tc.Core.Simulator.total_bits
              /. float_of_int tf.Core.Simulator.total_bits)))
    [
      ("star (skewed degrees)", 3, Generators.star 256);
      ("random tree", 1, Generators.random_tree r 256);
      ("grid 16x16", 2, Generators.grid 16 16);
      ("apollonian", 3, Generators.random_apollonian r 256);
      ("4-tree (uniform, dense)", 4, Generators.random_k_tree r 256 ~k:4);
    ];
  Printf.printf
    "\n(The fixed layout is data-oblivious — its very uniformity is what lets the\n\
    \ referee parse without trusting senders; compact trades that for bits.)\n"

(* ------------------------------------------------------------------ *)
(* T19: exhaustive protocol search — the smallest hard instances        *)
(* ------------------------------------------------------------------ *)

let experiment_t19 () =
  section "T19" "Exhaustive search over ALL one-round protocols at n = 3, 4";
  Printf.printf
    "Lemma 1 bounds by counting; at tiny n the full protocol space is finite and\n\
     the question 'does ANY b-bit protocol exist?' is decidable outright.\n\n";
  let show n colors what result =
    Printf.printf "%4d %8d  %-28s %s\n" n colors what
      (match result with
      | Core.Protocol_search.Found _ -> "protocol EXISTS (witness found)"
      | Impossible -> "IMPOSSIBLE for every protocol"
      | Aborted -> "search aborted")
  in
  Printf.printf "%4s %8s  %-28s %s\n" "n" "colors" "goal" "verdict";
  show 3 2 "reconstruct all graphs" (Core.Protocol_search.search_reconstructor ~n:3 ~colors:2 ());
  show 3 2 "decide triangle" (Core.Protocol_search.search_decider ~n:3 ~colors:2 ~property:Cycles.has_triangle ());
  show 4 2 "decide triangle" (Core.Protocol_search.search_decider ~n:4 ~colors:2 ~property:Cycles.has_triangle ());
  show 4 2 "decide connectivity" (Core.Protocol_search.search_decider ~n:4 ~colors:2 ~property:Connectivity.is_connected ());
  show 4 2 "decide C4-subgraph" (Core.Protocol_search.search_decider ~n:4 ~colors:2 ~property:Cycles.has_square ());
  show 4 2 "decide bipartiteness" (Core.Protocol_search.search_decider ~n:4 ~colors:2 ~property:Bipartite.is_bipartite ());
  show 4 2 "decide diameter<=2" (Core.Protocol_search.search_decider ~n:4 ~colors:2 ~property:(fun g -> Distance.diameter_at_most g 2) ());
  show 4 2 "reconstruct all graphs" (Core.Protocol_search.search_reconstructor ~n:4 ~colors:2 ());
  show 4 4 "decide triangle" (Core.Protocol_search.search_decider ~n:4 ~colors:4 ~property:Cycles.has_triangle ());
  show 4 4 "decide connectivity" (Core.Protocol_search.search_decider ~n:4 ~colors:4 ~property:Connectivity.is_connected ());
  Printf.printf
    "\n(n = 3: one bit per node exactly names all 8 graphs — everything is easy.\n\
    \ n = 4: triangles and connectivity become impossible at one bit, decidable\n\
    \ at two; C4 stays 1-bit-easy at this size — the Theorem 1 hardness is an\n\
    \ asymptotic phenomenon.)\n"

(* ------------------------------------------------------------------ *)
(* T8: Bechamel timing benches                                          *)
(* ------------------------------------------------------------------ *)

let timing_benches () =
  section "T8" "Timing (Bechamel): local O(n) encode, global O(n^2) decode";
  let open Bechamel in
  let r = rng () in
  let mk_local n k =
    let g = Generators.random_k_degenerate r n ~k in
    let p = Core.Degeneracy_protocol.reconstruct ~k () in
    Test.make
      ~name:(Printf.sprintf "local/n=%d/k=%d" n k)
      (Staged.stage (fun () -> ignore (Core.Simulator.local_phase p g)))
  in
  let mk_global n k =
    let g = Generators.random_k_degenerate r n ~k in
    let p = Core.Degeneracy_protocol.reconstruct ~k () in
    let msgs = Core.Simulator.local_phase p g in
    Test.make
      ~name:(Printf.sprintf "global/n=%d/k=%d" n k)
      (Staged.stage (fun () -> ignore (Core.Protocol.apply p ~n msgs)))
  in
  let mk_forest n =
    let g = Generators.random_tree r n in
    Test.make
      ~name:(Printf.sprintf "forest/n=%d" n)
      (Staged.stage (fun () -> ignore (Core.Simulator.run Core.Forest_protocol.reconstruct g)))
  in
  let mk_gadget n =
    let g = Generators.gnp r n 0.3 in
    Test.make
      ~name:(Printf.sprintf "diameter-gadget/n=%d" n)
      (Staged.stage (fun () ->
           ignore (Distance.diameter_at_most (Core.Gadgets.diameter g 1 2) 3)))
  in
  let mk_sketch n =
    let g = Generators.random_connected r n 0.1 in
    let p = Core.Sketch_connectivity.protocol ~seed:7 () in
    Test.make
      ~name:(Printf.sprintf "sketch-connectivity/n=%d" n)
      (Staged.stage (fun () -> ignore (Core.Simulator.run p g)))
  in
  let mk_compact n k =
    let g = Generators.random_k_degenerate r n ~k in
    let p = Core.Degeneracy_protocol.reconstruct ~layout:Core.Degeneracy_protocol.Compact ~k () in
    Test.make
      ~name:(Printf.sprintf "compact-local/n=%d/k=%d" n k)
      (Staged.stage (fun () -> ignore (Core.Simulator.local_phase p g)))
  in
  let tests =
    [
      mk_local 256 2; mk_local 512 2; mk_local 1024 2; mk_local 512 4;
      mk_global 64 2; mk_global 128 2; mk_global 256 2; mk_global 128 4;
      mk_forest 1024; mk_forest 4096;
      mk_gadget 64; mk_gadget 128;
      mk_sketch 32; mk_sketch 64;
      mk_compact 512 2;
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  Printf.printf "%-28s %16s\n" "bench" "ns/run";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" [ test ]) in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-28s %16.0f\n" name est
          | _ -> Printf.printf "%-28s %16s\n" name "n/a")
        results)
    tests

(* ------------------------------------------------------------------ *)
(* S1/S2: multicore scaling of the simulation engine                    *)
(* ------------------------------------------------------------------ *)

let widths = [ 1; 2; 4; 8 ]

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best of [reps] timed runs (first call outside the timer warms the
   pool and the code paths). *)
let time_best ~reps f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let _, dt = wall f in
    if dt < !best then best := dt
  done;
  !best

type scaling_row = { workload : string; params : (string * string) list; times : (int * float) list; identical : bool }

let scaling_degeneracy () =
  let n = 1024 and k = 5 in
  Printf.printf "\nS1: degeneracy reconstruction (T1/T2-style), n=%d, k=%d\n" n k;
  let g = Generators.random_k_degenerate (rng ()) n ~k in
  let p = Core.Degeneracy_protocol.reconstruct ~k () in
  let reference = Core.Simulator.local_phase ~domains:1 p g in
  let identical = ref true in
  let times =
    List.map
      (fun d ->
        let msgs = Core.Simulator.local_phase ~domains:d p g in
        if not (Array.for_all2 Core.Message.equal reference msgs) then identical := false;
        let out, t = Core.Simulator.run ~domains:d p g in
        if out <> Some g || t.Core.Simulator.message_bits <> Array.map Core.Message.bits reference
        then identical := false;
        let dt = time_best ~reps:3 (fun () -> Core.Simulator.run ~domains:d p g) in
        Printf.printf "  domains=%d  %8.1f ms\n%!" d (1000.0 *. dt);
        (d, dt))
      widths
  in
  let t1 = List.assoc 1 times in
  List.iter (fun (d, dt) -> if d > 1 then Printf.printf "  (x%d vs sequential: %.2fx)\n" d (t1 /. dt)) times;
  Printf.printf "  transcripts byte-identical across widths: %b\n" !identical;
  { workload = "degeneracy-reconstruction"; params = [ ("n", string_of_int n); ("k", string_of_int k) ]; times; identical = !identical }

let scaling_gadget_sweep () =
  let n = 64 in
  Printf.printf "\nS2: diameter-gadget O(n^2) sweep (Theorem 2), n=%d\n" n;
  let g = Generators.gnp (rng ()) n 0.3 in
  let pairs = ref [] in
  for s = n downto 1 do
    for t = n downto s + 1 do
      pairs := (s, t) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  let sweep d =
    (* One pre-sized incremental builder per domain; verdicts land by
       pair index, so the vector is width-independent. *)
    Core.Parallel.map_array_ctx ~domains:d
      (fun () -> Core.Gadgets.Batch.diameter g)
      (fun batch (s, t) ->
        Distance.diameter_at_most (Core.Gadgets.Batch.instantiate batch ~s ~t) 3)
      pairs
  in
  let reference = sweep 1 in
  let identical = ref true in
  let times =
    List.map
      (fun d ->
        if sweep d <> reference then identical := false;
        let dt = time_best ~reps:3 (fun () -> sweep d) in
        Printf.printf "  domains=%d  %8.1f ms\n%!" d (1000.0 *. dt);
        (d, dt))
      widths
  in
  let t1 = List.assoc 1 times in
  List.iter (fun (d, dt) -> if d > 1 then Printf.printf "  (x%d vs sequential: %.2fx)\n" d (t1 /. dt)) times;
  (* Cross-check the incremental builder against the from-scratch gadget
     on a sample of pairs. *)
  let batch = Core.Gadgets.Batch.diameter g in
  Array.iteri
    (fun i (s, t) ->
      if i mod 97 = 0 && not (Graph.equal (Core.Gadgets.Batch.instantiate batch ~s ~t) (Core.Gadgets.diameter g s t))
      then identical := false)
    pairs;
  Printf.printf "  verdict vectors identical across widths: %b\n" !identical;
  { workload = "diameter-gadget-sweep"; params = [ ("n", string_of_int n); ("pairs", string_of_int (Array.length pairs)) ]; times; identical = !identical }

(* ------------------------------------------------------------------ *)
(* S3: streaming referees keep O(1) allocation per absorbed message     *)
(* ------------------------------------------------------------------ *)

type alloc_row = { referee_name : string; small_n : int; big_n : int; small_bytes : float; big_bytes : float }

(* Bytes allocated per [Protocol.feed] across a full n-message stream,
   measured with [Gc.allocated_bytes] deltas.  The state itself is
   allocated once at [Protocol.start]; what must not grow with [n] is
   the per-absorb cost. *)
let bytes_per_absorb referee ~n msgs ~check =
  let feed = ref (Core.Protocol.start referee ~n) in
  let before = Gc.allocated_bytes () in
  Array.iteri (fun i m -> feed := Core.Protocol.feed !feed ~id:(i + 1) m) msgs;
  let after = Gc.allocated_bytes () in
  check (Core.Protocol.finish !feed);
  (after -. before) /. float_of_int n

let forest_absorb_bytes n =
  let g = Generators.random_tree (rng ()) n in
  let msgs = Core.Simulator.local_phase Core.Forest_protocol.reconstruct g in
  bytes_per_absorb Core.Forest_protocol.reconstruct.Core.Protocol.referee ~n msgs
    ~check:(fun out ->
      match out with
      | Some h when Graph.equal g h -> ()
      | _ -> failwith "S3: forest referee failed to reconstruct after the timed feed")

let coalition_absorb_bytes n =
  let g = Generators.random_tree (rng ()) n in
  let parts = Core.Coalition.partition_by_ranges ~n ~parts:4 in
  let inbox = Array.make n Core.Message.empty in
  List.iter
    (fun members ->
      let view =
        { Core.Coalition.members; neighborhoods = List.map (fun v -> (v, Graph.neighbors g v)) members }
      in
      List.iter
        (fun (id, m) -> inbox.(id - 1) <- m)
        (Core.Connectivity_parts.decide.Core.Coalition.local ~n view))
    parts;
  bytes_per_absorb Core.Connectivity_parts.decide.Core.Coalition.referee ~n inbox
    ~check:(fun ok -> if not ok then failwith "S3: coalition referee rejected a connected tree")

let scaling_allocation () =
  Printf.printf "\nS3: streaming-referee allocation per absorb (Gc.allocated_bytes deltas)\n";
  let small_n = 512 and big_n = 4096 in
  let measure name per =
    ignore (per small_n);
    (* warm-up: one full stream outside the comparison *)
    let small_bytes = per small_n and big_bytes = per big_n in
    let ratio = big_bytes /. small_bytes in
    let ok = ratio < 2.0 && big_bytes < 2048.0 in
    Printf.printf "  %-24s n=%d: %7.1f B/absorb   n=%d: %7.1f B/absorb   ratio %.2f  %s\n"
      name small_n small_bytes big_n big_bytes ratio
      (if ok then "O(1) ok" else "NOT O(1)");
    if not ok then
      failwith (name ^ ": streaming referee allocates super-constant bytes per absorb");
    { referee_name = name; small_n; big_n; small_bytes; big_bytes }
  in
  let forest = measure "forest-reconstruct" forest_absorb_bytes in
  let coalition = measure "coalition-connectivity" coalition_absorb_bytes in
  [ forest; coalition ]

let write_scaling_json rows alloc_rows =
  let oc = open_out "BENCH_refnet.json" in
  let t1 row = List.assoc 1 row.times in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"refnet-scaling\",\n";
  Printf.fprintf oc "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"default_pool_width\": %d,\n" (Core.Parallel.domain_count ());
  Printf.fprintf oc "  \"workloads\": [\n";
  List.iteri
    (fun i row ->
      Printf.fprintf oc "    {\n      \"name\": \"%s\",\n" row.workload;
      List.iter (fun (key, v) -> Printf.fprintf oc "      \"%s\": %s,\n" key v) row.params;
      Printf.fprintf oc "      \"identical_outputs\": %b,\n" row.identical;
      Printf.fprintf oc "      \"runs\": [\n";
      List.iteri
        (fun j (d, dt) ->
          Printf.fprintf oc "        {\"domains\": %d, \"seconds\": %.6f, \"speedup\": %.3f}%s\n" d dt
            (t1 row /. dt)
            (if j = List.length row.times - 1 then "" else ","))
        row.times;
      Printf.fprintf oc "      ]\n    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"streaming_alloc_bytes_per_absorb\": [\n";
  List.iteri
    (fun i a ->
      Printf.fprintf oc
        "    {\"referee\": \"%s\", \"n_small\": %d, \"bytes_small\": %.1f, \"n_big\": %d, \"bytes_big\": %.1f, \"ratio\": %.3f}%s\n"
        a.referee_name a.small_n a.small_bytes a.big_n a.big_bytes
        (a.big_bytes /. a.small_bytes)
        (if i = List.length alloc_rows - 1 then "" else ","))
    alloc_rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_refnet.json\n"

let scaling () =
  section "S1-S3" "Multicore scaling and streaming-referee allocation";
  Printf.printf "(host reports %d recommended domain(s); speedups track physical cores)\n"
    (Domain.recommended_domain_count ());
  let s1 = scaling_degeneracy () in
  let s2 = scaling_gadget_sweep () in
  let s3 = scaling_allocation () in
  write_scaling_json [ s1; s2 ] s3

(* ------------------------------------------------------------------ *)
(* F-bench: fault campaign — hardening overhead and crash degradation  *)
(* ------------------------------------------------------------------ *)

type fault_overhead_row = {
  fo_name : string;
  fo_n : int;
  fo_plain_ns : float;
  fo_hardened_ns : float;
}

type fault_degrade_row = {
  fd_rate : float;
  fd_hits : int;
  fd_outcome : string;
  fd_determined : int;
}

(* Seconds for one full feed of [msgs] into a fresh referee, best of 5. *)
let feed_time referee ~n msgs =
  time_best ~reps:5 (fun () ->
      let feed = ref (Core.Protocol.start referee ~n) in
      Array.iteri (fun i m -> feed := Core.Protocol.feed !feed ~id:(i + 1) m) msgs;
      Core.Protocol.finish !feed)

let coalition_inbox (p : 'a Core.Coalition.t) g ~parts =
  Core.Coalition.collect p (Graph_source.of_graph g)
    ~parts:(Core.Coalition.partition_by_ranges ~n:(Graph.order g) ~parts)

let faults_overhead () =
  Printf.printf "\nF1: hardened-vs-plain referee absorb cost (clean channel, best of 5)\n";
  let row name n plain_t hardened_t =
    let per t = 1e9 *. t /. float_of_int n in
    Printf.printf "  %-24s n=%d  plain %7.1f ns/absorb   hardened %7.1f ns/absorb   x%.2f\n"
      name n (per plain_t) (per hardened_t) (hardened_t /. plain_t);
    { fo_name = name; fo_n = n; fo_plain_ns = per plain_t; fo_hardened_ns = per hardened_t }
  in
  (* Forest reconstruction over a random tree. *)
  let n = 2048 in
  let g = Generators.random_tree (rng ()) n in
  let plain = Core.Forest_protocol.reconstruct in
  let hardened = Core.Forest_protocol.hardened in
  let plain_msgs = Core.Simulator.local_phase plain g in
  let hard_msgs = Core.Simulator.local_phase hardened g in
  let clean = Core.Simulator.Faulty Core.Faults.empty in
  (match fst (Core.Simulator.run ~delivery:clean hardened g) with
  | Core.Verdict.Decided (Some h) when Graph.equal g h -> ()
  | _ -> failwith "F1: hardened forest referee not Decided on a clean channel");
  let forest =
    row "forest-reconstruct" n
      (feed_time plain.Core.Protocol.referee ~n plain_msgs)
      (feed_time hardened.Core.Protocol.referee ~n hard_msgs)
  in
  (* Coalition connectivity over the same tree, 4 coalitions. *)
  let cplain = Core.Connectivity_parts.decide in
  let chard = Core.Connectivity_parts.hardened in
  let cplain_inbox = coalition_inbox cplain g ~parts:4 in
  let chard_inbox = coalition_inbox chard g ~parts:4 in
  (match
     fst
       (Core.Coalition.run ~delivery:clean chard g
          ~parts:(Core.Coalition.partition_by_ranges ~n ~parts:4))
   with
  | Core.Verdict.Decided true -> ()
  | _ -> failwith "F1: hardened coalition referee not Decided on a clean channel");
  let coalition =
    row "coalition-connectivity" n
      (feed_time cplain.Core.Coalition.referee ~n cplain_inbox)
      (feed_time chard.Core.Coalition.referee ~n chard_inbox)
  in
  [ forest; coalition ]

let faults_degradation () =
  let n = 512 in
  Printf.printf
    "\nF2: forest reconstruction under crash faults (n=%d tree, seed-driven plans)\n" n;
  let g = Generators.random_tree (rng ()) n in
  List.map
    (fun rate ->
      let faults = Core.Faults.random ~seed:11 ~n ~crash:rate () in
      let verdict, t =
        Core.Simulator.run ~delivery:(Core.Simulator.Faulty faults) Core.Forest_protocol.hardened g
      in
      let hits = List.length t.Core.Simulator.faulted_ids in
      let outcome, determined =
        match verdict with
        | Core.Verdict.Decided (Some h) when Graph.equal g h -> ("decided", n)
        | Core.Verdict.Decided _ -> failwith "F2: wrong Decided under crash faults"
        | Core.Verdict.Degraded (Some h, report) ->
          (* Every surviving edge must be a true edge of g. *)
          List.iter
            (fun (u, v) ->
              if not (Graph.has_edge g u v) then failwith "F2: Degraded invented an edge")
            (Graph.edges h);
          ("degraded", n - List.length report.Core.Verdict.undetermined)
        | Core.Verdict.Degraded (None, report) ->
          ("degraded", n - List.length report.Core.Verdict.undetermined)
        | Core.Verdict.Inconclusive _ -> ("inconclusive", 0)
      in
      Printf.printf "  crash=%.2f  hits=%3d  %-12s determined %d/%d nodes\n" rate hits
        outcome determined n;
      { fd_rate = rate; fd_hits = hits; fd_outcome = outcome; fd_determined = determined })
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ]

let write_faults_json overhead sweep =
  let oc = open_out "BENCH_refnet.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"refnet-faults\",\n";
  Printf.fprintf oc "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"hardening_overhead_ns_per_absorb\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"protocol\": \"%s\", \"n\": %d, \"plain_ns\": %.1f, \"hardened_ns\": %.1f, \"ratio\": %.3f}%s\n"
        r.fo_name r.fo_n r.fo_plain_ns r.fo_hardened_ns
        (r.fo_hardened_ns /. r.fo_plain_ns)
        (if i = List.length overhead - 1 then "" else ","))
    overhead;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"crash_degradation_forest_n512\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"crash_rate\": %.2f, \"faults_hit\": %d, \"outcome\": \"%s\", \"determined_nodes\": %d}%s\n"
        r.fd_rate r.fd_hits r.fd_outcome r.fd_determined
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_refnet.json\n"

let faults () =
  section "F1-F2" "Fault campaign: hardening overhead and detect-or-degrade sweep";
  let overhead = faults_overhead () in
  let sweep = faults_degradation () in
  write_faults_json overhead sweep

(* ------------------------------------------------------------------ *)
(* M1: metrics-overhead microbench                                      *)
(* ------------------------------------------------------------------ *)

type metrics_row = {
  mr_name : string;
  mr_n : int;
  mr_plain_ns : float;  (** ns per run, no registry (the default fast path) *)
  mr_null_ns : float;  (** ns per run with an explicit Trace.null sink *)
  mr_live_ns : float;  (** ns per run with a live registry recording *)
  mr_overhead : float;  (** min over rounds of per-round live/plain *)
  mr_null_ratio : float;  (** same for null/plain — the noise control, ~1.0 *)
  mr_alloc_delta : float;  (** bytes per run: explicit-null minus plain *)
}

let alloc_per_run ~reps f =
  ignore (f ());
  let before = Gc.allocated_bytes () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Gc.allocated_bytes () -. before) /. float_of_int reps

let metrics_workload name n (plain : ?trace:Core.Trace.sink -> unit -> unit) live =
  let per t = 1e9 *. t /. float_of_int n in
  let null = fun () -> plain ~trace:Core.Trace.null () in
  let plain = fun () -> plain ?trace:None () in
  (* The host is noisy (shared cores, frequency drift), so absolute
     best-of times across variants are unreliable: plain and null are
     the same code path yet drift apart by several percent when timed
     in separate blocks.  Instead, each round times all three variants
     back-to-back and the overhead estimate is the {e median} of the
     per-round ratios live/plain — drift within a round hits both sides
     of a ratio, and the median discards the rounds a noise spike hit
     only one side of. *)
  ignore (plain ());
  ignore (null ());
  ignore (live ());
  let rounds = 15 in
  let plain_t = ref infinity and null_t = ref infinity and live_t = ref infinity in
  let null_ratios = Array.make rounds 0. and live_ratios = Array.make rounds 0. in
  for round = 0 to rounds - 1 do
    let _, pt = wall plain in
    let _, nt = wall null in
    let _, lt = wall live in
    if pt < !plain_t then plain_t := pt;
    if nt < !null_t then null_t := nt;
    if lt < !live_t then live_t := lt;
    null_ratios.(round) <- nt /. pt;
    live_ratios.(round) <- lt /. pt
  done;
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let null_ratio = ref (median null_ratios) and live_ratio = ref (median live_ratios) in
  let plain_t = !plain_t and null_t = !null_t and live_t = !live_t in
  let reps = 20 in
  (* An unobserved run must not even allocate differently: passing the
     Null sink explicitly takes the same branch as passing nothing. *)
  let alloc_delta = alloc_per_run ~reps null -. alloc_per_run ~reps plain in
  let overhead = !live_ratio in
  Printf.printf
    "  %-24s n=%d  plain %7.1f ns/node   null %7.1f ns/node   live %7.1f ns/node   overhead %.3fx (null control %.3fx)  null-alloc-delta %+.1f B\n"
    name n (per plain_t) (per null_t) (per live_t) overhead !null_ratio alloc_delta;
  if overhead > 1.05 then
    failwith (name ^ ": live metrics overhead exceeds the 5% budget");
  if Float.abs alloc_delta > 64.0 then
    failwith (name ^ ": the Null sink is not allocation-free");
  {
    mr_name = name;
    mr_n = n;
    mr_plain_ns = per plain_t;
    mr_null_ns = per null_t;
    mr_live_ns = per live_t;
    mr_overhead = overhead;
    mr_null_ratio = !null_ratio;
    mr_alloc_delta = alloc_delta;
  }

let metrics_overhead () =
  Printf.printf
    "\nM1: per-run cost of observability (best of 5; live = registry recording\n\
    \    every series Simulator documents, sampled absorb latency included)\n";
  let r = rng () in
  (* Forest reconstruction: cheap local phase, stream-dominated — the
     worst case for per-absorb instrumentation. *)
  let n = 4096 in
  let tree = Generators.random_tree r n in
  let forest =
    metrics_workload "forest-reconstruct" n
      (fun ?trace () -> ignore (Core.Simulator.run ~domains:1 ?trace Core.Forest_protocol.reconstruct tree))
      (fun () ->
        let m = Core.Metrics.create () in
        ignore (Core.Simulator.run ~domains:1 ~metrics:m Core.Forest_protocol.reconstruct tree))
  in
  (* Degeneracy reconstruction: encode/decode-dominated — the typical
     case, where instrumentation should disappear in the noise. *)
  let n = 512 and k = 3 in
  let g = Generators.random_k_degenerate r n ~k in
  let p = Core.Degeneracy_protocol.reconstruct ~k () in
  let degeneracy =
    metrics_workload "degeneracy-3-reconstruct" n
      (fun ?trace () -> ignore (Core.Simulator.run ~domains:1 ?trace p g))
      (fun () ->
        let m = Core.Metrics.create () in
        ignore (Core.Simulator.run ~domains:1 ~metrics:m p g))
  in
  [ forest; degeneracy ]

let write_metrics_json rows =
  let oc = open_out "BENCH_refnet.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"refnet-metrics\",\n";
  Printf.fprintf oc "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"overhead_budget\": 1.05,\n";
  Printf.fprintf oc "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"n\": %d, \"plain_ns_per_node\": %.1f, \"null_ns_per_node\": %.1f, \"live_ns_per_node\": %.1f, \"live_overhead\": %.3f, \"null_control_ratio\": %.3f, \"null_alloc_delta_bytes\": %.1f}%s\n"
        r.mr_name r.mr_n r.mr_plain_ns r.mr_null_ns r.mr_live_ns r.mr_overhead r.mr_null_ratio
        r.mr_alloc_delta
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_refnet.json\n"

let metrics_bench () =
  section "M1" "Metrics overhead: unobserved runs pay nothing, live stays under 5%";
  write_metrics_json (metrics_overhead ())

(* ------------------------------------------------------------------ *)
(* G1/G2: Graph_source campaign — backend equivalence, then the        *)
(* million-node frontier run                                           *)
(* ------------------------------------------------------------------ *)

type gs_equiv_row = { ge_family : string; ge_n : int; ge_identical : bool }

type gs_scale_row = {
  gs_n : int;
  gs_backend : string;
  gs_chunk : int option;
  gs_seconds : float;
  gs_ns_per_node : float;
  gs_alloc_bytes_per_node : float;
  gs_top_heap_bytes : int;  (** absolute process peak after the run *)
  gs_max_bits : int;
  gs_matches_implicit : bool;
      (** twin transcript bit-identical to the implicit run at this n *)
}

(* The whole-process high-water mark: the one number the incidence
   matrix cannot hide behind (at n = 10^6 it alone would be ~125 GB). *)
let top_heap_bytes () = 8 * (Gc.stat ()).Gc.top_heap_words

let gs_same (o1, (t1 : Core.Simulator.transcript)) (o2, (t2 : Core.Simulator.transcript)) =
  o1 = o2 && t1.Core.Simulator.message_bits = t2.Core.Simulator.message_bits

let graphsource_equivalence () =
  Printf.printf
    "\nG1: backend equivalence — forest recognition transcripts must be bit-identical\n\
    \    on materialized / CSR / implicit, at every chunk size and pool width\n";
  let p = Core.Forest_protocol.recognize in
  List.map
    (fun spec ->
      let imp = Implicit.parse spec in
      let g = Implicit.materialize imp in
      let n = Graph.order g in
      let reference = Core.Simulator.run p g in
      let identical = ref true in
      let check run = if not (gs_same reference (run ())) then identical := false in
      List.iter
        (fun (_, src) ->
          check (fun () -> Core.Simulator.run_source p src);
          List.iter
            (fun chunk -> check (fun () -> Core.Simulator.run_source ~chunk p src))
            [ 1; 7; 64; n ];
          check (fun () -> Core.Simulator.run_source ~domains:4 p src))
        [
          ("materialized", Graph_source.of_graph g);
          ("csr", Graph_source.of_csr (Csr.of_graph g));
          ("implicit", Graph_source.of_implicit imp);
        ];
      Printf.printf "  %-22s n=%4d  transcripts identical: %b\n" spec n !identical;
      if not !identical then failwith ("graphsource: backend divergence on " ^ spec);
      { ge_family = spec; ge_n = n; ge_identical = !identical })
    [
      "path:512"; "cycle:512"; "star:512"; "grid:16x32"; "hypercube:9";
      "regular:512:4:7"; "degenerate:512:3:5";
    ]

(* Peak-heap budget for the n = 10^6 implicit run: the referee tables
   (2 x 8 MB), the transcript (8 MB), the chunk of in-flight messages
   and GC slack — far under the 125 GB incidence matrix or even the
   ~60 MB full message vector an unchunked schedule would hold live. *)
let gs_heap_budget = 256 * 1024 * 1024

let graphsource_scaling () =
  Printf.printf
    "\nG2: forest recognition on implicit paths, chunked referee feed (chunk = 65536)\n";
  let p = Core.Forest_protocol.recognize in
  let chunk = 65536 in
  let rows = ref [] in
  let timed ~n ~backend ~chunk ~reps run =
    Gc.compact ();
    let a0 = Gc.allocated_bytes () in
    let (ok, t), dt = wall run in
    let alloc = (Gc.allocated_bytes () -. a0) /. float_of_int n in
    let dt = ref dt in
    for _ = 2 to reps do
      let _, d = wall run in
      if d < !dt then dt := d
    done;
    if not ok then failwith "graphsource: a path was not recognized as a forest";
    ( t,
      {
        gs_n = n;
        gs_backend = backend;
        gs_chunk = chunk;
        gs_seconds = !dt;
        gs_ns_per_node = 1e9 *. !dt /. float_of_int n;
        gs_alloc_bytes_per_node = alloc;
        gs_top_heap_bytes = top_heap_bytes ();
        gs_max_bits = t.Core.Simulator.max_bits;
        gs_matches_implicit = true;
      } )
  in
  let report r =
    Printf.printf
      "  n=%8d  %-13s %s  %8.1f ns/node  %7.1f B/node alloc  top-heap %5.1f MB  twin-identical %b\n"
      r.gs_n r.gs_backend
      (match r.gs_chunk with Some c -> Printf.sprintf "chunk=%-6d" c | None -> "unchunked   ")
      r.gs_ns_per_node r.gs_alloc_bytes_per_node
      (float_of_int r.gs_top_heap_bytes /. 1048576.0)
      r.gs_matches_implicit;
    rows := r :: !rows
  in
  List.iter
    (fun n ->
      let reps = if n >= 1_000_000 then 1 else 3 in
      let imp = Implicit.parse (Printf.sprintf "path:%d" n) in
      let src = Graph_source.of_implicit imp in
      let t_imp, row =
        timed ~n ~backend:"implicit:path" ~chunk:(Some chunk) ~reps (fun () ->
            Core.Simulator.run_source ~chunk p src)
      in
      report row;
      let twin backend mk =
        let s = mk () in
        let t2, row =
          timed ~n ~backend ~chunk:None ~reps (fun () -> Core.Simulator.run_source p s)
        in
        let matches = t2.Core.Simulator.message_bits = t_imp.Core.Simulator.message_bits in
        report { row with gs_matches_implicit = matches };
        if not matches then
          failwith (Printf.sprintf "graphsource: %s transcript diverges at n=%d" backend n)
      in
      (* CSR holds 2m+n+1 words — fine well past 10^5; the incidence
         matrix is n^2 bits, so the materialized twin stops at 10^4. *)
      if n <= 100_000 then twin "csr" (fun () -> Graph_source.of_csr (Graph_source.to_csr src));
      if n <= 10_000 then
        twin "materialized" (fun () -> Graph_source.of_graph (Graph_source.materialize src)))
    [ 1_000; 10_000; 100_000; 1_000_000 ];
  let rows = List.rev !rows in
  let peak = top_heap_bytes () in
  Printf.printf "  peak heap across the campaign: %.1f MB (budget %d MB)  %s\n"
    (float_of_int peak /. 1048576.0)
    (gs_heap_budget / 1048576)
    (if peak < gs_heap_budget then "O(frontier) ok" else "OVER BUDGET");
  if peak >= gs_heap_budget then
    failwith "graphsource: million-node campaign exceeded the peak-heap budget";
  (rows, peak)

let write_graphsource_json equiv rows peak =
  let oc = open_out "BENCH_refnet.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"refnet-graphsource\",\n";
  Printf.fprintf oc "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"equivalence\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    {\"family\": \"%s\", \"n\": %d, \"identical_transcripts\": %b}%s\n"
        r.ge_family r.ge_n r.ge_identical
        (if i = List.length equiv - 1 then "" else ","))
    equiv;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"forest_recognition_scaling\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"n\": %d, \"backend\": \"%s\", \"chunk\": %s, \"seconds\": %.6f, \
         \"ns_per_node\": %.1f, \"alloc_bytes_per_node\": %.1f, \"top_heap_bytes\": %d, \
         \"max_bits\": %d, \"transcript_matches_implicit\": %b}%s\n"
        r.gs_n r.gs_backend
        (match r.gs_chunk with Some c -> string_of_int c | None -> "null")
        r.gs_seconds r.gs_ns_per_node r.gs_alloc_bytes_per_node r.gs_top_heap_bytes r.gs_max_bits
        r.gs_matches_implicit
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"peak_heap_bytes\": %d,\n" peak;
  Printf.fprintf oc "  \"peak_heap_budget_bytes\": %d\n" gs_heap_budget;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_refnet.json\n"

let graphsource () =
  section "G1-G2" "Graph_source: backend equivalence and the million-node frontier run";
  let equiv = graphsource_equivalence () in
  let rows, peak = graphsource_scaling () in
  write_graphsource_json equiv rows peak

(* ------------------------------------------------------------------ *)
(* B1-B3: broadcast congested clique — rounds vs bits                   *)
(* ------------------------------------------------------------------ *)

(* The paper's one-round model needs Theta(n / log n)-bit messages for
   connectivity (Theorem 6 regime); the BCC campaign measures the
   escape route the closing question points at: a constant number of
   rounds at c * id_bits n bits per round decides it outright.  Every
   verdict is checked against the materialized oracle. *)

type bcc_row = {
  bc_family : string;
  bc_n : int;
  bc_bandwidth : int;
  bc_rounds_budget : int;
  bc_rounds_used : int;
  bc_bits_limit : int;
  bc_max_bits : int;
  bc_total_bits : int;
  bc_connected : bool;
  bc_ok : bool;
}

(* The deciding round: the last one that carried uplink bits — every
   later round is free-wheeling after the referee's resolved flag. *)
let bcc_rounds_used (t : Core.Bcc.transcript) =
  let last = ref 1 in
  Array.iteri (fun i b -> if b > 0 then last := i + 1) t.Core.Bcc.per_round_total_bits;
  !last

let bcc_sweep () =
  Printf.printf
    "\nB1: connectivity rounds-vs-bits sweep — implicit families x n x bandwidth c,\n\
    \    budget c * id_bits n per message, verdicts checked against the oracle\n\n";
  Printf.printf "  %-14s %6s %3s %7s %6s %10s %9s %11s %3s\n" "family" "n" "c" "budget"
    "rounds" "used" "max-bits" "total-bits" "ok";
  let rows = ref [] in
  List.iter
    (fun spec ->
      List.iter
        (fun n ->
          let fam = Implicit.parse_family spec n in
          let src = Graph_source.of_implicit fam in
          let oracle = Connectivity.is_connected (Implicit.materialize fam) in
          let max_degree = ref 0 in
          for v = 1 to n do
            max_degree := max !max_degree (Graph_source.degree src v)
          done;
          List.iter
            (fun bandwidth ->
              let rounds = Core.Bcc_connectivity.rounds_for ~bandwidth ~max_degree:!max_degree in
              let verdict, t =
                Core.Bcc.run_source ~chunk:4096
                  (Core.Bcc_connectivity.protocol ~rounds ~bandwidth ())
                  src
              in
              let ok = verdict = Some oracle in
              let row =
                {
                  bc_family = spec;
                  bc_n = n;
                  bc_bandwidth = bandwidth;
                  bc_rounds_budget = rounds;
                  bc_rounds_used = bcc_rounds_used t;
                  bc_bits_limit = t.Core.Bcc.bits_limit;
                  bc_max_bits = t.Core.Bcc.max_bits;
                  bc_total_bits = t.Core.Bcc.total_bits;
                  bc_connected = oracle;
                  bc_ok = ok;
                }
              in
              Printf.printf "  %-14s %6d %3d %7d %6d %10d %9d %11d %3b\n" spec n bandwidth
                t.Core.Bcc.bits_limit rounds row.bc_rounds_used row.bc_max_bits row.bc_total_bits
                ok;
              if not ok then
                failwith
                  (Printf.sprintf "bcc: wrong verdict on %s n=%d bandwidth=%d" spec n bandwidth);
              rows := row :: !rows)
            [ 1; 2; 4; 8 ])
        [ 512; 2048; 8192 ])
    [ "path"; "cycle"; "star"; "grid"; "hypercube"; "regular:4:7"; "degenerate:3:5" ];
  List.rev !rows

(* One-round anchors for the same decision problem: the deliberately
   non-frugal full-information protocol (n-bit rows) and the
   O(log^3 n)-bit sketch — the BCC rows above sit far under both. *)
let bcc_anchors () =
  Printf.printf
    "\nB2: one-round anchors — the message sizes the multi-round budget competes with\n\n";
  Printf.printf "  %-22s %6s %10s\n" "protocol" "n" "max-bits";
  let rows = ref [] in
  List.iter
    (fun n ->
      let g = Implicit.materialize (Implicit.parse_family "cycle" n) in
      let anchor label out_bits =
        Printf.printf "  %-22s %6d %10d\n" label n out_bits;
        rows := (label, n, out_bits) :: !rows
      in
      let h, t_full = Core.Simulator.run Core.Bounded_degree.full_information g in
      if not (Connectivity.is_connected h) then failwith "bcc: full-information oracle diverged";
      anchor "full-information" t_full.Core.Simulator.max_bits;
      (* The sketch is one-sided Monte Carlo — its verdict may miss; it
         anchors message size only. *)
      let _, t_sketch = Core.Simulator.run (Core.Sketch_connectivity.protocol ~seed:7 ()) g in
      anchor "sketch-connectivity" t_sketch.Core.Simulator.max_bits;
      let verdict, t_bcc =
        Core.Bcc.run (Core.Bcc_connectivity.protocol ~rounds:3 ~bandwidth:2 ()) g
      in
      if verdict <> Some true then failwith "bcc: connectivity missed a connected cycle";
      anchor "bcc-connectivity-2" t_bcc.Core.Bcc.max_bits)
    [ 512; 2048; 8192 ];
  List.rev !rows

(* Transcript equivalence of the engine itself: same labelled graph
   through all three backends, chunked and unchunked, one and four
   domains — byte-for-byte equal transcripts. *)
let bcc_equivalence () =
  Printf.printf
    "\nB3: engine equivalence — connectivity transcripts across backends, chunks, widths\n\n";
  List.map
    (fun spec ->
      let imp = Implicit.parse spec in
      let g = Implicit.materialize imp in
      let n = Graph.order g in
      let p = Core.Bcc_connectivity.protocol ~rounds:4 ~bandwidth:2 () in
      let reference = Core.Bcc.run p g in
      let identical = ref true in
      let check run = if run () <> reference then identical := false in
      List.iter
        (fun src ->
          check (fun () -> Core.Bcc.run_source p src);
          List.iter (fun chunk -> check (fun () -> Core.Bcc.run_source ~chunk p src)) [ 1; 7; n ];
          check (fun () -> Core.Bcc.run_source ~domains:4 p src))
        [
          Graph_source.of_graph g;
          Graph_source.of_csr (Csr.of_graph g);
          Graph_source.of_implicit imp;
        ];
      Printf.printf "  %-22s n=%4d  transcripts identical: %b\n" spec n !identical;
      if not !identical then failwith ("bcc: backend divergence on " ^ spec);
      (spec, n, !identical))
    [ "path:512"; "cycle:512"; "grid:16x32"; "regular:512:4:7"; "degenerate:512:3:5" ]

(* B4: the engine's memory at a million nodes — one connectivity run on
   the bcc-regular-1m circulant, on one domain so the allocation count
   covers the whole run.  It runs before B1-B3, so the process's peak
   heap is its own. *)
type bcc_memory_row = {
  bm_seconds : float;
  bm_alloc_bytes_per_node : float;
  bm_top_heap_bytes : int;
  bm_total_bits : int;
}

let bcc_memory_spec = "implicit:regular:1000000:4:1"

let bcc_memory () =
  Printf.printf "\nB4: engine memory — one connectivity run on %s, bandwidth 2, one domain\n\n"
    bcc_memory_spec;
  let src = Graph_source.parse bcc_memory_spec in
  let n = Graph_source.order src in
  let bandwidth = 2 in
  let rounds = Core.Bcc_connectivity.rounds_for ~bandwidth ~max_degree:(Graph_source.degree src 1) in
  let offsets = List.map (fun v -> v - 1) (Graph_source.neighbors src 1) in
  let oracle = Core.Bcc_connectivity.circulant_connected ~n offsets in
  Gc.compact ();
  let a0 = Gc.allocated_bytes () in
  let (verdict, t), dt =
    wall (fun () ->
        Core.Bcc.run_source ~domains:1 (Core.Bcc_connectivity.protocol ~rounds ~bandwidth ()) src)
  in
  let row =
    {
      bm_seconds = dt;
      bm_alloc_bytes_per_node = (Gc.allocated_bytes () -. a0) /. float_of_int n;
      bm_top_heap_bytes = top_heap_bytes ();
      bm_total_bits = t.Core.Bcc.total_bits;
    }
  in
  Printf.printf "  %.2f s  %.1f B/node alloc  top-heap %.1f MB  total %d bits\n" row.bm_seconds
    row.bm_alloc_bytes_per_node
    (float_of_int row.bm_top_heap_bytes /. 1048576.0)
    row.bm_total_bits;
  if verdict <> Some oracle then failwith "bcc: wrong verdict on the million-node circulant";
  row

(* The commit of the measured library: HEAD, suffixed [-dirty] when
   [lib/] or [bin/] differ from it; "unknown" outside a git checkout. *)
let source_commit () =
  let read cmd =
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try Some (input_line ic) with End_of_file -> None in
    (line, Unix.close_process_in ic)
  in
  match read "git rev-parse --short HEAD" with
  | Some head, Unix.WEXITED 0 -> (
    match read "git diff --quiet HEAD -- lib bin" with
    | _, Unix.WEXITED 0 -> head
    | _ -> head ^ "-dirty")
  | _ -> "unknown"

let host_json () =
  Printf.sprintf "{\"nproc\": %d, \"ocaml\": \"%s\", \"commit\": \"%s\"}"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (source_commit ())

(* B4 rows accumulate: each is one line starting with [b4_prefix], and
   the rows of an earlier BENCH_bcc.json are kept ahead of the new one,
   so runs at two commits leave both rows in the file. *)
let b4_prefix = "    {\"host\": "

let earlier_b4_rows file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
    String.split_on_char '\n' text
    |> List.filter (String.starts_with ~prefix:b4_prefix)
    |> List.map (fun row ->
           if String.ends_with ~suffix:"," row then String.sub row 0 (String.length row - 1)
           else row)

let write_bcc_json sweep anchors equiv memory =
  let file = "BENCH_bcc.json" in
  let host = host_json () in
  let b4 =
    earlier_b4_rows file
    @ [
        Printf.sprintf
          "%s%s, \"source\": \"%s\", \"domains\": 1, \"seconds\": %.3f, \
           \"alloc_bytes_per_node\": %.1f, \"top_heap_bytes\": %d, \"total_bits\": %d}"
          b4_prefix host bcc_memory_spec memory.bm_seconds memory.bm_alloc_bytes_per_node
          memory.bm_top_heap_bytes memory.bm_total_bits;
      ]
  in
  let oc = open_out file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"refnet-bcc\",\n";
  Printf.fprintf oc "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"host\": %s,\n" host;
  Printf.fprintf oc "  \"connectivity_sweep\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"family\": \"%s\", \"n\": %d, \"bandwidth\": %d, \"bits_per_round\": %d, \
         \"rounds_budget\": %d, \"rounds_used\": %d, \"max_bits\": %d, \"total_bits\": %d, \
         \"connected\": %b, \"verdict_ok\": %b}%s\n"
        r.bc_family r.bc_n r.bc_bandwidth r.bc_bits_limit r.bc_rounds_budget r.bc_rounds_used
        r.bc_max_bits r.bc_total_bits r.bc_connected r.bc_ok
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"one_round_anchors\": [\n";
  List.iteri
    (fun i (label, n, bits) ->
      Printf.fprintf oc "    {\"protocol\": \"%s\", \"n\": %d, \"max_bits\": %d}%s\n" label n bits
        (if i = List.length anchors - 1 then "" else ","))
    anchors;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"equivalence\": [\n";
  List.iteri
    (fun i (spec, n, same) ->
      Printf.fprintf oc "    {\"family\": \"%s\", \"n\": %d, \"identical_transcripts\": %b}%s\n"
        spec n same
        (if i = List.length equiv - 1 then "" else ","))
    equiv;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"engine_memory\": [\n%s\n  ]\n" (String.concat ",\n" b4);
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" file

let bcc_bench () =
  section "B1-B4" "Broadcast congested clique: rounds-vs-bits sweep, engine equivalence and memory";
  let memory = bcc_memory () in
  let sweep = bcc_sweep () in
  let anchors = bcc_anchors () in
  let equiv = bcc_equivalence () in
  write_bcc_json sweep anchors equiv memory

let tables () =
  experiment_f1 ();
  experiment_f2 ();
  experiment_t1 ();
  experiment_t2 ();
  experiment_t3 ();
  experiment_reductions ();
  experiment_t7 ();
  experiment_t9 ();
  experiment_t10 ();
  experiment_t11 ();
  experiment_t12 ();
  experiment_t13 ();
  experiment_t14 ();
  experiment_t15 ();
  experiment_t16 ();
  experiment_t17 ();
  experiment_t18 ();
  experiment_t19 ()

(* ---------- D1: the serve daemon under load and chaos ---------- *)

(* The whole campaign runs through the in-process selftest: the same
   byte path a socket client exercises, minus the kernel, so rates are
   engine rates, not loopback rates.  Each run re-checks the robustness
   gates (no wrong Decided, no quarantine escapes, no unterminated
   sessions); a violated gate aborts the bench loudly. *)
let serve_run ~sessions ~faulty =
  let cfg =
    { Serve.Selftest.default_cfg with sessions; conns = 64; faulty }
  in
  let o = Serve.Selftest.run cfg in
  (match Serve.Selftest.passed o with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "D1: selftest gate violated: %s" e));
  o

let serve_clean () =
  Printf.printf "\n-- D1a: clean throughput (protocol=count, n=8) --\n%!";
  let o = serve_run ~sessions:20_000 ~faulty:0.0 in
  Printf.printf "  %d sessions in %.2fs  ->  %.0f sessions/s (all decided: %b)\n"
    o.Serve.Selftest.o_sessions o.Serve.Selftest.o_wall_s o.Serve.Selftest.o_rate
    (o.Serve.Selftest.o_decided = o.Serve.Selftest.o_sessions);
  o

let serve_chaos_sweep () =
  Printf.printf "\n-- D1b: chaos sweep (rising faulty fraction) --\n%!";
  List.map
    (fun faulty ->
      let o = serve_run ~sessions:8_000 ~faulty in
      Printf.printf
        "  faulty=%.2f  decided=%d degraded=%d inconclusive=%d aborted=%d  \
         quarantines=%d timeouts=%d+%d  %.0f/s\n%!"
        faulty o.Serve.Selftest.o_decided o.Serve.Selftest.o_degraded
        o.Serve.Selftest.o_inconclusive o.Serve.Selftest.o_aborted
        o.Serve.Selftest.o_quarantines o.Serve.Selftest.o_timeouts_idle
        o.Serve.Selftest.o_timeouts_deadline o.Serve.Selftest.o_rate;
      (faulty, o))
    [ 0.0; 0.05; 0.1; 0.2; 0.3 ]

let write_serve_json clean sweep =
  let oc = open_out "BENCH_refnet.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"refnet-serve\",\n";
  Printf.fprintf oc "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"clean_throughput\": {\"protocol\": \"%s\", \"n\": %d, \"sessions\": %d, \"wall_s\": %.3f, \"sessions_per_s\": %.0f},\n"
    clean.Serve.Selftest.o_protocol clean.Serve.Selftest.o_n
    clean.Serve.Selftest.o_sessions clean.Serve.Selftest.o_wall_s
    clean.Serve.Selftest.o_rate;
  Printf.fprintf oc "  \"chaos_sweep\": [\n";
  List.iteri
    (fun i (faulty, o) ->
      Printf.fprintf oc
        "    {\"faulty\": %.2f, \"sessions\": %d, \"decided\": %d, \"degraded\": %d, \
         \"inconclusive\": %d, \"aborted\": %d, \"quarantines\": %d, \
         \"quarantine_escapes\": %d, \"timeouts_idle\": %d, \"timeouts_deadline\": %d, \
         \"wrong_decided\": %d, \"sessions_per_s\": %.0f}%s\n"
        faulty o.Serve.Selftest.o_sessions o.Serve.Selftest.o_decided
        o.Serve.Selftest.o_degraded o.Serve.Selftest.o_inconclusive
        o.Serve.Selftest.o_aborted o.Serve.Selftest.o_quarantines
        o.Serve.Selftest.o_escapes o.Serve.Selftest.o_timeouts_idle
        o.Serve.Selftest.o_timeouts_deadline o.Serve.Selftest.o_wrong_decided
        o.Serve.Selftest.o_rate
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_refnet.json\n"

let serve_bench () =
  section "D1" "Referee daemon: session throughput and chaos degradation";
  let clean = serve_clean () in
  let sweep = serve_chaos_sweep () in
  write_serve_json clean sweep

(* ---------- D2: flight-recorder overhead ---------- *)

(* Rings on vs rings off under the same chaos mix, timed back-to-back
   per round.  The gate compares the best-of-rounds times: noise on a
   shared host only ever makes a run slower, so the minima are the two
   clean measurements.  The recorder must cost < 5% or operators will
   switch it off exactly when the evidence matters. *)
let flight_bench () =
  section "D2" "Flight recorder: ring cost under chaos must stay under 5%";
  let sessions = 16_000 and faulty = 0.2 in
  let cfg = { Serve.Selftest.default_cfg with sessions; conns = 64; faulty } in
  let fl = Core.Flight.create ~capacity:(1 lsl 16) () in
  let gate o =
    match Serve.Selftest.passed o with
    | Ok () -> o
    | Error e -> failwith ("D2: selftest gate violated: " ^ e)
  in
  let off () = gate (Serve.Selftest.run cfg) in
  let on () =
    Core.Flight.reset fl;
    gate (Serve.Selftest.run ~flight:fl cfg)
  in
  (* warm both variants before timing *)
  ignore (off ());
  ignore (on ());
  let rounds = 5 in
  let off_best = ref infinity and on_best = ref infinity in
  let last_on = ref None in
  for round = 0 to rounds - 1 do
    let o_off = off () in
    let o_on = on () in
    last_on := Some o_on;
    let t_off = o_off.Serve.Selftest.o_wall_s and t_on = o_on.Serve.Selftest.o_wall_s in
    if t_off < !off_best then off_best := t_off;
    if t_on < !on_best then on_best := t_on;
    Printf.printf "  round %d: off %.3fs  on %.3fs  ratio %.3f\n%!" (round + 1) t_off t_on
      (t_on /. t_off)
  done;
  let overhead = !on_best /. !off_best in
  let o_on = match !last_on with Some o -> o | None -> failwith "D2: no timed run" in
  let dump_bytes = String.length (Core.Flight.dump fl) in
  Printf.printf
    "  sessions=%d faulty=%.2f  best off %.3fs  on %.3fs  best-of overhead %.3fx  \
     recorded=%d dropped=%d dump=%d B\n"
    sessions faulty !off_best !on_best overhead o_on.Serve.Selftest.o_flight_recorded
    o_on.Serve.Selftest.o_flight_dropped dump_bytes;
  if overhead > 1.05 then failwith "D2: flight recorder overhead exceeds the 5% budget";
  let oc = open_out "BENCH_refnet.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"refnet-flight\",\n";
  Printf.fprintf oc "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"overhead_budget\": 1.05,\n";
  Printf.fprintf oc "  \"sessions\": %d,\n" sessions;
  Printf.fprintf oc "  \"faulty\": %.2f,\n" faulty;
  Printf.fprintf oc "  \"off_best_s\": %.4f,\n" !off_best;
  Printf.fprintf oc "  \"on_best_s\": %.4f,\n" !on_best;
  Printf.fprintf oc "  \"best_of_overhead\": %.4f,\n" overhead;
  Printf.fprintf oc "  \"flight_recorded\": %d,\n" o_on.Serve.Selftest.o_flight_recorded;
  Printf.fprintf oc "  \"flight_dropped\": %d,\n" o_on.Serve.Selftest.o_flight_dropped;
  Printf.fprintf oc "  \"flight_findings\": %d,\n" o_on.Serve.Selftest.o_flight_findings;
  Printf.fprintf oc "  \"dump_bytes\": %d\n" dump_bytes;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_refnet.json\n"

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match mode with
  | "tables" -> tables ()
  | "timings" -> timing_benches ()
  | "scaling" -> scaling ()
  | "faults" -> faults ()
  | "metrics" -> metrics_bench ()
  | "graphsource" -> graphsource ()
  | "bcc" -> bcc_bench ()
  | "serve" -> serve_bench ()
  | "flight" -> flight_bench ()
  | _ ->
    tables ();
    timing_benches ();
    scaling ();
    faults ();
    metrics_bench ();
    graphsource ();
    bcc_bench ());
  Printf.printf "\n%s\nAll experiments completed.\n" line
