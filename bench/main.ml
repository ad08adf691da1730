(* Experiment harness: regenerates every figure and quantitative claim of
   the paper (see DESIGN.md section 4 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured commentary).

   Usage:
     main.exe            the tables, the timing benches and the faults,
                         metrics and bcc campaigns
     main.exe tables     only the experiment tables (fast)
     main.exe timings    only the Bechamel timing benches
     main.exe faults     fault campaign (F1/F2): hardened-vs-plain absorb
                         cost and crash-rate degradation
     main.exe metrics    metrics-overhead microbench (M1): unobserved runs
                         pay nothing, live registries stay under 5%
     main.exe bcc        broadcast congested clique (B1/B2): connectivity
                         rounds-vs-bits sweep over the implicit families with
                         oracle-checked verdicts, and one-round anchors
     main.exe flight     flight-recorder overhead (D2): the chaos selftest
                         with rings on vs off, median-of-ratios overhead
                         gated under 5%
     main.exe record     reads the stdout of [python3 perfbench/run.py]
                         on stdin and appends it as one BENCH_perf row;
                         exits 2 on input of any other shape
     main.exe compare OLD NEW
                         compares two BENCH_perf row sets (FILE, or
                         FILE@COMMIT for one host commit's rows) by the
                         median of each BENCHMARK.json end-to-end metric
                         per workload; exits 1 on a regression past the
                         metric's bound, 2 on unreadable input

   A campaign appends its rows, one JSON object per line, to
   BENCH_<campaign>.jsonl; earlier rows are kept.  The tables and the
   timing benches only print. *)

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
(* Campaign output: one append-only row file per campaign               *)
(* ------------------------------------------------------------------ *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null
  | Obj of (string * json) list

let rec json_to_string = function
  | Null -> "null"
  | Int i -> string_of_int i
  | Float f -> if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
  | Str s -> Core.Trace.json_string s
  | Bool b -> string_of_bool b
  | Obj fields ->
    let field (key, v) = Core.Trace.json_string key ^ ": " ^ json_to_string v in
    "{" ^ String.concat ", " (List.map field fields) ^ "}"

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
  Obj
    [
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version);
      ("commit", Str (source_commit ()));
    ]

(* [append_rows ~campaign rows] appends each [(table, fields)] row to
   BENCH_<campaign>.jsonl as one JSON object line, led by the campaign,
   the table, the time and the host.  The file is never read back or
   rewritten, so runs at two commits leave both runs' rows. *)
let append_rows ~campaign rows =
  let file = Printf.sprintf "BENCH_%s.jsonl" campaign in
  let stamp = [ ("unix_time", Int (int_of_float (Unix.time ()))); ("host", host_json ()) ] in
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat; Open_text ] 0o644 file
    (fun oc ->
      List.iter
        (fun (table, fields) ->
          let row = ("campaign", Str campaign) :: ("table", Str table) :: (stamp @ fields) in
          Out_channel.output_string oc (json_to_string (Obj row) ^ "\n"))
        rows);
  Printf.printf "\nappended %d rows to %s\n" (List.length rows) file

(* ------------------------------------------------------------------ *)
(* record: one perfbench result as a BENCH_perf row                     *)
(* ------------------------------------------------------------------ *)

exception Bad_input of string

let rec json_of_report = function
  | Core.Report.S s -> Str s
  | I i -> Int i
  | F f -> Float f
  | B b -> Bool b
  | Null -> Null
  | O fields -> Obj (List.map (fun (k, v) -> (k, json_of_report v)) fields)
  | A _ -> raise (Bad_input "arrays are not recorded")

(* [fields_of ~what line spec] parses the JSON object [line] and keeps
   the key of every [(key, ok)] of [spec], checking its value with [ok]. *)
let fields_of ~what line spec =
  let fields =
    try Core.Report.parse_line line
    with Core.Report.Parse msg -> raise (Bad_input (Printf.sprintf "%s: %s" what msg))
  in
  List.map
    (fun (key, ok) ->
      match List.assoc_opt key fields with
      | Some v when ok v -> (key, json_of_report v)
      | Some _ -> raise (Bad_input (Printf.sprintf "%s: %S has the wrong type" what key))
      | None -> raise (Bad_input (Printf.sprintf "%s: no %S" what key)))
    spec

let is_str = function Core.Report.S _ -> true | _ -> false
let is_int = function Core.Report.I _ -> true | _ -> false

(* [record ()] reads the stdout of [python3 perfbench/run.py] on stdin
   and appends one row to BENCH_perf.jsonl.  The table is the workload;
   the row's host is the recording checkout's, as for every campaign,
   and perfbench's own host block, run parameters and result ride
   along.  Exits 2 on input of any other shape. *)
let record () =
  let lines =
    In_channel.input_all stdin |> String.split_on_char '\n' |> List.filter (fun l -> String.trim l <> "")
  in
  let after prefix =
    match List.find_opt (String.starts_with ~prefix) lines with
    | Some l -> String.sub l (String.length prefix) (String.length l - String.length prefix)
    | None -> raise (Bad_input (Printf.sprintf "no %S line" prefix))
  in
  match
    let host =
      fields_of ~what:"host" (after "host: ")
        [ ("nproc", is_int); ("ocaml", is_str); ("commit", is_str); ("pool_width", is_str) ]
    in
    let run =
      fields_of ~what:"run" (after "run: ")
        [
          ("workload", is_str);
          ("seed", is_int);
          ("seconds", function Core.Report.I _ | F _ -> true | _ -> false);
          ("trace", is_int);
        ]
    in
    let result =
      fields_of ~what:"result"
        (match List.rev lines with last :: _ -> last | [] -> "")
        [
          ("correct", function Core.Report.B _ -> true | _ -> false);
          ("attempted", is_int);
          ("failed", is_int);
          ("metrics", function Core.Report.O _ -> true | _ -> false);
        ]
    in
    let workload = match run with (_, Str w) :: _ -> w | _ -> "" in
    (workload, [ ("perf_host", Obj host); ("run", Obj run) ] @ result)
  with
  | table, fields -> append_rows ~campaign:"perf" [ (table, fields) ]
  | exception Bad_input msg ->
    Printf.eprintf "main.exe record: %s\n" msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* compare: two BENCH_perf row sets, median per workload and metric     *)
(* ------------------------------------------------------------------ *)

let number = function Core.Report.I i -> Some (float_of_int i) | F f -> Some f | _ -> None
let num key fields = Option.bind (List.assoc_opt key fields) number

let rec field path fields =
  match path with
  | [] -> None
  | [ key ] -> List.assoc_opt key fields
  | key :: rest -> (
    match List.assoc_opt key fields with Some (Core.Report.O o) -> field rest o | _ -> None)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* The end-to-end metrics of BENCHMARK.json (read only), as
   [(name, higher_is_better, bound)]. *)
let end_to_end_bounds () =
  let fields =
    try Core.Report.parse_line (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)
    with
    | Sys_error msg -> raise (Bad_input msg)
    | Core.Report.Parse msg -> raise (Bad_input ("BENCHMARK.json: " ^ msg))
  in
  match List.assoc_opt "end_to_end" fields with
  | Some (Core.Report.A metrics) ->
    List.map
      (function
        | Core.Report.O m -> (
          match (List.assoc_opt "name" m, List.assoc_opt "better" m, num "bound" m) with
          | Some (S name), Some (S better), Some bound -> (name, better = "higher", bound)
          | _ -> raise (Bad_input "BENCHMARK.json: an end_to_end metric lacks name, better or bound"))
        | _ -> raise (Bad_input "BENCHMARK.json: end_to_end holds a non-object"))
      metrics
  | _ -> raise (Bad_input "BENCHMARK.json: no end_to_end list")

(* [perf_rows spec] is the untraced rows of [spec] -- FILE, or FILE@COMMIT
   for only the rows whose [host.commit] is COMMIT -- grouped by
   workload, each row as its parsed fields. *)
let perf_rows spec =
  let file, commit =
    match String.rindex_opt spec '@' with
    | Some i -> (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
    | None -> (spec, None)
  in
  let lines =
    try In_channel.with_open_text file In_channel.input_all |> String.split_on_char '\n'
    with Sys_error msg -> raise (Bad_input msg)
  in
  let groups = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        let row =
          try Core.Report.parse_line line
          with Core.Report.Parse msg -> raise (Bad_input (Printf.sprintf "%s:%d: %s" file (i + 1) msg))
        in
        let wanted =
          (match commit with None -> true | Some c -> field [ "host"; "commit" ] row = Some (S c))
          && field [ "run"; "trace" ] row = Some (I 0)
        in
        match List.assoc_opt "table" row with
        | Some (S table) when wanted ->
          let earlier = Option.value ~default:[] (Hashtbl.find_opt groups table) in
          Hashtbl.replace groups table (row :: earlier)
        | _ -> ()
      end)
    lines;
  if Hashtbl.length groups = 0 then raise (Bad_input (spec ^ ": no untraced rows"));
  groups

(* A row's value of an end-to-end metric, or of [failed_share] (the
   share of its attempted operations that failed). *)
let row_value row = function
  | "failed_share" -> (
    match (num "failed" row, num "attempted" row) with
    | Some f, Some a when a > 0. -> Some (f /. a)
    | _ -> None)
  | metric -> Option.bind (field [ "metrics"; metric; "value" ] row) number

(* [compare_rows old_spec new_spec] prints, per workload both sets ran,
   each end-to-end metric's median in OLD and NEW, and flags a
   regression when NEW is worse by more than the metric's bound, or
   fails a larger share of its operations.  Exits 1 on any regression;
   raises [Bad_input] on input it cannot read. *)
let compare_rows old_spec new_spec =
  let metrics = end_to_end_bounds () @ [ ("failed_share", false, 0.) ] in
  let old_rows = perf_rows old_spec and new_rows = perf_rows new_spec in
  let workloads =
    Hashtbl.fold (fun w _ acc -> if Hashtbl.mem new_rows w then w :: acc else acc) old_rows []
    |> List.sort String.compare
  in
  if workloads = [] then raise (Bad_input "the two row sets share no workload");
  let regressions = ref 0 in
  Printf.printf "%-18s %-16s %5s %12s %12s %8s  %s\n" "workload" "metric" "rows" "old" "new" "change"
    "verdict";
  List.iter
    (fun w ->
      let olds = Hashtbl.find old_rows w and news = Hashtbl.find new_rows w in
      let rows = Printf.sprintf "%d/%d" (List.length olds) (List.length news) in
      List.iter
        (fun (metric, higher, bound) ->
          let values rows = List.filter_map (fun row -> row_value row metric) rows in
          match (values olds, values news) with
          | [], _ | _, [] -> ()
          | vo, vn ->
            let o = median vo and n = median vn in
            let worse = if higher then n < o *. (1. -. bound) else n > o *. (1. +. bound) in
            if worse then incr regressions;
            Printf.printf "%-18s %-16s %5s %12.4g %12.4g %+7.1f%%  %s\n" w metric rows o n
              (if o = 0. then 0. else 100. *. ((n /. o) -. 1.))
              (if worse then "REGRESSION" else "ok"))
        metrics)
    workloads;
  Printf.printf "\n%d regression(s) over %d workload(s)\n" !regressions (List.length workloads);
  if !regressions > 0 then exit 1

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Overhead timing for the 5% budgets (M1, D2).  The host is noisy
   (shared cores, frequency drift), so best-of times taken in separate
   blocks are unreliable: two variants running the same code drift
   apart by several percent.  Instead each round runs every variant
   back-to-back, and a variant's overhead is the median over rounds of
   its time divided by the baseline's (variant 0) in the same round:
   drift within a round hits both sides of a ratio, and the median
   discards the rounds a noise spike hit only one side of.  Each run
   returns its own seconds; the result is, per variant, the best time
   and that median ratio. *)
let interleaved_rounds runs =
  let rounds = 15 in
  Array.iter (fun run -> ignore (run ())) runs;
  let times = Array.map (fun _ -> Array.make rounds 0.) runs in
  for round = 0 to rounds - 1 do
    Array.iteri (fun i run -> times.(i).(round) <- run ()) runs
  done;
  Array.map
    (fun t ->
      let ratios = Array.map2 ( /. ) t times.(0) in
      Array.sort compare ratios;
      (Array.fold_left Float.min infinity t, ratios.(rounds / 2)))
    times

(* ------------------------------------------------------------------ *)
(* F-bench: fault campaign — hardening overhead and crash degradation  *)
(* ------------------------------------------------------------------ *)

(* Seconds for one full feed of [msgs] into a fresh referee, best of 5
   (one untimed feed first warms the code paths). *)
let feed_time referee ~n msgs =
  let run () =
    let feed = ref (Core.Protocol.start referee ~n) in
    Array.iteri (fun i m -> feed := Core.Protocol.feed !feed ~id:(i + 1) m) msgs;
    Core.Protocol.finish !feed
  in
  ignore (run ());
  List.fold_left Float.min infinity (List.init 5 (fun _ -> snd (wall run)))

let coalition_inbox (p : 'a Core.Coalition.t) g ~parts =
  Core.Coalition.collect p (Graph_source.of_graph g)
    ~parts:(Core.Coalition.partition_by_ranges ~n:(Graph.order g) ~parts)

let faults_overhead () =
  Printf.printf "\nF1: hardened-vs-plain referee absorb cost (clean channel, best of 5)\n";
  let row name n plain_t hardened_t =
    let per t = 1e9 *. t /. float_of_int n in
    Printf.printf "  %-24s n=%d  plain %7.1f ns/absorb   hardened %7.1f ns/absorb   x%.2f\n"
      name n (per plain_t) (per hardened_t) (hardened_t /. plain_t);
    ( "hardening_overhead_ns_per_absorb",
      [
        ("protocol", Str name);
        ("n", Int n);
        ("plain_ns", Float (per plain_t));
        ("hardened_ns", Float (per hardened_t));
        ("ratio", Float (hardened_t /. plain_t));
      ] )
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
      ( "crash_degradation_forest_n512",
        [
          ("crash_rate", Float rate);
          ("faults_hit", Int hits);
          ("outcome", Str outcome);
          ("determined_nodes", Int determined);
        ] ))
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ]

let faults () =
  section "F1-F2" "Fault campaign: hardening overhead and detect-or-degrade sweep";
  let overhead = faults_overhead () in
  let sweep = faults_degradation () in
  append_rows ~campaign:"faults" (overhead @ sweep)

(* ------------------------------------------------------------------ *)
(* M1: metrics-overhead microbench                                      *)
(* ------------------------------------------------------------------ *)

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
  let seconds f () = snd (wall f) in
  let timed = interleaved_rounds [| seconds plain; seconds null; seconds live |] in
  let plain_t, _ = timed.(0) and null_t, null_ratio = timed.(1) and live_t, overhead = timed.(2) in
  let reps = 20 in
  (* An unobserved run must not even allocate differently: passing the
     Null sink explicitly takes the same branch as passing nothing. *)
  let alloc_delta = alloc_per_run ~reps null -. alloc_per_run ~reps plain in
  Printf.printf
    "  %-24s n=%d  plain %7.1f ns/node   null %7.1f ns/node   live %7.1f ns/node   overhead %.3fx (null control %.3fx)  null-alloc-delta %+.1f B\n"
    name n (per plain_t) (per null_t) (per live_t) overhead null_ratio alloc_delta;
  if overhead > 1.05 then
    failwith (name ^ ": live metrics overhead exceeds the 5% budget");
  if Float.abs alloc_delta > 64.0 then
    failwith (name ^ ": the Null sink is not allocation-free");
  ( "overhead",
    [
      ("name", Str name);
      ("n", Int n);
      ("overhead_budget", Float 1.05);
      ("plain_ns_per_node", Float (per plain_t));
      ("null_ns_per_node", Float (per null_t));
      ("live_ns_per_node", Float (per live_t));
      ("live_overhead", Float overhead);
      ("null_control_ratio", Float null_ratio);
      ("null_alloc_delta_bytes", Float alloc_delta);
    ] )

let metrics_bench () =
  section "M1" "Metrics overhead: unobserved runs pay nothing, live stays under 5%";
  Printf.printf
    "\nM1: per-run cost of observability (median of 15 interleaved rounds; live =\n\
    \    registry recording every series Simulator documents, sampled absorb\n\
    \    latency included)\n";
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
  append_rows ~campaign:"metrics" [ forest; degeneracy ]

(* ------------------------------------------------------------------ *)
(* B1, B2: broadcast congested clique — rounds vs bits                 *)
(* ------------------------------------------------------------------ *)

(* The paper's one-round model needs Theta(n / log n)-bit messages for
   connectivity (Theorem 6 regime); the BCC campaign measures the
   escape route the closing question points at: a constant number of
   rounds at c * id_bits n bits per round decides it outright.  Every
   verdict is checked against the materialized oracle. *)

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
              let used = bcc_rounds_used t in
              Printf.printf "  %-14s %6d %3d %7d %6d %10d %9d %11d %3b\n" spec n bandwidth
                t.Core.Bcc.bits_limit rounds used t.Core.Bcc.max_bits t.Core.Bcc.total_bits ok;
              if not ok then
                failwith
                  (Printf.sprintf "bcc: wrong verdict on %s n=%d bandwidth=%d" spec n bandwidth);
              rows :=
                ( "connectivity_sweep",
                  [
                    ("family", Str spec);
                    ("n", Int n);
                    ("bandwidth", Int bandwidth);
                    ("bits_per_round", Int t.Core.Bcc.bits_limit);
                    ("rounds_budget", Int rounds);
                    ("rounds_used", Int used);
                    ("max_bits", Int t.Core.Bcc.max_bits);
                    ("total_bits", Int t.Core.Bcc.total_bits);
                    ("connected", Bool oracle);
                    ("verdict_ok", Bool ok);
                  ] )
                :: !rows)
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
        rows :=
          ("one_round_anchors", [ ("protocol", Str label); ("n", Int n); ("max_bits", Int out_bits) ])
          :: !rows
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

let bcc_bench () =
  section "B1-B2" "Broadcast congested clique: rounds-vs-bits sweep and anchors";
  let sweep = bcc_sweep () in
  let anchors = bcc_anchors () in
  append_rows ~campaign:"bcc" (sweep @ anchors)

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

(* ---------- D2: flight-recorder overhead ---------- *)

(* Rings on vs rings off under the same chaos mix, interleaved per
   round.  The recorder must cost < 5% or operators will switch it off
   exactly when the evidence matters. *)
let flight_bench () =
  section "D2" "Flight recorder: ring cost under chaos must stay under 5%";
  let sessions = 16_000 and faulty = 0.2 in
  let cfg = { Serve.Selftest.default_cfg with sessions; conns = 64; faulty } in
  let fl = Core.Flight.create ~capacity:(1 lsl 16) () in
  let last_on = ref None in
  let gate o =
    match Serve.Selftest.passed o with
    | Ok () -> o.Serve.Selftest.o_wall_s
    | Error e -> failwith ("D2: selftest gate violated: " ^ e)
  in
  let off () = gate (Serve.Selftest.run cfg) in
  let on () =
    Core.Flight.reset fl;
    let o = Serve.Selftest.run ~flight:fl cfg in
    last_on := Some o;
    gate o
  in
  let timed = interleaved_rounds [| off; on |] in
  let off_best, _ = timed.(0) and on_best, overhead = timed.(1) in
  let o_on = match !last_on with Some o -> o | None -> failwith "D2: no timed run" in
  let dump_bytes = String.length (Core.Flight.dump fl) in
  Printf.printf
    "  sessions=%d faulty=%.2f  best off %.3fs  on %.3fs  median overhead %.3fx  \
     recorded=%d dropped=%d dump=%d B\n"
    sessions faulty off_best on_best overhead o_on.Serve.Selftest.o_flight_recorded
    o_on.Serve.Selftest.o_flight_dropped dump_bytes;
  if overhead > 1.05 then failwith "D2: flight recorder overhead exceeds the 5% budget";
  append_rows ~campaign:"flight"
    [
      ( "overhead",
        [
          ("overhead_budget", Float 1.05);
          ("sessions", Int sessions);
          ("faulty", Float faulty);
          ("off_best_s", Float off_best);
          ("on_best_s", Float on_best);
          ("median_overhead", Float overhead);
          ("flight_recorded", Int o_on.Serve.Selftest.o_flight_recorded);
          ("flight_dropped", Int o_on.Serve.Selftest.o_flight_dropped);
          ("flight_findings", Int o_on.Serve.Selftest.o_flight_findings);
          ("dump_bytes", Int dump_bytes);
        ] );
    ]

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match mode with
  | "tables" -> tables ()
  | "timings" -> timing_benches ()
  | "faults" -> faults ()
  | "metrics" -> metrics_bench ()
  | "bcc" -> bcc_bench ()
  | "flight" -> flight_bench ()
  | "record" ->
    record ();
    exit 0
  | "compare" when Array.length Sys.argv = 4 -> (
    match compare_rows Sys.argv.(2) Sys.argv.(3) with
    | () -> exit 0
    | exception Bad_input msg ->
      Printf.eprintf "main.exe compare: %s\n" msg;
      exit 2)
  | "all" ->
    tables ();
    timing_benches ();
    faults ();
    metrics_bench ();
    bcc_bench ()
  | other ->
    Printf.eprintf
      "main.exe: unknown experiment %S \
       (tables|timings|faults|metrics|bcc|flight|record|compare OLD NEW)\n"
      other;
    exit 2);
  Printf.printf "\n%s\nAll experiments completed.\n" line
