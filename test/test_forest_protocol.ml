open Refnet_graph

let graph_opt =
  Alcotest.option (Alcotest.testable (fun fmt g -> Graph.pp fmt g) Graph.equal)

let run g = fst (Core.Simulator.run Core.Forest_protocol.reconstruct g)

let test_reconstruct_path () =
  let g = Generators.path 7 in
  Alcotest.check graph_opt "path" (Some g) (run g)

let test_reconstruct_star () =
  let g = Generators.star 9 in
  Alcotest.check graph_opt "star" (Some g) (run g)

let test_reconstruct_binary_tree () =
  let g = Generators.complete_binary_tree 31 in
  Alcotest.check graph_opt "binary tree" (Some g) (run g)

let test_reconstruct_forest_with_isolated () =
  let g = Graph.of_edges 8 [ (1, 2); (2, 3); (5, 6) ] in
  Alcotest.check graph_opt "forest" (Some g) (run g)

let test_reconstruct_edgeless () =
  let g = Graph.empty 5 in
  Alcotest.check graph_opt "edgeless" (Some g) (run g)

let test_single_vertex () =
  Alcotest.check graph_opt "singleton" (Some (Graph.empty 1)) (run (Graph.empty 1))

let test_cycle_rejected () =
  Alcotest.check graph_opt "cycle" None (run (Generators.cycle 5));
  Alcotest.check graph_opt "tree + cycle mix" None
    (run (Graph.disjoint_union (Generators.path 3) (Generators.cycle 4)))

let test_recognizer () =
  let accepts g = fst (Core.Simulator.run Core.Forest_protocol.recognize g) in
  Alcotest.(check bool) "forest yes" true (accepts (Generators.caterpillar ~spine:3 ~legs:2));
  Alcotest.(check bool) "cycle no" false (accepts (Generators.cycle 6));
  Alcotest.(check bool) "K4 no" false (accepts (Generators.complete 4))

let test_message_size_exact () =
  let g = Generators.random_tree (Random.State.make [| 5 |]) 200 in
  let _, t = Core.Simulator.run Core.Forest_protocol.reconstruct g in
  Alcotest.(check int) "every message at the bound"
    (Core.Forest_protocol.message_bits 200) t.Core.Simulator.max_bits;
  (* The paper's claim: under 4 log n bits. *)
  Alcotest.(check bool) "within 4 log n" true (Core.Simulator.is_frugal t ~c:4)

let test_relabelled_trees () =
  (* Labels are load-bearing; reconstruction must preserve them. *)
  let g = Generators.path 6 in
  let h = Graph.relabel g [| 4; 2; 6; 1; 5; 3 |] in
  Alcotest.check graph_opt "relabelled" (Some h) (run h)

(* The recognizer's finish on its own, counted in full
   ([Metrics.allocated_words]): the prune's queue is one word per node,
   and nothing else may grow with n — no incidence matrix, no box per
   node.  This is the referee side of the Simulator forest node's word
   budget; at n = 200,000 it reads about 1.0. *)
let test_recognizer_finish_words () =
  let n = 200_000 in
  let p = Core.Forest_protocol.recognize in
  let msgs = Core.Simulator.local_phase_source p (Graph_source.parse "implicit:path:200000") in
  let feed = ref (Core.Protocol.start p.Core.Protocol.referee ~n) in
  Array.iteri (fun i m -> feed := Core.Protocol.feed !feed ~id:(i + 1) m) msgs;
  let ok, words = Core.Metrics.allocated_words (fun () -> Core.Protocol.finish !feed) in
  Alcotest.(check bool) "a path is a forest" true ok;
  let per_node = words /. float_of_int n in
  if per_node > 4.0 then
    Alcotest.failf "recognizer finish allocated %.2f words per node, over the 4.0 budget" per_node

let prop_random_forests_roundtrip =
  QCheck2.Test.make ~name:"every random forest reconstructs exactly" ~count:150
    QCheck2.Gen.(triple (int_range 1 60) (int_range 1 5) int)
    (fun (n, trees, seed) ->
      let rng = Random.State.make [| seed; n; trees |] in
      let g = Generators.random_forest rng n ~trees:(min trees n) in
      run g = Some g)

let prop_any_cyclic_graph_rejected =
  QCheck2.Test.make ~name:"graphs with a cycle are rejected" ~count:150
    QCheck2.Gen.(pair (int_range 3 30) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let g = Generators.gnp rng n 0.4 in
      QCheck2.assume (not (Cycles.is_acyclic g));
      run g = None)

let prop_async_stable =
  QCheck2.Test.make ~name:"async delivery reconstructs identically" ~count:50
    QCheck2.Gen.(pair (int_range 1 40) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.random_tree rng n in
      let out, _ =
        Core.Simulator.run ~delivery:(Core.Simulator.Shuffled rng)
          Core.Forest_protocol.reconstruct g
      in
      out = Some g)

let () =
  Alcotest.run "forest_protocol"
    [
      ( "reconstruction",
        [
          Alcotest.test_case "path" `Quick test_reconstruct_path;
          Alcotest.test_case "star" `Quick test_reconstruct_star;
          Alcotest.test_case "binary tree" `Quick test_reconstruct_binary_tree;
          Alcotest.test_case "forest with isolated vertices" `Quick test_reconstruct_forest_with_isolated;
          Alcotest.test_case "edgeless" `Quick test_reconstruct_edgeless;
          Alcotest.test_case "single vertex" `Quick test_single_vertex;
          Alcotest.test_case "cycles rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "recognizer" `Quick test_recognizer;
          Alcotest.test_case "recognizer finish words" `Quick test_recognizer_finish_words;
          Alcotest.test_case "message size exact" `Quick test_message_size_exact;
          Alcotest.test_case "relabelled trees" `Quick test_relabelled_trees;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_forests_roundtrip; prop_any_cyclic_graph_rejected; prop_async_stable ] );
    ]
