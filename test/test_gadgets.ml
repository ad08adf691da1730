open Refnet_graph

let all_pairs n f =
  for s = 1 to n do
    for t = 1 to n do
      if s <> t then f s t
    done
  done

let test_square_gadget_shape () =
  let g = Generators.path 4 in
  let g' = Core.Gadgets.square g 1 3 in
  Alcotest.(check int) "order doubles" 8 (Graph.order g');
  (* n pendants + 1 bridge on top of the original edges. *)
  Alcotest.(check int) "size" (Graph.size g + 4 + 1) (Graph.size g');
  Alcotest.(check bool) "pendant" true (Graph.has_edge g' 2 6);
  Alcotest.(check bool) "bridge" true (Graph.has_edge g' 5 7)

let test_square_gadget_iff () =
  (* Theorem 1's equivalence, checked over every pair of a square-free
     base graph. *)
  let g = Generators.random_square_free (Random.State.make [| 4 |]) 10 ~attempts:200 in
  all_pairs 10 (fun s t ->
      Alcotest.(check bool)
        (Printf.sprintf "pair (%d,%d)" s t)
        (Graph.has_edge g s t)
        (Cycles.has_square (Core.Gadgets.square g s t)))

let test_square_gadget_on_tree () =
  let g = Generators.complete_binary_tree 7 in
  all_pairs 7 (fun s t ->
      Alcotest.(check bool)
        (Printf.sprintf "tree pair (%d,%d)" s t)
        (Graph.has_edge g s t)
        (Cycles.has_square (Core.Gadgets.square g s t)))

let test_diameter_gadget_shape () =
  let g = Generators.cycle 5 in
  let g' = Core.Gadgets.diameter g 2 4 in
  Alcotest.(check int) "order + 3" 8 (Graph.order g');
  Alcotest.(check bool) "s pendant" true (Graph.has_edge g' 2 6);
  Alcotest.(check bool) "t pendant" true (Graph.has_edge g' 4 7);
  Alcotest.(check int) "universal" 5 (Graph.degree g' 8)

let test_diameter_gadget_iff () =
  (* Theorem 2's equivalence holds for arbitrary base graphs — even
     disconnected ones, thanks to the universal vertex. *)
  let g = Graph.disjoint_union (Generators.path 3) (Generators.cycle 4) in
  let n = Graph.order g in
  all_pairs n (fun s t ->
      Alcotest.(check bool)
        (Printf.sprintf "pair (%d,%d)" s t)
        (Graph.has_edge g s t)
        (Distance.diameter_at_most (Core.Gadgets.diameter g s t) 3))

let test_diameter_gadget_longest_path_is_8_to_9 () =
  (* The paper's Figure 1 remark: the critical pair is always the two
     pendant vertices n+1 and n+2. *)
  let g = Generators.path 7 in
  let g' = Core.Gadgets.diameter g 1 7 in
  match Distance.distance g' 8 9 with
  | Some d -> Alcotest.(check int) "pendant-to-pendant distance" 4 d
  | None -> Alcotest.fail "gadget must be connected"

let test_triangle_gadget_shape () =
  let g = Generators.complete_bipartite 3 3 in
  let g' = Core.Gadgets.triangle g 1 5 in
  Alcotest.(check int) "order + 1" 7 (Graph.order g');
  Alcotest.(check (list int)) "apex neighbours" [ 1; 5 ] (Graph.neighbors g' 7)

let test_triangle_gadget_iff () =
  let g = Generators.random_bipartite (Random.State.make [| 6 |]) ~left:5 ~right:5 0.5 in
  all_pairs 10 (fun s t ->
      Alcotest.(check bool)
        (Printf.sprintf "pair (%d,%d)" s t)
        (Graph.has_edge g s t)
        (Cycles.has_triangle (Core.Gadgets.triangle g s t)))

let test_gadget_guards () =
  let g = Generators.path 4 in
  Alcotest.check_raises "s = t" (Invalid_argument "Gadgets.square: bad vertex pair") (fun () ->
      ignore (Core.Gadgets.square g 2 2));
  Alcotest.check_raises "out of range" (Invalid_argument "Gadgets.diameter: bad vertex pair")
    (fun () -> ignore (Core.Gadgets.diameter g 1 9))

let test_fictitious_neighborhoods_match () =
  (* The referee's predicted neighbourhoods for fictitious vertices must
     equal the true gadget adjacency. *)
  let g = Generators.cycle 6 in
  let n = 6 in
  all_pairs n (fun s t ->
      let sq = Core.Gadgets.square g s t in
      for j = n + 1 to 2 * n do
        Alcotest.(check (list int))
          (Printf.sprintf "square fict %d (%d,%d)" j s t)
          (Graph.neighbors sq j)
          (Core.Gadgets.square_fictitious ~n ~s ~t j)
      done;
      let dm = Core.Gadgets.diameter g s t in
      for j = n + 1 to n + 3 do
        Alcotest.(check (list int))
          (Printf.sprintf "diameter fict %d (%d,%d)" j s t)
          (Graph.neighbors dm j)
          (Core.Gadgets.diameter_fictitious ~n ~s ~t j)
      done;
      let tr = Core.Gadgets.triangle g s t in
      Alcotest.(check (list int))
        (Printf.sprintf "triangle fict (%d,%d)" s t)
        (Graph.neighbors tr (n + 1))
        (Core.Gadgets.triangle_fictitious ~n ~s ~t (n + 1)))

let test_real_vertex_neighborhoods () =
  (* Square gadget: a real vertex's neighbourhood never depends on (s,t);
     that independence is what lets Δ send a single message. *)
  let g = Generators.grid 2 3 in
  let n = 6 in
  let base = Core.Gadgets.square g 1 2 in
  all_pairs n (fun s t ->
      let g' = Core.Gadgets.square g s t in
      for v = 1 to n do
        Alcotest.(check (list int))
          (Printf.sprintf "vertex %d under (%d,%d)" v s t)
          (Graph.neighbors base v)
          (Graph.neighbors g' v)
      done)

let prop_square_iff_random_trees =
  QCheck2.Test.make ~name:"square gadget equivalence on random trees" ~count:40
    QCheck2.Gen.(pair (int_range 2 12) int)
    (fun (n, seed) ->
      let g = Generators.random_tree (Random.State.make [| seed; n |]) n in
      let ok = ref true in
      for s = 1 to n do
        for t = 1 to n do
          if s <> t then
            if Cycles.has_square (Core.Gadgets.square g s t) <> Graph.has_edge g s t then
              ok := false
        done
      done;
      !ok)

let prop_diameter_iff_random_graphs =
  QCheck2.Test.make ~name:"diameter gadget equivalence on random graphs" ~count:30
    QCheck2.Gen.(pair (int_range 2 10) int)
    (fun (n, seed) ->
      let g = Generators.gnp (Random.State.make [| seed; n |]) n 0.3 in
      let ok = ref true in
      for s = 1 to n do
        for t = 1 to n do
          if s <> t then
            if Distance.diameter_at_most (Core.Gadgets.diameter g s t) 3 <> Graph.has_edge g s t
            then ok := false
        done
      done;
      !ok)

let prop_triangle_iff_random_bipartite =
  QCheck2.Test.make ~name:"triangle gadget equivalence on random bipartite" ~count:30
    QCheck2.Gen.(pair (int_range 1 6) int)
    (fun (half, seed) ->
      let g =
        Generators.random_bipartite (Random.State.make [| seed; half |]) ~left:half ~right:half 0.5
      in
      let n = 2 * half in
      let ok = ref true in
      for s = 1 to n do
        for t = 1 to n do
          if s <> t then
            if Cycles.has_triangle (Core.Gadgets.triangle g s t) <> Graph.has_edge g s t then
              ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "gadgets"
    [
      ( "square (Theorem 1)",
        [
          Alcotest.test_case "shape" `Quick test_square_gadget_shape;
          Alcotest.test_case "iff on square-free" `Quick test_square_gadget_iff;
          Alcotest.test_case "iff on tree" `Quick test_square_gadget_on_tree;
        ] );
      ( "diameter (Theorem 2, Fig 1)",
        [
          Alcotest.test_case "shape" `Quick test_diameter_gadget_shape;
          Alcotest.test_case "iff arbitrary base" `Quick test_diameter_gadget_iff;
          Alcotest.test_case "critical pair 8-9" `Quick test_diameter_gadget_longest_path_is_8_to_9;
        ] );
      ( "triangle (Theorem 3, Fig 2)",
        [
          Alcotest.test_case "shape" `Quick test_triangle_gadget_shape;
          Alcotest.test_case "iff on bipartite" `Quick test_triangle_gadget_iff;
        ] );
      ( "referee view",
        [
          Alcotest.test_case "guards" `Quick test_gadget_guards;
          Alcotest.test_case "fictitious neighbourhoods" `Quick test_fictitious_neighborhoods_match;
          Alcotest.test_case "real vertices (s,t)-independent" `Quick test_real_vertex_neighborhoods;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_square_iff_random_trees;
            prop_diameter_iff_random_graphs;
            prop_triangle_iff_random_bipartite;
          ] );
    ]
