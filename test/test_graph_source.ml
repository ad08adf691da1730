(* Graph_source substrate: implicit families vs their materialized
   twins, CSR round-trips, and the backend-equivalence contract — the
   same labelled graph yields a bit-identical transcript whichever
   backend built the views, at any pool width and chunk size. *)

open Refnet_graph

let graph = Alcotest.testable (fun fmt g -> Graph.pp fmt g) Graph.equal

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* ---------- implicit families ---------- *)

let test_implicit_twins () =
  List.iter
    (fun (spec, twin) ->
      Alcotest.check graph spec twin (Implicit.materialize (Implicit.parse spec)))
    [
      ("path:17", Generators.path 17);
      ("path:1", Generators.path 1);
      ("cycle:9", Generators.cycle 9);
      ("complete:8", Generators.complete 8);
      ("star:10", Generators.star 10);
      ("grid:4x6", Generators.grid 4 6);
      ("grid:1x5", Generators.grid 1 5);
      ("hypercube:4", Generators.hypercube 4);
      ("hypercube:0", Generators.hypercube 0);
      ("implicit:path:5", Generators.path 5);
    ]

(* Every family's query oracles must agree with the materialized twin:
   neighbours (strictly increasing), degree, has_edge, closed-form
   size. *)
let test_implicit_oracles () =
  List.iter
    (fun spec ->
      let t = Implicit.parse spec in
      let n = Implicit.order t in
      let g = Implicit.materialize t in
      Alcotest.(check int) (spec ^ ": size") (Graph.size g) (Implicit.size t);
      for v = 1 to n do
        let nbrs = Implicit.neighbors t v in
        Alcotest.(check (list int)) (spec ^ ": neighbors") (Graph.neighbors g v) nbrs;
        Alcotest.(check int) (spec ^ ": degree") (List.length nbrs) (Implicit.degree t v);
        Alcotest.(check (list int))
          (spec ^ ": array path")
          nbrs
          (Array.to_list (Implicit.neighbors_array t v));
        ignore
          (List.fold_left
             (fun prev u ->
               if u <= prev then Alcotest.failf "%s: neighbours of %d not increasing" spec v;
               u)
             0 nbrs)
      done;
      for u = 1 to n do
        for v = 1 to n do
          Alcotest.(check bool)
            (Printf.sprintf "%s: has_edge %d %d" spec u v)
            (Graph.has_edge g u v) (Implicit.has_edge t u v)
        done
      done)
    [
      "path:13"; "cycle:12"; "complete:7"; "star:9"; "grid:5x3"; "hypercube:3";
      "regular:24:4:7"; "regular:15:4:2"; "regular:10:3:5"; "regular:9:2:1";
      "degenerate:40:3:5"; "degenerate:6:2:1"; "degenerate:30:1:4";
    ]

let test_regular_family () =
  List.iter
    (fun (n, d, seed) ->
      let t = Implicit.make (Implicit.Regular { n; d; seed }) in
      for v = 1 to n do
        Alcotest.(check int) (Printf.sprintf "regular(%d,%d) degree of %d" n d v) d
          (Implicit.degree t v)
      done;
      let t2 = Implicit.parse (Printf.sprintf "regular:%d:%d:%d" n d seed) in
      Alcotest.check graph "seed-deterministic" (Implicit.materialize t)
        (Implicit.materialize t2))
    [ (24, 4, 7); (15, 4, 2); (10, 3, 5); (32, 6, 3); (7, 6, 1) ];
  expect_invalid "n*d odd" (fun () ->
      Implicit.make (Implicit.Regular { n = 5; d = 3; seed = 1 }));
  expect_invalid "d >= n" (fun () ->
      Implicit.make (Implicit.Regular { n = 4; d = 4; seed = 1 }))

(* The circulant rows the engines rebuild every round: sorted, in the
   order [iter_neighbors] visits them, and equal to the CSR and
   materialized rows — at sizes small enough that [v - o] and [v + o]
   wrap, for even and odd degree. *)
let test_regular_rows () =
  List.iter
    (fun n ->
      List.iter
        (fun d ->
          if d < n && n * d mod 2 = 0 then
            List.iter
              (fun seed ->
                let t = Implicit.make (Implicit.Regular { n; d; seed }) in
                let csr = Csr.of_graph (Implicit.materialize t) in
                let g = Implicit.materialize t in
                for v = 1 to n do
                  let tag what = Printf.sprintf "regular:%d:%d:%d row %d %s" n d seed v what in
                  let row = Implicit.neighbors_array t v in
                  let visited = ref [] in
                  Implicit.iter_neighbors t v (fun u -> visited := u :: !visited);
                  Alcotest.(check int) (tag "length") d (Array.length row);
                  Array.iteri
                    (fun i u ->
                      if i > 0 && row.(i - 1) >= u then
                        Alcotest.failf "%s: not increasing" (tag "order"))
                    row;
                  Alcotest.(check (list int)) (tag "= iter_neighbors") (List.rev !visited)
                    (Array.to_list row);
                  Alcotest.(check (array int)) (tag "= csr")
                    (Csr.with_row csr v (fun _ arr off len -> Array.sub arr off len))
                    row;
                  Alcotest.(check (array int)) (tag "= materialized") (Graph.neighbors_row g v) row
                done;
                List.iter
                  (fun v ->
                    expect_invalid (Printf.sprintf "regular:%d:%d row %d" n d v) (fun () ->
                        Implicit.neighbors_array t v))
                  [ 0; n + 1 ])
              [ 1; 7 ])
        [ 1; 2; 3; 4; n - 1 ])
    [ 5; 6; 7; 8; 64 ]

let test_degenerate_family () =
  List.iter
    (fun (n, k, seed) ->
      let t = Implicit.make (Implicit.Degenerate { n; k; seed }) in
      let g = Implicit.materialize t in
      Alcotest.(check bool)
        (Printf.sprintf "degenerate(%d,%d): degeneracy <= k" n k)
        true
        (Degeneracy.degeneracy g <= k);
      Alcotest.(check int) "closed-form size" (Graph.size g) (Implicit.size t))
    [ (40, 3, 5); (25, 1, 2); (12, 5, 9); (3, 4, 1) ];
  expect_invalid "k = 0" (fun () ->
      Implicit.make (Implicit.Degenerate { n = 5; k = 0; seed = 1 }));
  expect_invalid "k > window" (fun () ->
      Implicit.make (Implicit.Degenerate { n = 5; k = Implicit.degenerate_window + 1; seed = 1 }))

let test_implicit_parse_errors () =
  List.iter
    (fun spec -> expect_invalid spec (fun () -> Implicit.parse spec))
    [ ""; "path"; "path:x"; "grid:5"; "grid:0x4"; "cycle:2"; "wheel:5"; "regular:10"; "path:-3" ]

let test_parse_family_sizes () =
  List.iter
    (fun n ->
      List.iter
        (fun spec ->
          let t = Implicit.parse_family spec n in
          match spec with
          | "hypercube" ->
            let m = Implicit.order t in
            Alcotest.(check bool) "power of two <= n" true (m <= n && m land (m - 1) = 0)
          | _ -> Alcotest.(check int) (spec ^ ": order") n (Implicit.order t))
        [ "path"; "implicit:grid"; "regular:4:7"; "degenerate:3"; "hypercube" ])
    [ 1; 12; 36; 100 ]

(* ---------- CSR ---------- *)

let test_csr_of_graph_roundtrip () =
  let r = Random.State.make [| 11 |] in
  List.iter
    (fun g ->
      let c = Csr.of_graph g in
      Alcotest.check graph "to_graph" g (Csr.to_graph c);
      Alcotest.(check int) "size" (Graph.size g) (Csr.size c);
      List.iter
        (fun v ->
          Alcotest.(check (list int)) "neighbors" (Graph.neighbors g v) (Csr.neighbors c v);
          Alcotest.(check int) "degree" (Graph.degree g v) (Csr.degree c v))
        (Graph.vertices g);
      let n = Graph.order g in
      for u = 1 to n do
        for v = 1 to n do
          Alcotest.(check bool) "has_edge" (Graph.has_edge g u v) (Csr.has_edge c u v)
        done
      done)
    [
      Generators.gnp r 40 0.15;
      Generators.petersen ();
      Graph.empty 6;
      Graph.empty 0;
      Generators.star 17;
    ]

let test_csr_of_edges () =
  (* Duplicates (in either orientation) collapse to one edge. *)
  let c = Csr.of_edges 4 [ (1, 2); (2, 1); (3, 4); (1, 2); (4, 3) ] in
  Alcotest.check graph "dedupe" (Graph.of_edges 4 [ (1, 2); (3, 4) ]) (Csr.to_graph c);
  Alcotest.(check int) "size after dedupe" 2 (Csr.size c);
  expect_invalid "self-loop" (fun () -> Csr.of_edges 3 [ (1, 1) ]);
  expect_invalid "out of range" (fun () -> Csr.of_edges 3 [ (1, 4) ]);
  expect_invalid "negative order" (fun () -> Csr.of_edges (-1) [])

(* ---------- Graph_source front door ---------- *)

let test_source_parse () =
  let g = Generators.path 5 in
  let backend spec = Graph_source.backend (Graph_source.parse ~graph:g spec) in
  Alcotest.(check string) "materialized" "materialized" (backend "materialized");
  Alcotest.(check string) "csr" "csr" (backend "csr");
  Alcotest.(check string) "implicit" "implicit:path"
    (Graph_source.backend (Graph_source.parse "implicit:path:9"));
  expect_invalid "csr needs a graph" (fun () -> Graph_source.parse "csr");
  expect_invalid "unknown backend" (fun () -> Graph_source.parse ~graph:g "adjacency")

let test_source_queries_agree () =
  let imp = Implicit.parse "regular:18:4:3" in
  let g = Implicit.materialize imp in
  let sources =
    [
      ("materialized", Graph_source.of_graph g);
      ("csr", Graph_source.of_csr (Csr.of_graph g));
      ("implicit", Graph_source.of_implicit imp);
    ]
  in
  List.iter
    (fun (name, src) ->
      Alcotest.(check int) (name ^ ": order") (Graph.order g) (Graph_source.order src);
      Alcotest.(check int) (name ^ ": size") (Graph.size g) (Graph_source.size src);
      Alcotest.check graph (name ^ ": materialize") g (Graph_source.materialize src);
      List.iter
        (fun v ->
          Alcotest.(check (list int))
            (name ^ ": neighbors")
            (Graph.neighbors g v)
            (Graph_source.neighbors src v);
          Alcotest.(check (list int))
            (name ^ ": row")
            (Graph.neighbors g v)
            (Graph_source.with_row src v (fun u arr off len ->
                 Alcotest.(check int) (name ^ ": row id") v u;
                 Array.to_list (Array.sub arr off len))))
        (Graph.vertices g))
    sources

(* ---------- backend-equivalence of engine runs ---------- *)

let transcript_eq name (o1, (t1 : Core.Simulator.transcript)) (o2, (t2 : Core.Simulator.transcript)) =
  Alcotest.(check bool) (name ^ ": same output") true (o1 = o2);
  Alcotest.(check (array int))
    (name ^ ": same message bits")
    t1.Core.Simulator.message_bits t2.Core.Simulator.message_bits

let sources_of imp =
  let g = Implicit.materialize imp in
  ( g,
    [
      ("materialized", Graph_source.of_graph g);
      ("csr", Graph_source.of_csr (Csr.of_graph g));
      ("implicit", Graph_source.of_implicit imp);
    ] )

let test_run_source_equivalence () =
  List.iter
    (fun spec ->
      let imp = Implicit.parse spec in
      let g, sources = sources_of imp in
      let n = Implicit.order imp in
      List.iter
        (fun (pname, run_ref, run_src) ->
          let reference = run_ref g in
          List.iter
            (fun (bname, src) ->
              let name = Printf.sprintf "%s/%s/%s" spec pname bname in
              transcript_eq name reference (run_src ?domains:None ?chunk:None src);
              List.iter
                (fun domains ->
                  transcript_eq
                    (Printf.sprintf "%s@%dd" name domains)
                    reference
                    (run_src ?domains:(Some domains) ?chunk:None src))
                [ 1; 2; 4 ];
              List.iter
                (fun chunk ->
                  transcript_eq
                    (Printf.sprintf "%s@chunk=%d" name chunk)
                    reference
                    (run_src ?domains:None ?chunk:(Some chunk) src))
                [ 1; 3; n ])
            sources)
        [
          ( "forest-recognize",
            (fun g -> Core.Simulator.run Core.Forest_protocol.recognize g),
            fun ?domains ?chunk src ->
              Core.Simulator.run_source ?domains ?chunk Core.Forest_protocol.recognize src );
          ( "edge-count",
            (fun g ->
              let out, t = Core.Simulator.run Core.Easy_protocols.edge_count g in
              (out = Graph.size g, t)),
            fun ?domains ?chunk src ->
              let out, t =
                Core.Simulator.run_source ?domains ?chunk Core.Easy_protocols.edge_count src
              in
              (out = Graph_source.size src, t) );
        ])
    [
      "path:23"; "cycle:24"; "star:17"; "grid:4x5"; "hypercube:4"; "regular:16:4:7";
      "degenerate:21:3:5";
    ]

let test_faulty_delivery_clean_channel () =
  let imp = Implicit.parse "path:19" in
  let _, sources = sources_of imp in
  List.iter
    (fun (bname, src) ->
      let reference = Core.Simulator.run_source Core.Forest_protocol.recognize src in
      transcript_eq
        (bname ^ ": faulty delivery, empty plan")
        reference
        (Core.Simulator.run_source ~delivery:(Core.Simulator.Faulty Core.Faults.empty)
           Core.Forest_protocol.recognize src))
    sources

let test_coalition_run_source_equivalence () =
  let imp = Implicit.parse "regular:20:4:9" in
  let g, sources = sources_of imp in
  let n = Graph.order g in
  List.iter
    (fun parts ->
      let partition = Core.Coalition.partition_by_ranges ~n ~parts in
      let reference = Core.Coalition.run Core.Connectivity_parts.decide g ~parts:partition in
      List.iter
        (fun (bname, src) ->
          transcript_eq
            (Printf.sprintf "coalition/%s/parts=%d" bname parts)
            reference
            (Core.Coalition.run_source Core.Connectivity_parts.decide src ~parts:partition))
        sources)
    [ 1; 4; 7 ]

(* The million-node frontier run.  The 256 MB peak-heap budget covers
   the referee tables (2 x 8 MB), the transcript (8 MB), one chunk of
   in-flight messages and GC slack: far under the ~125 GB incidence
   matrix a materialized path would need. *)
let test_million_node_peak_heap () =
  let src = Graph_source.parse "implicit:path:1000000" in
  let ok, _ = Core.Simulator.run_source ~chunk:65536 Core.Forest_protocol.recognize src in
  Alcotest.(check bool) "a path is a forest" true ok;
  let peak = 8 * (Gc.stat ()).Gc.top_heap_words in
  if peak >= 256 * 1024 * 1024 then
    Alcotest.failf "peak heap %.1f MB is over the 256 MB budget" (float_of_int peak /. 1048576.0)

(* ---------- [src=] decorations under the bound audit ---------- *)

(* The backend tag is display only: a source run's done events carry
   the protocol's own budget, so the decorated label audits under
   exactly the bare run's theorem, on every backend. *)
let test_src_label_audit () =
  let imp = Implicit.parse "regular:20:4:9" in
  let g, sources = sources_of imp in
  let audit_of run =
    let r = Core.Report.create () in
    run (Core.Report.sink r);
    match Core.Report.verdicts r with
    | [ v ] -> v
    | vs -> Alcotest.failf "expected one audited label, got %d" (List.length vs)
  in
  let same_audit what src (bare : Core.Bound_audit.verdict) (v : Core.Bound_audit.verdict) =
    Alcotest.(check string)
      (what ^ ": label")
      (Printf.sprintf "%s[src=%s]" bare.v_label (Graph_source.backend src))
      v.v_label;
    Alcotest.(check string)
      (what ^ ": same verdict")
      (Core.Bound_audit.verdict_json { bare with v_label = v.v_label })
      (Core.Bound_audit.verdict_json v)
  in
  let p = Core.Bounded_degree.reconstruct ~max_degree:4 in
  let bare = audit_of (fun trace -> ignore (Core.Simulator.run ~trace p g)) in
  let parts = Core.Coalition.partition_by_ranges ~n:(Graph.order g) ~parts:4 in
  let coalition = Core.Connectivity_parts.decide in
  let bare_coalition =
    audit_of (fun trace -> ignore (Core.Coalition.run ~trace coalition g ~parts))
  in
  List.iter
    (fun (bname, src) ->
      same_audit bname src bare
        (audit_of (fun trace -> ignore (Core.Simulator.run_source ~trace p src)));
      same_audit (bname ^ " coalition") src bare_coalition
        (audit_of (fun trace -> ignore (Core.Coalition.run_source ~trace coalition src ~parts))))
    sources

let () =
  Alcotest.run "graph_source"
    [
      ( "implicit",
        [
          Alcotest.test_case "materialized twins" `Quick test_implicit_twins;
          Alcotest.test_case "oracles vs twins" `Quick test_implicit_oracles;
          Alcotest.test_case "regular family" `Quick test_regular_family;
          Alcotest.test_case "regular rows" `Quick test_regular_rows;
          Alcotest.test_case "degenerate family" `Quick test_degenerate_family;
          Alcotest.test_case "parse errors" `Quick test_implicit_parse_errors;
          Alcotest.test_case "parse_family sizes" `Quick test_parse_family_sizes;
        ] );
      ( "csr",
        [
          Alcotest.test_case "of_graph roundtrip" `Quick test_csr_of_graph_roundtrip;
          Alcotest.test_case "of_edges dedupe + errors" `Quick test_csr_of_edges;
        ] );
      ( "source",
        [
          Alcotest.test_case "parse" `Quick test_source_parse;
          Alcotest.test_case "query agreement" `Quick test_source_queries_agree;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "run_source across backends" `Quick test_run_source_equivalence;
          Alcotest.test_case "faulty delivery clean channel" `Quick
            test_faulty_delivery_clean_channel;
          Alcotest.test_case "coalition run_source" `Quick test_coalition_run_source_equivalence;
          Alcotest.test_case "million-node peak heap" `Quick test_million_node_peak_heap;
        ] );
      ( "labels",
        [ Alcotest.test_case "[src=] under the audit" `Quick test_src_label_audit ] );
    ]
