(* The parallel engine's determinism contract: any pool width — including
   the sequential width 1 — produces byte-identical message vectors,
   transcripts, and referee outputs, because local phases are pure and
   every result lands in its slot by index. *)

open Refnet_graph

let widths = [ 1; 2; 4 ]

(* --- Parallel primitives ------------------------------------------- *)

let test_map_array_matches_sequential () =
  let a = Array.init 10_000 (fun i -> i) in
  let expected = Array.map (fun x -> (x * 7919) lxor (x lsr 3)) a in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "width %d" d)
        expected
        (Core.Parallel.map_array ~domains:d (fun x -> (x * 7919) lxor (x lsr 3)) a))
    widths

let test_init_matches_sequential () =
  let expected = Array.init 5_000 (fun i -> i * i) in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "width %d" d)
        expected
        (Core.Parallel.init ~domains:d 5_000 (fun i -> i * i)))
    widths

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Core.Parallel.map_array ~domains:4 succ [||]);
  Alcotest.(check (array int)) "singleton" [| 1 |] (Core.Parallel.init ~domains:4 1 succ)

let test_exception_propagates () =
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "width %d" d)
        (Failure "task 3128 failed")
        (fun () ->
          ignore
            (Core.Parallel.init ~domains:d 10_000 (fun i ->
                 if i = 3128 then failwith "task 3128 failed" else i))))
    widths

let test_exception_from_first_element () =
  (* Element 0 runs on the caller before the batch is published. *)
  Alcotest.check_raises "index 0" (Failure "head") (fun () ->
      ignore (Core.Parallel.init ~domains:4 100 (fun i -> if i = 0 then failwith "head" else i)))

let test_nested_calls_degrade () =
  let out =
    Core.Parallel.init ~domains:4 64 (fun i ->
        Array.fold_left ( + ) 0 (Core.Parallel.init ~domains:4 10 (fun j -> i + j)))
  in
  Alcotest.(check int) "nested sum" (Array.fold_left ( + ) 0 (Array.init 10 (fun j -> 63 + j))) out.(63)

let test_ctx_per_domain () =
  (* Contexts are mutable scratch; reusing them across chunks must not
     leak state between items when the task resets per item. *)
  let a = Array.init 2_000 (fun i -> i) in
  let out =
    Core.Parallel.map_array_ctx ~domains:4
      (fun () -> Buffer.create 16)
      (fun buf x ->
        Buffer.clear buf;
        Buffer.add_string buf (string_of_int x);
        Buffer.contents buf)
      a
  in
  Alcotest.(check string) "item 1234" "1234" out.(1234)

(* --- Simulator determinism across widths --------------------------- *)

let transcript_equal (t1 : Core.Simulator.transcript) (t2 : Core.Simulator.transcript) =
  t1.n = t2.n && t1.max_bits = t2.max_bits && t1.total_bits = t2.total_bits
  && t1.message_bits = t2.message_bits

let check_deterministic name (p : 'a Core.Protocol.t) eq g =
  let reference_msgs = Core.Simulator.local_phase ~domains:1 p g in
  let out1, tr1 = Core.Simulator.run ~domains:1 p g in
  List.iter
    (fun d ->
      let msgs = Core.Simulator.local_phase ~domains:d p g in
      Alcotest.(check bool)
        (Printf.sprintf "%s: messages byte-identical at width %d" name d)
        true
        (Array.for_all2 Core.Message.equal reference_msgs msgs);
      let out, tr = Core.Simulator.run ~domains:d p g in
      Alcotest.(check bool) (Printf.sprintf "%s: output at width %d" name d) true (eq out1 out);
      Alcotest.(check bool)
        (Printf.sprintf "%s: transcript at width %d" name d)
        true (transcript_equal tr1 tr))
    widths;
  (* The async simulator computes in a scrambled order (and across the
     pool) yet must reassemble the very same message vector. *)
  let out_async, tr_async =
    Core.Simulator.run ~domains:4
      ~delivery:(Core.Simulator.Shuffled (Random.State.make [| 0x5eed |]))
      p g
  in
  Alcotest.(check bool) (name ^ ": async output") true (eq out1 out_async);
  Alcotest.(check bool) (name ^ ": async transcript") true (transcript_equal tr1 tr_async)

let graph_opt_eq a b =
  match (a, b) with Some g, Some h -> Graph.equal g h | None, None -> true | _ -> false

let test_determinism_gnp () =
  let r = Random.State.make [| 0xd0; 1 |] in
  for trial = 1 to 3 do
    let g = Generators.gnp r 48 0.15 in
    check_deterministic
      (Printf.sprintf "gnp trial %d" trial)
      (Core.Reduction.diameter3_oracle) ( = ) g
  done

let test_determinism_k_degenerate () =
  let r = Random.State.make [| 0xd0; 2 |] in
  for trial = 1 to 3 do
    let g = Generators.random_k_degenerate r 96 ~k:3 in
    check_deterministic
      (Printf.sprintf "k-degenerate trial %d" trial)
      (Core.Degeneracy_protocol.reconstruct ~k:3 ())
      graph_opt_eq g;
    (* Reconstruction must stay exact in parallel, not merely consistent. *)
    let out, _ = Core.Simulator.run ~domains:4 (Core.Degeneracy_protocol.reconstruct ~k:3 ()) g in
    Alcotest.(check bool) "exact reconstruction" true (out = Some g)
  done

let test_determinism_bipartite () =
  let r = Random.State.make [| 0xd0; 3 |] in
  for trial = 1 to 3 do
    let half = 6 in
    let g = Generators.random_bipartite r ~left:half ~right:half 0.4 in
    let left = List.init half (fun i -> i + 1) in
    let right = List.init half (fun i -> half + i + 1) in
    let delta =
      Core.Bipartite_reduction.connectivity
        ~oracle:Core.Bipartite_reduction.bipartiteness_oracle ~left ~right
    in
    check_deterministic (Printf.sprintf "bipartite trial %d" trial) delta ( = ) g;
    let verdict, _ = Core.Simulator.run ~domains:4 delta g in
    Alcotest.(check bool) "matches connectivity" (Connectivity.is_connected g) verdict
  done

let test_determinism_reduction_probe () =
  (* The O(n^2) probe sweep inside the Δ reduction's global phase runs on
     the pool; the rebuilt graph must equal the input regardless. *)
  let r = Random.State.make [| 0xd0; 4 |] in
  let g = Generators.random_tree r 14 in
  let delta = Core.Reduction.square Core.Reduction.square_oracle in
  List.iter
    (fun d ->
      let out, _ = Core.Simulator.run ~domains:d delta g in
      Alcotest.(check bool) (Printf.sprintf "rebuilt at width %d" d) true (Graph.equal out g))
    widths

let prop_determinism_random =
  QCheck2.Test.make ~name:"parallel = sequential on random gnp" ~count:25
    QCheck2.Gen.(triple (int_range 2 40) (int_range 0 1000) (int_range 1 4))
    (fun (n, seed, d) ->
      let g = Generators.gnp (Random.State.make [| seed; n |]) n 0.2 in
      let p = Core.Degeneracy_protocol.reconstruct ~k:2 () in
      let m1 = Core.Simulator.local_phase ~domains:1 p g in
      let md = Core.Simulator.local_phase ~domains:d p g in
      Array.for_all2 Core.Message.equal m1 md
      && fst (Core.Simulator.run ~domains:1 p g) = fst (Core.Simulator.run ~domains:d p g))

let () =
  Alcotest.run "parallel"
    [
      ( "pool primitives",
        [
          Alcotest.test_case "map_array = sequential map" `Quick test_map_array_matches_sequential;
          Alcotest.test_case "init = Array.init" `Quick test_init_matches_sequential;
          Alcotest.test_case "empty / singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "exception at index 0" `Quick test_exception_from_first_element;
          Alcotest.test_case "nested calls degrade" `Quick test_nested_calls_degrade;
          Alcotest.test_case "per-domain contexts" `Quick test_ctx_per_domain;
        ] );
      ( "simulator determinism",
        [
          Alcotest.test_case "gnp" `Quick test_determinism_gnp;
          Alcotest.test_case "k-degenerate" `Quick test_determinism_k_degenerate;
          Alcotest.test_case "bipartite" `Quick test_determinism_bipartite;
          Alcotest.test_case "reduction probe sweep" `Quick test_determinism_reduction_probe;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_determinism_random ] );
    ]
