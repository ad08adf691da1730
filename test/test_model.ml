(* Model-layer tests: Message, Nat_codec, Protocol, Simulator, Stats,
   Coalition, Bounds. *)
open Refnet_bits
open Refnet_bigint
open Refnet_graph

let test_message_bits () =
  let w = Bit_writer.create () in
  Codes.write_fixed w ~width:9 300;
  let m = Core.Message.of_writer w in
  Alcotest.(check int) "exact size" 9 (Core.Message.bits m);
  Alcotest.(check int) "empty" 0 (Core.Message.bits Core.Message.empty)

let test_message_concat () =
  let mk v =
    let w = Bit_writer.create () in
    Codes.write_fixed w ~width:4 v;
    Core.Message.of_writer w
  in
  let m = Core.Message.concat [ mk 5; mk 9 ] in
  Alcotest.(check int) "size adds" 8 (Core.Message.bits m);
  let r = Core.Message.reader m in
  Alcotest.(check int) "first" 5 (Codes.read_fixed r ~width:4);
  Alcotest.(check int) "second" 9 (Codes.read_fixed r ~width:4)

let test_nat_codec_roundtrip () =
  let v = Nat.of_string "123456789123456789123456789" in
  let width = Nat.num_bits v + 5 in
  let w = Bit_writer.create () in
  Core.Nat_codec.write w ~width v;
  Alcotest.(check int) "exact width" width (Bit_writer.length w);
  let v' = Core.Nat_codec.read (Bit_reader.of_bitvec (Bit_writer.contents w)) ~width in
  Alcotest.(check bool) "roundtrip" true (Nat.equal v v')

let test_nat_codec_overflow () =
  let w = Bit_writer.create () in
  Alcotest.check_raises "does not fit" (Invalid_argument "Nat_codec.write: value does not fit")
    (fun () -> Core.Nat_codec.write w ~width:3 (Nat.of_int 9))

(* A toy protocol: every node reports its degree; referee sums them. *)
let degree_sum_protocol : int Core.Protocol.t =
  {
    name = "degree-sum";
    local =
      (fun v ->
        let w = Bit_writer.create () in
        Codes.write_fixed w ~width:(Core.Bounds.id_bits (Core.View.n v)) (Core.View.deg v);
        Core.Message.of_writer w);
    referee =
      Core.Protocol.streaming
        ~init:(fun ~n:_ -> 0)
        ~absorb:(fun ~n acc ~id:_ m ->
          acc + Codes.read_fixed (Core.Message.reader m) ~width:(Core.Bounds.id_bits n))
        ~finish:(fun ~n:_ acc -> acc);
    budget = None;
  }

let test_simulator_run () =
  let g = Generators.cycle 6 in
  let out, t = Core.Simulator.run degree_sum_protocol g in
  Alcotest.(check int) "handshake" 12 out;
  Alcotest.(check int) "n" 6 t.Core.Simulator.n;
  Alcotest.(check int) "message bits" 3 t.Core.Simulator.max_bits;
  Alcotest.(check int) "total" 18 t.Core.Simulator.total_bits

let test_simulator_async_agrees () =
  let g = Generators.grid 3 4 in
  let out1, _ = Core.Simulator.run degree_sum_protocol g in
  let out2, _ =
    Core.Simulator.run
      ~delivery:(Core.Simulator.Shuffled (Random.State.make [| 9 |]))
      degree_sum_protocol g
  in
  Alcotest.(check int) "same output" out1 out2

let test_frugality_checks () =
  let g = Generators.cycle 8 in
  let _, t = Core.Simulator.run degree_sum_protocol g in
  Alcotest.(check bool) "frugal c=1" true (Core.Simulator.is_frugal t ~c:1);
  Alcotest.(check bool) "ratio 1" true (Core.Simulator.frugality_ratio t = 1.0)

let test_protocol_map_output () =
  let doubled = Core.Protocol.map_output (fun v -> 2 * v) degree_sum_protocol in
  let out, _ = Core.Simulator.run doubled (Generators.cycle 5) in
  Alcotest.(check int) "mapped" 20 out

let test_stats_summary () =
  let g = Generators.cycle 6 in
  let ts = List.init 5 (fun _ -> snd (Core.Simulator.run degree_sum_protocol g)) in
  let s = Core.Stats.summarize ts in
  Alcotest.(check int) "runs" 5 s.Core.Stats.runs;
  Alcotest.(check int) "max" 3 s.Core.Stats.max_bits;
  Alcotest.(check (float 0.001)) "mean max" 3.0 s.Core.Stats.mean_max_bits;
  Alcotest.(check (float 0.001)) "mean total" 18.0 s.Core.Stats.mean_total_bits;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: no transcripts") (fun () ->
      ignore (Core.Stats.summarize []))

let test_partition_by_ranges () =
  Alcotest.(check (list (list int))) "even" [ [ 1; 2 ]; [ 3; 4 ] ]
    (Core.Coalition.partition_by_ranges ~n:4 ~parts:2);
  Alcotest.(check (list (list int))) "uneven" [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Core.Coalition.partition_by_ranges ~n:5 ~parts:3);
  Alcotest.(check (list (list int))) "single" [ [ 1; 2; 3 ] ]
    (Core.Coalition.partition_by_ranges ~n:3 ~parts:1)

(* Coalition toy: each part's members send the part's edge-count share;
   referee adds.  Exercises pooled views. *)
let coalition_edge_count : int Core.Coalition.t =
  {
    name = "coalition-edge-count";
    local =
      (fun ~n view ->
        let internal =
          List.fold_left
            (fun acc (m, nbrs) ->
              acc
              + List.length
                  (List.filter (fun u -> u > m && List.mem_assoc u view.Core.Coalition.neighborhoods) nbrs)
              + List.length (List.filter (fun u -> not (List.mem_assoc u view.Core.Coalition.neighborhoods)) nbrs))
            0 view.Core.Coalition.neighborhoods
        in
        match view.Core.Coalition.members with
        | [] -> []
        | first :: rest ->
          let w = Bit_writer.create () in
          Codes.write_fixed w ~width:(2 * Core.Bounds.id_bits n) internal;
          (first, Core.Message.of_writer w)
          :: List.map (fun m -> (m, Core.Message.empty)) rest);
    referee =
      Core.Protocol.streaming
        ~init:(fun ~n:_ -> 0)
        ~absorb:(fun ~n acc ~id:_ m ->
          if Core.Message.bits m = 0 then acc
          else acc + Codes.read_fixed (Core.Message.reader m) ~width:(2 * Core.Bounds.id_bits n))
        ~finish:(fun ~n:_ acc -> acc);
    budget = (fun ~parts:_ -> None);
  }

let test_coalition_run () =
  let g = Generators.cycle 6 in
  let parts = Core.Coalition.partition_by_ranges ~n:6 ~parts:3 in
  let out, t = Core.Coalition.run coalition_edge_count g ~parts in
  (* Internal edges counted once, boundary edges counted from both sides:
     out = m + boundary. *)
  Alcotest.(check bool) "at least m" true (out >= Graph.size g);
  Alcotest.(check int) "n messages" 6 t.Core.Simulator.n

let test_coalition_run_guards () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "bad partition"
    (Invalid_argument "Coalition.run: parts do not partition the vertices") (fun () ->
      ignore (Core.Coalition.run coalition_edge_count g ~parts:[ [ 1; 2 ]; [ 2; 3; 4 ] ]))

let test_bounds_formulas () =
  Alcotest.(check int) "id_bits 1" 1 (Core.Bounds.id_bits 1);
  Alcotest.(check int) "id_bits 8" 4 (Core.Bounds.id_bits 8);
  Alcotest.(check int) "forest" 28 (Core.Bounds.forest_message_bits 100);
  (* k=1 degeneracy layout equals the forest layout. *)
  Alcotest.(check int) "k=1 = forest"
    (Core.Bounds.forest_message_bits 1000)
    (Core.Bounds.degeneracy_message_bits ~k:1 1000);
  Alcotest.(check bool) "quadratic in k" true
    (Core.Bounds.degeneracy_message_bits ~k:6 1000
    > 3 * Core.Bounds.degeneracy_message_bits ~k:2 1000);
  (* id_bits 100 = 7, so the budget is 3 * 100 * 7. *)
  Alcotest.(check (float 0.001)) "lemma1 budget" 2100.0 (Core.Bounds.lemma1_budget ~c:3 100)

let prop_local_functions_pure =
  (* Definition 1's local functions are functions: evaluating one twice
     on the same (n, id, N) must give bit-identical messages.  Catches
     accidental global state in any protocol implementation. *)
  QCheck2.Test.make ~name:"local functions are deterministic" ~count:60
    QCheck2.Gen.(pair (int_range 2 20) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let g = Generators.gnp rng n 0.3 in
      let locals =
        [
          Core.Forest_protocol.reconstruct.Core.Protocol.local;
          (Core.Degeneracy_protocol.reconstruct ~k:2 ()).Core.Protocol.local;
          (Core.Generalized_degeneracy.reconstruct ~k:2 ()).Core.Protocol.local;
          (Core.Sketch_connectivity.protocol ~seed:3 ()).Core.Protocol.local;
          Core.Easy_protocols.degree_sequence.Core.Protocol.local;
        ]
      in
      List.for_all
        (fun local ->
          List.for_all
            (fun id ->
              let nbrs = Graph.neighbors g id in
              let once = local (Core.View.make ~n ~id ~neighbors:nbrs) in
              let twice = local (Core.View.make ~n ~id ~neighbors:nbrs) in
              Core.Message.equal once twice)
            (Graph.vertices g))
        locals)

let prop_simulator_provides_sorted_neighbors =
  QCheck2.Test.make ~name:"the simulator hands nodes sorted neighbour sets" ~count:60
    QCheck2.Gen.(pair (int_range 1 25) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let g = Generators.gnp rng n 0.4 in
      let sorted_seen = ref true in
      let probe : unit Core.Protocol.t =
        {
          name = "probe";
          local =
            (fun v ->
              let neighbors = Core.View.neighbors v in
              if List.sort_uniq compare neighbors <> neighbors then sorted_seen := false;
              Core.Message.empty);
          referee = Core.Protocol.batch (fun ~n:_ _ -> ());
          budget = None;
        }
      in
      let () = fst (Core.Simulator.run probe g) in
      !sorted_seen)

let prop_async_equals_sync =
  QCheck2.Test.make ~name:"async delivery never changes the output" ~count:100
    QCheck2.Gen.(pair (int_range 1 20) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let g = Generators.gnp rng n 0.3 in
      let o1, _ = Core.Simulator.run degree_sum_protocol g in
      let o2, _ =
        Core.Simulator.run ~delivery:(Core.Simulator.Shuffled rng) degree_sum_protocol g
      in
      o1 = o2)

let () =
  Alcotest.run "model"
    [
      ( "message",
        [
          Alcotest.test_case "bits" `Quick test_message_bits;
          Alcotest.test_case "concat" `Quick test_message_concat;
          Alcotest.test_case "nat codec roundtrip" `Quick test_nat_codec_roundtrip;
          Alcotest.test_case "nat codec overflow" `Quick test_nat_codec_overflow;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "run" `Quick test_simulator_run;
          Alcotest.test_case "async agrees" `Quick test_simulator_async_agrees;
          Alcotest.test_case "frugality" `Quick test_frugality_checks;
          Alcotest.test_case "map_output" `Quick test_protocol_map_output;
          Alcotest.test_case "stats" `Quick test_stats_summary;
        ] );
      ( "coalition",
        [
          Alcotest.test_case "partition by ranges" `Quick test_partition_by_ranges;
          Alcotest.test_case "run" `Quick test_coalition_run;
          Alcotest.test_case "guards" `Quick test_coalition_run_guards;
        ] );
      ("bounds", [ Alcotest.test_case "formulas" `Quick test_bounds_formulas ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_local_functions_pure; prop_simulator_provides_sorted_neighbors; prop_async_equals_sync ] );
    ]
