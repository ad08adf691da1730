open Refnet_graph
open Refnet_sketch

let decide ?(seed = 4242) g =
  fst (Core.Simulator.run (Core.Sketch_connectivity.protocol ~seed ()) g)

let test_edge_index_roundtrip () =
  let idx = ref (-1) in
  for v = 2 to 40 do
    for u = 1 to v - 1 do
      let i = Core.Sketch_connectivity.edge_index ~u ~v in
      Alcotest.(check int) "dense and increasing" (!idx + 1) i;
      idx := i;
      Alcotest.(check (pair int int)) "inverse" (u, v) (Core.Sketch_connectivity.edge_of_index i)
    done
  done

let test_edge_index_symmetric () =
  Alcotest.(check int) "orientation-free"
    (Core.Sketch_connectivity.edge_index ~u:3 ~v:11)
    (Core.Sketch_connectivity.edge_index ~u:11 ~v:3)

let test_connected_families () =
  List.iter
    (fun (name, g) -> Alcotest.(check bool) name true (decide g))
    [
      ("path", Generators.path 20);
      ("cycle", Generators.cycle 17);
      ("grid", Generators.grid 5 5);
      ("star", Generators.star 30);
      ("tree", Generators.random_tree (Random.State.make [| 3 |]) 40);
      ("complete", Generators.complete 12);
      ("singleton", Graph.empty 1);
      ("empty", Graph.empty 0);
    ]

let test_disconnected_families_never_pass () =
  (* One-sided error: disconnection is detected with certainty up to
     fingerprint collisions; check across many seeds. *)
  let graphs =
    [
      ("two cliques", Graph.disjoint_union (Generators.complete 6) (Generators.complete 5));
      ("isolated vertex", Graph.add_vertices (Generators.cycle 9) 1);
      ("edgeless", Graph.empty 7);
      ("three parts", Graph.disjoint_union (Generators.path 4) (Graph.disjoint_union (Generators.cycle 3) (Generators.path 2)));
    ]
  in
  List.iter
    (fun (name, g) ->
      for seed = 1 to 25 do
        Alcotest.(check bool) (Printf.sprintf "%s seed %d" name seed) false (decide ~seed g)
      done)
    graphs

let test_connected_high_success_rate () =
  let rng = Random.State.make [| 77 |] in
  let successes = ref 0 in
  let trials = 50 in
  for seed = 1 to trials do
    let g = Generators.random_connected rng 30 0.1 in
    if decide ~seed g then incr successes
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d connected verdicts" !successes trials)
    true
    (!successes >= trials - 2)

let test_message_size_polylog () =
  (* O(log^3 n) bits: at n = 256 the sketch messages must beat the n-bit
     incidence vector baseline... they do not yet at this constant-heavy
     size, but they must grow by at most ~(log n)^3 between doublings. *)
  let b256 = Core.Sketch_connectivity.message_bits ~n:256 () in
  let b512 = Core.Sketch_connectivity.message_bits ~n:512 () in
  Alcotest.(check bool) "subquadratic growth between doublings" true
    (float_of_int b512 /. float_of_int b256 < 1.5);
  (* The crossover against the n-bit full-information message. *)
  Alcotest.(check bool) "polylog beats n for large n" true
    (Core.Sketch_connectivity.message_bits ~n:65536 () < 65536)

let test_exact_transcript_size () =
  let n = 20 in
  let g = Generators.cycle n in
  let _, t = Core.Simulator.run (Core.Sketch_connectivity.protocol ~seed:1 ()) g in
  Alcotest.(check int) "every node at the formula size"
    (Core.Sketch_connectivity.message_bits ~n ())
    t.Core.Simulator.max_bits

let test_seed_is_shared_randomness () =
  (* Different seeds may flip failure cases but must agree on the truth
     of easy instances; and identical seeds are deterministic. *)
  let g = Generators.grid 4 4 in
  Alcotest.(check bool) "deterministic" (decide ~seed:5 g) (decide ~seed:5 g)

let prop_matches_truth_mostly =
  QCheck2.Test.make ~name:"sketch verdict: sound on disconnected, complete w.h.p." ~count:100
    QCheck2.Gen.(triple (int_range 2 25) (int_range 0 10) int)
    (fun (n, p10, seed) ->
      let rng = Random.State.make [| seed; n; p10 |] in
      let g = Generators.gnp rng n (float_of_int p10 /. 10.0) in
      let verdict = decide ~seed:(abs seed + 1) g in
      if Connectivity.is_connected g then true (* completeness tested statistically above *)
      else verdict = false)

let prop_rounds_monotone =
  QCheck2.Test.make ~name:"more Borůvka rounds never hurt" ~count:30
    QCheck2.Gen.(pair (int_range 2 20) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let g = Generators.random_connected rng n 0.15 in
      let run rounds =
        fst (Core.Simulator.run (Core.Sketch_connectivity.protocol ~seed:9 ~rounds ()) g)
      in
      (not (run 3)) || run 8)

(* ---------- differential: the column referee against the record fold ---------- *)

(* The record-based referee, kept as the oracle: every bank parsed into
   [L0_sampler] records, each component's samplers combined onto its
   first member's, one sample per component. *)
let oracle_verdict ~seed ~rounds ~levels ~n msgs =
  let ts = Core.Sketch_connectivity.templates ~seed ~rounds ~levels in
  let banks =
    Array.map
      (fun m ->
        let r = Core.Message.reader m in
        Array.map (fun template -> L0_sampler.read r ~template) ts)
      msgs
  in
  let uf = Union_find.create n in
  for round = 0 to rounds - 1 do
    if Union_find.count uf > 1 then begin
      let sums = Hashtbl.create 16 in
      for v = 1 to n do
        let root = Union_find.find uf (v - 1) in
        let s = banks.(v - 1).(round) in
        match Hashtbl.find_opt sums root with
        | None -> Hashtbl.replace sums root s
        | Some acc -> Hashtbl.replace sums root (L0_sampler.combine acc s)
      done;
      Hashtbl.iter
        (fun _ sampler ->
          match L0_sampler.sample sampler with
          | Some (idx, value) when value = 1 || value = -1 ->
            let u, v = Core.Sketch_connectivity.edge_of_index idx in
            if u >= 1 && v <= n then ignore (Union_find.union uf (u - 1) (v - 1))
          | Some _ | None -> ())
        sums
    end
  done;
  Union_find.count uf = 1

(* A node's bank built from records: one sampler per round, updated
   edge by edge, written field by field. *)
let oracle_bank ~seed ~rounds ~levels g id =
  let w = Refnet_bits.Bit_writer.create () in
  Array.iter
    (fun template ->
      let s =
        List.fold_left
          (fun acc u ->
            L0_sampler.update acc
              ~index:(Core.Sketch_connectivity.edge_index ~u ~v:id)
              ~delta:(if id < u then 1 else -1))
          template (Graph.neighbors g id)
      in
      L0_sampler.write w s)
    (Core.Sketch_connectivity.templates ~seed ~rounds ~levels);
  Core.Message.of_writer w

let column_verdict ~seed ~rounds ~levels ~n msgs =
  let p = Core.Sketch_connectivity.protocol ~seed ~rounds ~levels () in
  Core.Protocol.run_referee p.referee ~n msgs

let gen_case =
  QCheck2.Gen.(
    tup5 (int_range 1 64) (int_range 0 10) (int_range 0 10_000) (int_range 1 8) (int_range 1 14))

let case_graph (n, p10, seed, _, _) =
  let rng = Random.State.make [| seed; n; p10 |] in
  (* sparse enough that many graphs are disconnected *)
  Generators.gnp rng n (float_of_int p10 /. (10.0 *. float_of_int (max 1 (n / 4))))

let prop_graphs_match_oracle =
  QCheck2.Test.make ~name:"random graphs: same bits and verdict as the record fold" ~count:150
    gen_case (fun ((n, _, seed, rounds, levels) as case) ->
      let g = case_graph case in
      let msgs =
        Core.Simulator.local_phase (Core.Sketch_connectivity.protocol ~seed ~rounds ~levels ()) g
      in
      Array.iteri
        (fun i m ->
          if not (Core.Message.equal m (oracle_bank ~seed ~rounds ~levels g (i + 1))) then
            QCheck2.Test.fail_reportf "node %d's bank differs from the record-built one" (i + 1))
        msgs;
      column_verdict ~seed ~rounds ~levels ~n msgs = oracle_verdict ~seed ~rounds ~levels ~n msgs)

(* Honest banks with fields overwritten by 0 or by p = 2^31 - 1, the one
   31-bit value that is not a canonical field element: the column sums
   must keep it exactly where the record fold kept it. *)
let prop_byte_banks_match_oracle =
  QCheck2.Test.make ~name:"byte banks with 0 and p fields: same verdict as the record fold"
    ~count:300
    QCheck2.Gen.(pair gen_case (int_range 1 6))
    (fun (((n, _, seed, rounds, levels) as case), q) ->
      let g = case_graph case in
      let msgs =
        Core.Simulator.local_phase (Core.Sketch_connectivity.protocol ~seed ~rounds ~levels ()) g
      in
      let rng = Random.State.make [| seed; q |] in
      let fields = rounds * levels * 3 in
      Array.iter
        (fun m ->
          for k = 0 to fields - 1 do
            if Random.State.int rng 8 < q then
              Refnet_bits.Bitvec.set_bits m ~pos:(k * Field.bits) ~width:Field.bits
                (if Random.State.bool rng then 0 else Field.p)
          done)
        msgs;
      column_verdict ~seed ~rounds ~levels ~n msgs = oracle_verdict ~seed ~rounds ~levels ~n msgs)

let test_short_bank_raises () =
  let seed = 3 and rounds = 4 and levels = 6 and n = 5 in
  let bits = Core.Sketch_connectivity.message_bits ~n ~rounds ~levels () in
  let p = Core.Sketch_connectivity.protocol ~seed ~rounds ~levels () in
  List.iter
    (fun len ->
      let m = Refnet_bits.Bitvec.create len in
      let raised f = match f () with _ -> false | exception Refnet_bits.Bit_reader.Exhausted -> true in
      Alcotest.(check bool)
        (Printf.sprintf "oracle parse raises at %d bits" len)
        true
        (raised (fun () -> oracle_verdict ~seed ~rounds ~levels ~n:1 [| m |]));
      Alcotest.(check bool)
        (Printf.sprintf "absorb raises at %d bits" len)
        true
        (raised (fun () -> Core.Protocol.feed (Core.Protocol.start p.referee ~n) ~id:2 m)))
    [ 0; 1; bits - 93; bits - 1 ];
  (* a full-size bank is taken *)
  ignore (Core.Protocol.feed (Core.Protocol.start p.referee ~n) ~id:2 (Refnet_bits.Bitvec.create bits))

let () =
  Alcotest.run "sketch_connectivity"
    [
      ( "edge indexing",
        [
          Alcotest.test_case "roundtrip" `Quick test_edge_index_roundtrip;
          Alcotest.test_case "symmetric" `Quick test_edge_index_symmetric;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "connected families" `Quick test_connected_families;
          Alcotest.test_case "disconnected never pass" `Quick test_disconnected_families_never_pass;
          Alcotest.test_case "high success rate" `Quick test_connected_high_success_rate;
          Alcotest.test_case "polylog message size" `Quick test_message_size_polylog;
          Alcotest.test_case "exact transcript size" `Quick test_exact_transcript_size;
          Alcotest.test_case "shared-seed determinism" `Quick test_seed_is_shared_randomness;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_matches_truth_mostly; prop_rounds_monotone ]
      );
      ( "record oracle",
        Alcotest.test_case "short banks raise in absorb" `Quick test_short_bank_raises
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_graphs_match_oracle; prop_byte_banks_match_oracle ] );
    ]
