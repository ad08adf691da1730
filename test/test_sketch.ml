(* Sketch substrate: field, hashing, 1-sparse recovery, l0 sampling. *)
open Refnet_sketch

let test_field_axioms () =
  Alcotest.(check int) "p is 2^31-1" 2147483647 Field.p;
  Alcotest.(check int) "add wraps" 0 (Field.add (Field.p - 1) 1);
  Alcotest.(check int) "sub wraps" (Field.p - 1) (Field.sub 0 1);
  Alcotest.(check int) "neg zero" 0 (Field.neg 0);
  Alcotest.(check int) "of_int negative" (Field.p - 5) (Field.of_int (-5));
  Alcotest.(check int) "mul" 6 (Field.mul 2 3);
  Alcotest.(check int) "pow" 1024 (Field.pow 2 10);
  Alcotest.(check int) "fermat" 1 (Field.pow 7 (Field.p - 1))

let test_field_inverse () =
  List.iter
    (fun x -> Alcotest.(check int) (string_of_int x) 1 (Field.mul x (Field.inv x)))
    [ 1; 2; 12345; Field.p - 1 ];
  Alcotest.check_raises "zero" Division_by_zero (fun () -> ignore (Field.inv 0))

let prop_field_mul_is_mod =
  (* the Mersenne fold against the division it replaced, on [0, p]:
     the non-canonical p and the corners near it included *)
  let corners = [ 0; 1; 2; Field.p - 2; Field.p - 1; Field.p; 1 lsl 30; (1 lsl 30) + 1 ] in
  let elt = QCheck2.Gen.(oneof [ oneofl corners; int_range 0 Field.p ]) in
  QCheck2.Test.make ~name:"Field.mul a b = a * b mod p on [0, p]" ~count:2000
    QCheck2.Gen.(pair elt elt)
    (fun (a, b) -> Field.mul a b = a * b mod Field.p)

let test_hash_deterministic () =
  let f1 = Hash.seed_family ~seed:99 ~count:5 in
  let f2 = Hash.seed_family ~seed:99 ~count:5 in
  for i = 0 to 4 do
    for x = 0 to 50 do
      Alcotest.(check int) "same seed same hash" (Hash.apply f1.(i) x) (Hash.apply f2.(i) x)
    done
  done;
  let g = Hash.seed_family ~seed:100 ~count:1 in
  let differs = ref false in
  for x = 0 to 50 do
    if Hash.apply g.(0) x <> Hash.apply f1.(0) x then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

let test_hash_levels_geometric () =
  let h = (Hash.seed_family ~seed:7 ~count:1).(0) in
  let counts = Array.make 4 0 in
  for x = 0 to 9999 do
    let l = Hash.level h x ~max_level:3 in
    counts.(l) <- counts.(l) + 1
  done;
  (* Roughly half at level 0, quarter at level 1, ... *)
  Alcotest.(check bool) "level 0 about half" true (counts.(0) > 4000 && counts.(0) < 6000);
  Alcotest.(check bool) "level 1 about quarter" true (counts.(1) > 1800 && counts.(1) < 3200);
  Alcotest.(check bool) "monotone decrease" true (counts.(0) > counts.(1) && counts.(1) > counts.(2))

let sparse_sketch pairs =
  List.fold_left
    (fun acc (index, delta) -> One_sparse.update acc ~index ~delta)
    (One_sparse.create ~z:12345) pairs

let test_one_sparse_recovers () =
  (match One_sparse.recover (sparse_sketch [ (42, 1) ]) with
  | Some (42, 1) -> ()
  | _ -> Alcotest.fail "positive singleton");
  (match One_sparse.recover (sparse_sketch [ (7, -1) ]) with
  | Some (7, -1) -> ()
  | _ -> Alcotest.fail "negative singleton");
  match One_sparse.recover (sparse_sketch [ (1000000, 3) ]) with
  | Some (1000000, 3) -> ()
  | _ -> Alcotest.fail "weighted singleton"

let test_one_sparse_rejects () =
  Alcotest.(check bool) "zero vector" true (One_sparse.recover (sparse_sketch []) = None);
  Alcotest.(check bool) "cancelled" true
    (One_sparse.recover (sparse_sketch [ (5, 1); (5, -1) ]) = None);
  (* Two survivors: fingerprint must reject (w.h.p.). *)
  Alcotest.(check bool) "2-sparse rejected" true
    (One_sparse.recover (sparse_sketch [ (3, 1); (9, 1) ]) = None);
  Alcotest.(check bool) "opposite signs rejected" true
    (One_sparse.recover (sparse_sketch [ (3, 1); (9, -1) ]) = None)

let test_one_sparse_linear () =
  let a = sparse_sketch [ (3, 1); (8, 1) ] in
  let b = sparse_sketch [ (3, -1) ] in
  match One_sparse.recover (One_sparse.combine a b) with
  | Some (8, 1) -> ()
  | _ -> Alcotest.fail "combination should cancel to a singleton"

let test_one_sparse_serialization () =
  let s = sparse_sketch [ (77, -1) ] in
  let w = Refnet_bits.Bit_writer.create () in
  One_sparse.write w s;
  Alcotest.(check int) "93 bits" One_sparse.bits (Refnet_bits.Bit_writer.length w);
  let s' =
    One_sparse.read (Refnet_bits.Bit_reader.of_bitvec (Refnet_bits.Bit_writer.contents w)) ~z:12345
  in
  match One_sparse.recover s' with
  | Some (77, -1) -> ()
  | _ -> Alcotest.fail "roundtrip recovery"

let fresh_sampler ?(seed = 11) ?(levels = 12) () =
  let rng = Random.State.make [| seed |] in
  L0_sampler.create ~rng ~levels

let test_l0_samples_member () =
  let support = [ 17; 230; 4095; 9; 512 ] in
  let s =
    List.fold_left (fun acc i -> L0_sampler.update acc ~index:i ~delta:1) (fresh_sampler ())
      support
  in
  match L0_sampler.sample s with
  | Some (i, 1) -> Alcotest.(check bool) "member" true (List.mem i support)
  | Some _ -> Alcotest.fail "wrong value"
  | None -> Alcotest.fail "sampler should succeed on a 5-sparse vector"

let test_l0_zero_vector () =
  Alcotest.(check bool) "empty" true (L0_sampler.sample (fresh_sampler ()) = None);
  let s =
    L0_sampler.update
      (L0_sampler.update (fresh_sampler ()) ~index:3 ~delta:1)
      ~index:3 ~delta:(-1)
  in
  Alcotest.(check bool) "cancelled" true (L0_sampler.sample s = None)

let test_l0_linearity_cancels () =
  (* Two overlapping sets; shared indices with opposite signs vanish. *)
  let a =
    List.fold_left (fun acc i -> L0_sampler.update acc ~index:i ~delta:1)
      (fresh_sampler ~seed:21 ()) [ 5; 11; 99 ]
  in
  let b =
    List.fold_left (fun acc i -> L0_sampler.update acc ~index:i ~delta:(-1))
      (fresh_sampler ~seed:21 ()) [ 5; 11 ]
  in
  match L0_sampler.sample (L0_sampler.combine a b) with
  | Some (99, 1) -> ()
  | _ -> Alcotest.fail "only 99 survives"

let test_l0_combine_guard () =
  let a = fresh_sampler ~seed:1 () and b = fresh_sampler ~seed:2 () in
  Alcotest.check_raises "different seeds"
    (Invalid_argument "L0_sampler.combine: samplers from different seed positions") (fun () ->
      ignore (L0_sampler.combine a b))

let test_l0_serialization () =
  let s = L0_sampler.update (fresh_sampler ~seed:31 ()) ~index:100 ~delta:1 in
  let w = Refnet_bits.Bit_writer.create () in
  L0_sampler.write w s;
  Alcotest.(check int) "size" (L0_sampler.bits ~levels:12) (Refnet_bits.Bit_writer.length w);
  let s' =
    L0_sampler.read
      (Refnet_bits.Bit_reader.of_bitvec (Refnet_bits.Bit_writer.contents w))
      ~template:(fresh_sampler ~seed:31 ())
  in
  match L0_sampler.sample s' with
  | Some (100, 1) -> ()
  | _ -> Alcotest.fail "roundtrip sample"

let prop_one_sparse_exact =
  QCheck2.Test.make ~name:"1-sparse vectors always recover exactly" ~count:300
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 100))
    (fun (i, c) ->
      match One_sparse.recover (sparse_sketch [ (i, c) ]) with
      | Some (i', c') -> i' = i && c' = c
      | None -> false)

let prop_l0_sample_correct_sign =
  QCheck2.Test.make ~name:"sampled coordinate is a true support member with its sign" ~count:200
    QCheck2.Gen.(
      pair (int_range 0 1000)
        (list_size (int_range 1 40) (int_range 0 100_000)))
    (fun (seed, raw) ->
      let support = List.sort_uniq compare raw in
      let s =
        List.fold_left
          (fun acc i -> L0_sampler.update acc ~index:i ~delta:1)
          (fresh_sampler ~seed ~levels:20 ())
          support
      in
      match L0_sampler.sample s with
      | Some (i, 1) -> List.mem i support
      | Some _ -> false
      | None -> true (* allowed to fail, never to lie *))

let prop_l0_success_rate =
  QCheck2.Test.make ~name:"sampler succeeds on most non-zero vectors" ~count:1
    QCheck2.Gen.unit (fun () ->
      let successes = ref 0 in
      let trials = 200 in
      for seed = 1 to trials do
        let support = List.init ((seed mod 37) + 1) (fun i -> (i * 97) + seed) in
        let s =
          List.fold_left
            (fun acc i -> L0_sampler.update acc ~index:i ~delta:1)
            (fresh_sampler ~seed ~levels:20 ())
            support
        in
        if L0_sampler.sample s <> None then incr successes
      done;
      !successes > trials * 7 / 10)

let () =
  Alcotest.run "sketch"
    [
      ( "field",
        [
          Alcotest.test_case "axioms" `Quick test_field_axioms;
          Alcotest.test_case "inverse" `Quick test_field_inverse;
          QCheck_alcotest.to_alcotest prop_field_mul_is_mod;
        ] );
      ( "hash",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_hash_deterministic;
          Alcotest.test_case "geometric levels" `Quick test_hash_levels_geometric;
        ] );
      ( "one-sparse",
        [
          Alcotest.test_case "recovers singletons" `Quick test_one_sparse_recovers;
          Alcotest.test_case "rejects non-singletons" `Quick test_one_sparse_rejects;
          Alcotest.test_case "linearity" `Quick test_one_sparse_linear;
          Alcotest.test_case "serialization" `Quick test_one_sparse_serialization;
        ] );
      ( "l0-sampler",
        [
          Alcotest.test_case "samples a member" `Quick test_l0_samples_member;
          Alcotest.test_case "zero vector" `Quick test_l0_zero_vector;
          Alcotest.test_case "linear cancellation" `Quick test_l0_linearity_cancels;
          Alcotest.test_case "combine guard" `Quick test_l0_combine_guard;
          Alcotest.test_case "serialization" `Quick test_l0_serialization;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_one_sparse_exact; prop_l0_sample_correct_sign; prop_l0_success_rate ] );
    ]
