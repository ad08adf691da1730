open Refnet_bits

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create_empty () =
  let v = Bitvec.create 10 in
  check_int "length" 10 (Bitvec.length v);
  check_int "popcount" 0 (Bitvec.popcount v);
  check "is_empty" true (Bitvec.is_empty v)

let test_set_get_clear () =
  let v = Bitvec.create 20 in
  Bitvec.set v 0;
  Bitvec.set v 7;
  Bitvec.set v 8;
  Bitvec.set v 19;
  check "bit 0" true (Bitvec.get v 0);
  check "bit 7" true (Bitvec.get v 7);
  check "bit 8" true (Bitvec.get v 8);
  check "bit 19" true (Bitvec.get v 19);
  check "bit 1" false (Bitvec.get v 1);
  check_int "popcount" 4 (Bitvec.popcount v);
  Bitvec.clear v 8;
  check "cleared" false (Bitvec.get v 8);
  check_int "popcount after clear" 3 (Bitvec.popcount v)

let test_assign () =
  let v = Bitvec.create 3 in
  Bitvec.assign v 1 true;
  check "assigned" true (Bitvec.get v 1);
  Bitvec.assign v 1 false;
  check "unassigned" false (Bitvec.get v 1)

let test_bounds () =
  let v = Bitvec.create 5 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec.get: index out of bounds")
    (fun () -> ignore (Bitvec.get v (-1)));
  Alcotest.check_raises "get 5" (Invalid_argument "Bitvec.get: index out of bounds")
    (fun () -> ignore (Bitvec.get v 5));
  Alcotest.check_raises "negative length" (Invalid_argument "Bitvec.create: negative length")
    (fun () -> ignore (Bitvec.create (-1)))

let test_to_of_list () =
  let v = Bitvec.of_list 12 [ 0; 3; 11 ] in
  Alcotest.(check (list int)) "roundtrip" [ 0; 3; 11 ] (Bitvec.to_list v);
  check_int "popcount" 3 (Bitvec.popcount v)

let test_iter_order () =
  let v = Bitvec.of_list 30 [ 29; 2; 14 ] in
  let seen = ref [] in
  Bitvec.iter_set v (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "increasing" [ 2; 14; 29 ] (List.rev !seen)

let test_setops () =
  let u = Bitvec.of_list 10 [ 1; 2; 3 ] in
  let v = Bitvec.of_list 10 [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitvec.to_list (Bitvec.union u v));
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitvec.to_list (Bitvec.inter u v));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitvec.to_list (Bitvec.diff u v));
  check "subset yes" true (Bitvec.subset (Bitvec.of_list 10 [ 1; 3 ]) u);
  check "subset no" false (Bitvec.subset v u)

let test_length_mismatch () =
  Alcotest.check_raises "union mismatch" (Invalid_argument "Bitvec.union: length mismatch")
    (fun () -> ignore (Bitvec.union (Bitvec.create 3) (Bitvec.create 4)))

let test_complement_trailing_bits () =
  (* Length not a multiple of 8: trailing bits must stay clear. *)
  let v = Bitvec.of_list 11 [ 0; 10 ] in
  let c = Bitvec.complement v in
  check_int "popcount" 9 (Bitvec.popcount c);
  check "bit 0 off" false (Bitvec.get c 0);
  check "bit 5 on" true (Bitvec.get c 5);
  check "double complement" true (Bitvec.equal v (Bitvec.complement c))

let test_copy_independent () =
  let v = Bitvec.of_list 8 [ 1 ] in
  let c = Bitvec.copy v in
  Bitvec.set c 2;
  check "original untouched" false (Bitvec.get v 2);
  check "copy changed" true (Bitvec.get c 2)

let test_equal_compare () =
  let u = Bitvec.of_list 6 [ 0; 5 ] in
  let v = Bitvec.of_list 6 [ 0; 5 ] in
  check "equal" true (Bitvec.equal u v);
  check_int "compare eq" 0 (Bitvec.compare u v);
  Bitvec.set v 1;
  check "not equal" false (Bitvec.equal u v)

let test_to_string () =
  Alcotest.(check string) "render" "0101" (Bitvec.to_string (Bitvec.of_list 4 [ 1; 3 ]))

(* ---------- packed bytes and word-level access ---------- *)

let test_packed_layout () =
  (* bit i is 0x80 lsr (i mod 8) of byte i / 8 *)
  let v = Bitvec.of_list 11 [ 0; 7; 8; 10 ] in
  Alcotest.(check string) "MSB-first bytes" "\x81\xa0" (Bitvec.to_packed v);
  check_int "empty vector, no bytes" 0 (String.length (Bitvec.to_packed (Bitvec.create 0)));
  let w = Bitvec.of_packed ~len:11 "\x81\xbf" in
  check "pad bits cleared" true (Bitvec.equal v w);
  Alcotest.(check string) "cleared on the way out" "\x81\xa0" (Bitvec.to_packed w);
  let u = Bitvec.of_packed ~off:1 ~len:4 "\xff\x5f" in
  Alcotest.(check string) "offset" "0101" (Bitvec.to_string u);
  Alcotest.check_raises "too few bytes" (Invalid_argument "Bitvec.of_packed: not enough bytes")
    (fun () -> ignore (Bitvec.of_packed ~len:9 "\x00"))

let test_get_set_bits () =
  let v = Bitvec.create 140 in
  Bitvec.set_bits v ~pos:5 ~width:62 max_int;
  check_int "62 ones" 62 (Bitvec.popcount v);
  check_int "read back" max_int (Bitvec.get_bits v ~pos:5 ~width:62);
  check "before" false (Bitvec.get v 4);
  check "after" false (Bitvec.get v 67);
  Bitvec.set_bits v ~pos:130 ~width:10 0b1000000001;
  check "tail first" true (Bitvec.get v 130);
  check "tail last" true (Bitvec.get v 139);
  check_int "tail value" 0b1000000001 (Bitvec.get_bits v ~pos:130 ~width:10);
  Bitvec.set_bits v ~pos:5 ~width:3 0;
  check_int "overwrite" (max_int lsr 3) (Bitvec.get_bits v ~pos:5 ~width:62);
  Alcotest.check_raises "out of range" (Invalid_argument "Bitvec.get_bits: range out of bounds")
    (fun () -> ignore (Bitvec.get_bits v ~pos:100 ~width:41))

(* [blit] and [sub] agree with a per-bit copy at every alignment pair. *)
let test_blit_alignments () =
  let rng = Random.State.make [| 0xb117 |] in
  let src = Bitvec.create 200 in
  for i = 0 to 199 do
    if Random.State.bool rng then Bitvec.set src i
  done;
  for src_pos = 0 to 9 do
    for dst_pos = 0 to 9 do
      List.iter
        (fun len ->
          let dst = Bitvec.complement (Bitvec.create 190) in
          let expect = Bitvec.copy dst in
          for k = 0 to len - 1 do
            Bitvec.assign expect (dst_pos + k) (Bitvec.get src (src_pos + k))
          done;
          Bitvec.blit ~src ~src_pos ~dst ~dst_pos ~len;
          check (Printf.sprintf "blit %d->%d len %d" src_pos dst_pos len) true (Bitvec.equal expect dst);
          Alcotest.(check string) "sub"
            (String.sub (Bitvec.to_string src) src_pos len)
            (Bitvec.to_string (Bitvec.sub src ~pos:src_pos ~len)))
        [ 0; 1; 7; 8; 9; 55; 56; 57; 63; 64; 65; 130; 180 ]
    done
  done

let bit_list_gen =
  QCheck2.Gen.(
    bind (int_range 1 64) (fun n ->
        map (fun l -> (n, List.sort_uniq compare (List.map (fun i -> abs i mod n) l)))
          (list_size (int_range 0 64) int)))

let prop_roundtrip =
  QCheck2.Test.make ~name:"of_list/to_list roundtrip" ~count:200 bit_list_gen
    (fun (n, l) -> Bitvec.to_list (Bitvec.of_list n l) = l)

let prop_popcount =
  QCheck2.Test.make ~name:"popcount = |to_list|" ~count:200 bit_list_gen
    (fun (n, l) -> Bitvec.popcount (Bitvec.of_list n l) = List.length l)

let prop_union_inter_sizes =
  QCheck2.Test.make ~name:"|A| + |B| = |A∪B| + |A∩B|" ~count:200
    QCheck2.Gen.(pair bit_list_gen bit_list_gen)
    (fun ((n1, l1), (n2, l2)) ->
      let n = max n1 n2 in
      let a = Bitvec.of_list n l1 and b = Bitvec.of_list n l2 in
      Bitvec.popcount a + Bitvec.popcount b
      = Bitvec.popcount (Bitvec.union a b) + Bitvec.popcount (Bitvec.inter a b))

let () =
  Alcotest.run "bitvec"
    [
      ( "unit",
        [
          Alcotest.test_case "create empty" `Quick test_create_empty;
          Alcotest.test_case "set/get/clear" `Quick test_set_get_clear;
          Alcotest.test_case "assign" `Quick test_assign;
          Alcotest.test_case "bounds checking" `Quick test_bounds;
          Alcotest.test_case "to/of list" `Quick test_to_of_list;
          Alcotest.test_case "iter order" `Quick test_iter_order;
          Alcotest.test_case "set operations" `Quick test_setops;
          Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
          Alcotest.test_case "complement trailing bits" `Quick test_complement_trailing_bits;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "equal/compare" `Quick test_equal_compare;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ( "packed",
        [
          Alcotest.test_case "layout and pad bits" `Quick test_packed_layout;
          Alcotest.test_case "get/set bits" `Quick test_get_set_bits;
          Alcotest.test_case "blit at every alignment" `Quick test_blit_alignments;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_popcount; prop_union_inter_sizes ] );
    ]
