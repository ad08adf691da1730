open Refnet_bits

let test_writer_basics () =
  let w = Bit_writer.create () in
  Alcotest.(check int) "empty" 0 (Bit_writer.length w);
  Bit_writer.add_bit w true;
  Bit_writer.add_bit w false;
  Bit_writer.add_bit w true;
  Alcotest.(check int) "three bits" 3 (Bit_writer.length w);
  Alcotest.(check string) "contents" "101" (Bitvec.to_string (Bit_writer.contents w))

let test_add_bits_msb_first () =
  let w = Bit_writer.create () in
  Bit_writer.add_bits w ~value:5 ~width:4;
  Alcotest.(check string) "0101" "0101" (Bitvec.to_string (Bit_writer.contents w))

let test_add_bits_guards () =
  let w = Bit_writer.create () in
  Alcotest.check_raises "does not fit"
    (Invalid_argument "Bit_writer.add_bits: value does not fit") (fun () ->
      Bit_writer.add_bits w ~value:16 ~width:4);
  Alcotest.check_raises "negative" (Invalid_argument "Bit_writer.add_bits: negative value")
    (fun () -> Bit_writer.add_bits w ~value:(-1) ~width:4)

let test_append () =
  let a = Bit_writer.create () and b = Bit_writer.create () in
  Bit_writer.add_bits a ~value:3 ~width:2;
  Bit_writer.add_bits b ~value:1 ~width:2;
  Bit_writer.append a b;
  Alcotest.(check string) "1101" "1101" (Bitvec.to_string (Bit_writer.contents a))

let test_reader_roundtrip () =
  let w = Bit_writer.create () in
  Bit_writer.add_bits w ~value:42 ~width:7;
  Bit_writer.add_bit w true;
  Bit_writer.add_bits w ~value:3 ~width:2;
  let r = Bit_reader.of_bitvec (Bit_writer.contents w) in
  Alcotest.(check int) "value" 42 (Bit_reader.read_bits r ~width:7);
  Alcotest.(check bool) "bit" true (Bit_reader.read_bit r);
  Alcotest.(check int) "tail" 3 (Bit_reader.read_bits r ~width:2);
  Alcotest.(check int) "exhausted" 0 (Bit_reader.remaining r)

let test_reader_exhaustion () =
  let r = Bit_reader.of_bitvec (Bitvec.create 2) in
  ignore (Bit_reader.read_bits r ~width:2);
  Alcotest.check_raises "end" Bit_reader.Exhausted (fun () -> ignore (Bit_reader.read_bit r))

let test_bitvec_payload () =
  let w = Bit_writer.create () in
  let payload = Bitvec.of_list 9 [ 0; 4; 8 ] in
  Bit_writer.add_bitvec w payload;
  let r = Bit_reader.of_bitvec (Bit_writer.contents w) in
  Alcotest.(check bool) "roundtrip" true (Bitvec.equal payload (Bit_reader.read_bitvec r ~len:9))

(* ---------- oracle: the per-bit writer and reader as a model ---------- *)

(* A bit-at-a-time writer and reader over their own LSB-first bytes:
   every bit goes through one bounds-checked access, so their semantics
   are easy to read off.  The word-level modules must agree with them
   on every operation sequence. *)
module Model_writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.make 16 '\000'; len = 0 }

  let ensure w extra =
    let needed = (w.len + extra + 7) / 8 in
    if needed > Bytes.length w.buf then begin
      let cap = max needed (2 * Bytes.length w.buf) in
      let buf = Bytes.make cap '\000' in
      Bytes.blit w.buf 0 buf 0 (Bytes.length w.buf);
      w.buf <- buf
    end

  let add_bit w b =
    ensure w 1;
    if b then begin
      let i = w.len in
      Bytes.set w.buf (i / 8) (Char.chr (Char.code (Bytes.get w.buf (i / 8)) lor (1 lsl (i mod 8))))
    end;
    w.len <- w.len + 1

  let add_bits w ~value ~width =
    for i = width - 1 downto 0 do
      add_bit w (value land (1 lsl i) <> 0)
    done

  let add_bitvec w v =
    for i = 0 to Bitvec.length v - 1 do
      add_bit w (Bitvec.get v i)
    done

  let get_bit w i = Char.code (Bytes.get w.buf (i / 8)) land (1 lsl (i mod 8)) <> 0

  let append w w' =
    let n = w'.len in
    for i = 0 to n - 1 do
      add_bit w (get_bit w' i)
    done

  let contents w =
    let v = Bitvec.create w.len in
    for i = 0 to w.len - 1 do
      if get_bit w i then Bitvec.set v i
    done;
    v
end

module Model_reader = struct
  type t = { bits : Bitvec.t; mutable pos : int }

  let of_bitvec v = { bits = v; pos = 0 }
  let remaining r = Bitvec.length r.bits - r.pos

  let read_bit r =
    if r.pos >= Bitvec.length r.bits then raise Bit_reader.Exhausted;
    let b = Bitvec.get r.bits r.pos in
    r.pos <- r.pos + 1;
    b

  let read_bits r ~width =
    if remaining r < width then raise Bit_reader.Exhausted;
    let acc = ref 0 in
    for _ = 1 to width do
      acc := (!acc lsl 1) lor if read_bit r then 1 else 0
    done;
    !acc

  let read_bitvec r ~len =
    if remaining r < len then raise Bit_reader.Exhausted;
    let v = Bitvec.create len in
    for i = 0 to len - 1 do
      if read_bit r then Bitvec.set v i
    done;
    v
end

let random_bitvec rng len =
  let v = Bitvec.create len in
  for i = 0 to len - 1 do
    if Random.State.bool rng then Bitvec.set v i
  done;
  v

(* A value of exactly [width] bits or fewer; at width 62 half of the
   values have bit 61 set, the top bit [add_bits] accepts. *)
let random_value rng width =
  if width = 0 then 0
  else if width = 62 && Random.State.bool rng then
    (1 lsl 61) lor Random.State.bits rng lor (Random.State.bits rng lsl 30)
  else (Random.State.bits rng lor (Random.State.bits rng lsl 30) lor (Random.State.bits rng lsl 60))
       land ((1 lsl width) - 1)

(* Both writers fed the same random operation, checked after each one. *)
let write_op rng w m =
  (match Random.State.int rng 4 with
  | 0 ->
    let b = Random.State.bool rng in
    Bit_writer.add_bit w b;
    Model_writer.add_bit m b
  | 1 ->
    let width = Random.State.int rng 63 in
    let value = random_value rng width in
    Bit_writer.add_bits w ~value ~width;
    Model_writer.add_bits m ~value ~width
  | 2 ->
    let v = random_bitvec rng (Random.State.int rng 90) in
    Bit_writer.add_bitvec w v;
    Model_writer.add_bitvec m v
  | _ ->
    let w' = Bit_writer.create () and m' = Model_writer.create () in
    let v = random_bitvec rng (Random.State.int rng 90) in
    Bit_writer.add_bitvec w' v;
    Model_writer.add_bitvec m' v;
    Bit_writer.append w w';
    Model_writer.append m m');
  Alcotest.(check int) "length" m.Model_writer.len (Bit_writer.length w)

(* Both readers run; they must agree on the value or both be exhausted. *)
let same_outcome name real model =
  let outcome f = match f () with v -> Some v | exception Bit_reader.Exhausted -> None in
  let expected = outcome model in
  Alcotest.(check bool) name true (outcome real = expected)

let read_op rng r m =
  (match Random.State.int rng 3 with
  | 0 -> same_outcome "read_bit" (fun () -> Bit_reader.read_bit r) (fun () -> Model_reader.read_bit m)
  | 1 ->
    let width = Random.State.int rng 63 in
    same_outcome "read_bits"
      (fun () -> Bit_reader.read_bits r ~width)
      (fun () -> Model_reader.read_bits m ~width)
  | _ ->
    let len = Random.State.int rng 100 in
    same_outcome "read_bitvec"
      (fun () -> Bitvec.to_string (Bit_reader.read_bitvec r ~len))
      (fun () -> Bitvec.to_string (Model_reader.read_bitvec m ~len)));
  Alcotest.(check int) "position" Model_reader.(m.pos) (Bit_reader.position r)

let test_oracle_random_sequences () =
  let rng = Random.State.make [| 0x0b17; 7 |] in
  for _ = 1 to 300 do
    let w = Bit_writer.create () and m = Model_writer.create () in
    for _ = 1 to Random.State.int rng 40 do
      write_op rng w m
    done;
    let v = Bit_writer.contents w and mv = Model_writer.contents m in
    Alcotest.(check string) "contents" (Bitvec.to_string mv) (Bitvec.to_string v);
    Alcotest.(check bool) "contents equal" true (Bitvec.equal mv v);
    let r = Bit_reader.of_bitvec v and mr = Model_reader.of_bitvec mv in
    while Model_reader.remaining mr > 0 do
      read_op rng r mr
    done;
    Alcotest.(check int) "drained" 0 (Bit_reader.remaining r);
    Alcotest.check_raises "exhausted at end" Bit_reader.Exhausted (fun () ->
        ignore (Bit_reader.read_bit r))
  done

(* Every alignment mod 8 of the writer, for bit vectors and appended
   writers of every length up to 80, and every read offset into them. *)
let test_oracle_alignments () =
  let rng = Random.State.make [| 0xa119; 8 |] in
  for prefix = 0 to 15 do
    for len = 0 to 80 do
      let v = random_bitvec rng len in
      let lead = random_value rng prefix in
      let w = Bit_writer.create () and m = Model_writer.create () in
      Bit_writer.add_bits w ~value:lead ~width:prefix;
      Model_writer.add_bits m ~value:lead ~width:prefix;
      Bit_writer.add_bitvec w v;
      Model_writer.add_bitvec m v;
      let w' = Bit_writer.create () and m' = Model_writer.create () in
      Bit_writer.add_bitvec w' v;
      Model_writer.add_bitvec m' v;
      Bit_writer.append w w';
      Model_writer.append m m';
      Bit_writer.append w w;
      Model_writer.append m m;
      let got = Bit_writer.contents w in
      Alcotest.(check string) "aligned contents" (Bitvec.to_string (Model_writer.contents m))
        (Bitvec.to_string got);
      let r = Bit_reader.of_bitvec got in
      ignore (Bit_reader.read_bits r ~width:prefix);
      Alcotest.(check string) "read_bitvec at offset" (Bitvec.to_string v)
        (Bitvec.to_string (Bit_reader.read_bitvec r ~len));
      let width = min 62 (Bit_reader.remaining r) in
      let mr = Model_reader.of_bitvec got in
      ignore (Model_reader.read_bitvec mr ~len:(prefix + len));
      Alcotest.(check int) "read_bits at offset" (Model_reader.read_bits mr ~width)
        (Bit_reader.read_bits r ~width);
      let rest = Bit_reader.remaining r in
      ignore (Bit_reader.read_bitvec r ~len:rest);
      Alcotest.check_raises "exhausted exactly at the end" Bit_reader.Exhausted (fun () ->
          ignore (Bit_reader.read_bits r ~width:1));
      Alcotest.(check int) "zero-width read at the end" 0 (Bit_reader.read_bits r ~width:0)
    done
  done

let test_width_62 () =
  let value = (1 lsl 61) lor 0x2aaaaaaaaaaaaaa in
  for prefix = 0 to 9 do
    let w = Bit_writer.create () in
    Bit_writer.add_bits w ~value:0 ~width:prefix;
    Bit_writer.add_bits w ~value ~width:62;
    Bit_writer.add_bits w ~value:max_int ~width:62;
    let r = Bit_reader.of_bitvec (Bit_writer.contents w) in
    ignore (Bit_reader.read_bits r ~width:prefix);
    Alcotest.(check int) "top bit kept" value (Bit_reader.read_bits r ~width:62);
    Alcotest.(check int) "all ones" max_int (Bit_reader.read_bits r ~width:62)
  done

(* ---------- FNV-1a-32 ---------- *)

let test_fnv_vectors () =
  List.iter
    (fun (s, h) -> Alcotest.(check int) (Printf.sprintf "fnv %S" s) h (Fnv.string s))
    [ ("", 0x811c9dc5); ("a", 0xe40c292c); ("foobar", 0xbf9cf968) ];
  let b = Bytes.of_string "xxfoobarxx" in
  Alcotest.(check int) "slice" 0xbf9cf968 (Fnv.bytes b ~off:2 ~len:6);
  Alcotest.(check int) "chained" 0xbf9cf968
    (Fnv.bytes ~h:(Fnv.bytes b ~off:2 ~len:3) b ~off:5 ~len:3);
  Alcotest.(check int) "fold_byte" 0xe40c292c (Fnv.fold_byte Fnv.offset (Char.code 'a'))

let test_bits_needed () =
  Alcotest.(check int) "0" 0 (Codes.bits_needed 0);
  Alcotest.(check int) "1" 1 (Codes.bits_needed 1);
  Alcotest.(check int) "7" 3 (Codes.bits_needed 7);
  Alcotest.(check int) "8" 4 (Codes.bits_needed 8)

let test_id_width () =
  Alcotest.(check int) "n=1" 1 (Codes.id_width 1);
  Alcotest.(check int) "n=7" 3 (Codes.id_width 7);
  Alcotest.(check int) "n=8" 4 (Codes.id_width 8);
  Alcotest.(check int) "n=0" 1 (Codes.id_width 0)

let roundtrip_code write read v =
  let w = Bit_writer.create () in
  write w v;
  let r = Bit_reader.of_bitvec (Bit_writer.contents w) in
  let v' = read r in
  Alcotest.(check int) "decoded" v v';
  Alcotest.(check int) "fully consumed" 0 (Bit_reader.remaining r)

let test_unary () = List.iter (roundtrip_code Codes.write_unary Codes.read_unary) [ 0; 1; 5; 17 ]

let test_gamma () =
  List.iter (roundtrip_code Codes.write_gamma Codes.read_gamma) [ 1; 2; 3; 4; 100; 4097 ]

let test_gamma_length () =
  (* gamma(v) takes exactly 2 floor(log2 v) + 1 bits. *)
  List.iter
    (fun v ->
      let w = Bit_writer.create () in
      Codes.write_gamma w v;
      Alcotest.(check int)
        (Printf.sprintf "len gamma %d" v)
        ((2 * (Codes.bits_needed v - 1)) + 1)
        (Bit_writer.length w))
    [ 1; 2; 7; 8; 1000 ]

let test_delta () =
  List.iter (roundtrip_code Codes.write_delta Codes.read_delta) [ 1; 2; 3; 9; 511; 70000 ]

let test_nonneg () =
  List.iter (roundtrip_code Codes.write_nonneg Codes.read_nonneg) [ 0; 1; 63; 64; 12345 ]

let test_mixed_stream () =
  let w = Bit_writer.create () in
  Codes.write_gamma w 9;
  Codes.write_fixed w ~width:5 17;
  Codes.write_delta w 33;
  Codes.write_nonneg w 0;
  let r = Bit_reader.of_bitvec (Bit_writer.contents w) in
  Alcotest.(check int) "gamma" 9 (Codes.read_gamma r);
  Alcotest.(check int) "fixed" 17 (Codes.read_fixed r ~width:5);
  Alcotest.(check int) "delta" 33 (Codes.read_delta r);
  Alcotest.(check int) "nonneg" 0 (Codes.read_nonneg r)

let prop_gamma_roundtrip =
  QCheck2.Test.make ~name:"gamma roundtrip" ~count:500
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun v ->
      let w = Bit_writer.create () in
      Codes.write_gamma w v;
      Codes.read_gamma (Bit_reader.of_bitvec (Bit_writer.contents w)) = v)

let prop_delta_roundtrip =
  QCheck2.Test.make ~name:"delta roundtrip" ~count:500
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun v ->
      let w = Bit_writer.create () in
      Codes.write_delta w v;
      Codes.read_delta (Bit_reader.of_bitvec (Bit_writer.contents w)) = v)

let prop_fixed_roundtrip =
  QCheck2.Test.make ~name:"fixed roundtrip at minimal width" ~count:500
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun v ->
      let width = max 1 (Codes.bits_needed v) in
      let w = Bit_writer.create () in
      Codes.write_fixed w ~width v;
      Codes.read_fixed (Bit_reader.of_bitvec (Bit_writer.contents w)) ~width = v)

let prop_concat_streams =
  QCheck2.Test.make ~name:"sequential values decode in order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 30) (int_range 0 10_000))
    (fun vs ->
      let w = Bit_writer.create () in
      List.iter (Codes.write_nonneg w) vs;
      let r = Bit_reader.of_bitvec (Bit_writer.contents w) in
      List.for_all (fun v -> Codes.read_nonneg r = v) vs)

let () =
  Alcotest.run "bit_io"
    [
      ( "writer/reader",
        [
          Alcotest.test_case "writer basics" `Quick test_writer_basics;
          Alcotest.test_case "msb first" `Quick test_add_bits_msb_first;
          Alcotest.test_case "guards" `Quick test_add_bits_guards;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "roundtrip" `Quick test_reader_roundtrip;
          Alcotest.test_case "exhaustion" `Quick test_reader_exhaustion;
          Alcotest.test_case "bitvec payload" `Quick test_bitvec_payload;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "random op sequences" `Quick test_oracle_random_sequences;
          Alcotest.test_case "every alignment" `Quick test_oracle_alignments;
          Alcotest.test_case "width 62" `Quick test_width_62;
        ] );
      ("fnv", [ Alcotest.test_case "standard vectors" `Quick test_fnv_vectors ]);
      ( "codes",
        [
          Alcotest.test_case "bits_needed" `Quick test_bits_needed;
          Alcotest.test_case "id_width" `Quick test_id_width;
          Alcotest.test_case "unary" `Quick test_unary;
          Alcotest.test_case "gamma" `Quick test_gamma;
          Alcotest.test_case "gamma length" `Quick test_gamma_length;
          Alcotest.test_case "delta" `Quick test_delta;
          Alcotest.test_case "nonneg" `Quick test_nonneg;
          Alcotest.test_case "mixed stream" `Quick test_mixed_stream;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_gamma_roundtrip; prop_delta_roundtrip; prop_fixed_roundtrip; prop_concat_streams ]
      );
    ]
