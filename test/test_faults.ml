(* Fault-injection layer and detect-or-degrade verdicts.

   The contract under test is the one the hardened protocols advertise:
   under ANY fault plan they never return a wrong [Decided] — corruption
   is either detected (Degraded/Inconclusive) or absent (Decided equals
   the fault-free answer) — and an empty plan leaves [Faulty]
   delivery bit-identical to [In_order]. *)

open Refnet_graph

let rates i =
  (* Cycle through fault mixes so every fault kind gets exercised. *)
  match i mod 5 with
  | 0 -> (0.3, 0., 0., 0., 0.)
  | 1 -> (0., 0.3, 0.2, 0., 0.)
  | 2 -> (0., 0., 0.4, 0., 0.)
  | 3 -> (0., 0., 0., 0.4, 0.2)
  | _ -> (0.1, 0.1, 0.1, 0.1, 0.1)

let plan_for ~seed ~n i =
  let crash, truncate, flip, duplicate, spoof = rates i in
  Core.Faults.random ~seed ~n ~crash ~truncate ~flip ~flip_bits:2 ~duplicate ~spoof ()

let graph_opt_equal a b =
  match (a, b) with
  | Some g, Some h -> Graph.equal g h
  | None, None -> true
  | _ -> false

(* ---------- plan determinism and structure ---------- *)

let test_plan_reproducible () =
  for i = 0 to 20 do
    let p1 = plan_for ~seed:(100 + i) ~n:40 i in
    let p2 = plan_for ~seed:(100 + i) ~n:40 i in
    Alcotest.(check bool) "same seed, same plan" true
      (Core.Faults.to_list p1 = Core.Faults.to_list p2)
  done

let test_plan_of_list_validation () =
  let bad entries =
    match Core.Faults.of_list entries with
    | (_ : Core.Faults.plan) -> Alcotest.fail "of_list accepted an invalid plan"
    | exception Invalid_argument _ -> ()
  in
  bad [ (0, Core.Faults.Crash) ];
  bad [ (3, Core.Faults.Crash); (3, Core.Faults.Duplicate) ];
  bad [ (1, Core.Faults.Truncate (-1)) ];
  bad [ (1, Core.Faults.Spoof 0) ];
  let p = Core.Faults.of_list [ (5, Core.Faults.Crash); (2, Core.Faults.Duplicate) ] in
  Alcotest.(check (list int)) "ids sorted" [ 2; 5 ] (Core.Faults.ids p)

let test_apply_scope () =
  (* Entries beyond the message vector are ignored; crash drops, spoof
     re-addresses, duplicate delivers twice. *)
  let msgs = Array.init 3 (fun i -> Core.Message.seal ~n:3 ~id:(i + 1) Core.Message.empty) in
  let plan =
    Core.Faults.of_list
      [ (1, Core.Faults.Crash); (2, Core.Faults.Spoof 3); (9, Core.Faults.Crash) ]
  in
  let deliveries, injected = Core.Faults.apply plan msgs in
  Alcotest.(check (list int)) "in-scope injections" [ 1; 2 ] (List.map fst injected);
  Alcotest.(check (list int)) "delivery ids" [ 3; 3 ] (List.map fst deliveries)

(* ---------- seals ---------- *)

let test_seal_detects_any_single_flip () =
  let payload =
    let open Refnet_bits in
    let w = Bit_writer.create () in
    Codes.write_fixed w ~width:20 0xabcde;
    Bit_writer.contents w
  in
  let sealed = Core.Message.seal ~n:16 ~id:7 payload in
  (match Core.Message.unseal ~n:16 ~id:7 sealed with
  | Some p -> Alcotest.(check bool) "roundtrip" true (Core.Message.equal p payload)
  | None -> Alcotest.fail "unseal rejected an intact seal");
  (match Core.Message.unseal ~n:16 ~id:8 sealed with
  | None -> ()
  | Some _ -> Alcotest.fail "unseal accepted a wrong sender id");
  let open Refnet_bits in
  for i = 0 to Bitvec.length sealed - 1 do
    let tampered = Bitvec.copy sealed in
    Bitvec.assign tampered i (not (Bitvec.get tampered i));
    match Core.Message.unseal ~n:16 ~id:7 tampered with
    | None -> ()
    | Some _ -> Alcotest.failf "single flip at bit %d went undetected" i
  done

(* [verify] is [unseal]'s check without the copy: they agree on every
   single-bit flip of short sealed messages, under the right and a wrong
   sender, and on vectors too short to hold a digest. *)
let test_verify_agrees_with_unseal () =
  let open Refnet_bits in
  let rng = Random.State.make [| 0x5ea1 |] in
  let random_vec len =
    let v = Bitvec.create len in
    for i = 0 to len - 1 do
      Bitvec.assign v i (Random.State.bool rng)
    done;
    v
  in
  let agree what ~n ~id m =
    Alcotest.(check bool) what
      (Core.Message.unseal ~n ~id m <> None)
      (Core.Message.verify ~n ~id m)
  in
  for len = 0 to 40 do
    let sealed = Core.Message.seal ~n:16 ~id:7 (random_vec len) in
    agree "intact" ~n:16 ~id:7 sealed;
    Alcotest.(check bool) "intact verifies" true (Core.Message.verify ~n:16 ~id:7 sealed);
    agree "wrong sender" ~n:16 ~id:8 sealed;
    agree "wrong n" ~n:17 ~id:7 sealed;
    for i = 0 to Bitvec.length sealed - 1 do
      let tampered = Bitvec.copy sealed in
      Bitvec.assign tampered i (not (Bitvec.get tampered i));
      agree (Printf.sprintf "flip %d of %d" i (Bitvec.length sealed)) ~n:16 ~id:7 tampered
    done
  done;
  for len = 0 to 31 do
    let v = random_vec len in
    agree (Printf.sprintf "%d-bit vector" len) ~n:16 ~id:7 v;
    Alcotest.(check bool) "too short" false (Core.Message.verify ~n:16 ~id:7 v)
  done

(* The sealed receive path reads each payload in place: for payloads of
   0 to 64 bits the reader yields exactly the payload, and one bit more
   raises [Exhausted] instead of a digest bit.  A sealed absorb sees the
   payload's length as [remaining]. *)
let test_payload_reader () =
  let open Refnet_bits in
  let rng = Random.State.make [| 0x9a71 |] in
  let n = 65 in
  let payloads =
    Array.init 65 (fun len ->
        let v = Bitvec.create len in
        for i = 0 to len - 1 do
          Bitvec.assign v i (Random.State.bool rng)
        done;
        v)
  in
  let exhausted what f =
    match f () with
    | _ -> Alcotest.failf "%s: read past the payload" what
    | exception Bit_reader.Exhausted -> ()
  in
  Array.iteri
    (fun len payload ->
      let id = len + 1 in
      let sealed = Core.Message.seal ~n ~id payload in
      Alcotest.(check bool) "verifies" true (Core.Message.verify ~n ~id sealed);
      let what = Printf.sprintf "%d-bit payload" len in
      let r = Core.Message.payload_reader sealed in
      Alcotest.(check int) (what ^ ": remaining") len (Bit_reader.remaining r);
      for i = 0 to len - 1 do
        Alcotest.(check bool) (what ^ ": bit") (Bitvec.get payload i) (Bit_reader.read_bit r)
      done;
      exhausted (what ^ ": read_bit") (fun () -> Bit_reader.read_bit r);
      exhausted (what ^ ": read_bits") (fun () -> Bit_reader.read_bits r ~width:1);
      let r = Core.Message.payload_reader sealed in
      exhausted (what ^ ": read_bitvec") (fun () -> Bit_reader.read_bitvec r ~len:(len + 1));
      exhausted (what ^ ": unpack") (fun () ->
          Bit_reader.unpack r ~width:1 (Array.make (len + 1) 0) ~off:0 ~count:(len + 1)))
    payloads;
  let seen = Array.make n (-1) in
  let p =
    Core.Protocol.sealed ~name:"remaining" ~local:(fun _ -> Core.Message.empty)
      ~init:(fun ~n:_ -> ())
      ~absorb:(fun ~n:_ () ~id r -> seen.(id - 1) <- Bit_reader.remaining r)
      ~finish:(fun ~n:_ report ~trusted:_ () -> report)
  in
  let feed = ref (Core.Protocol.start p.Core.Protocol.referee ~n) in
  Array.iteri
    (fun len payload ->
      feed := Core.Protocol.feed !feed ~id:(len + 1) (Core.Message.seal ~n ~id:(len + 1) payload))
    payloads;
  Alcotest.(check bool) "clean channel" true
    (Core.Verdict.channel_clean (Core.Protocol.finish !feed));
  Alcotest.(check (array int)) "absorb sees the payload length" (Array.init n Fun.id) seen

(* ---------- empty plan == run, bit for bit ---------- *)

let test_empty_plan_bit_identical () =
  let g = Generators.random_tree (Random.State.make [| 31 |]) 25 in
  List.iter
    (fun domains ->
      let sink_a, events_a = Core.Trace.memory () in
      let sink_b, events_b = Core.Trace.memory () in
      let out_a, t_a =
        Core.Simulator.run ~domains ~trace:sink_a Core.Forest_protocol.reconstruct g
      in
      let out_b, t_b =
        Core.Simulator.run ~delivery:(Core.Simulator.Faulty Core.Faults.empty) ~domains
          ~trace:sink_b
          Core.Forest_protocol.reconstruct g
      in
      Alcotest.(check bool) "same output" true (graph_opt_equal out_a out_b);
      Alcotest.(check bool) "same transcript" true (t_a = t_b);
      Alcotest.(check bool) "no faulted ids" true (t_b.Core.Simulator.faulted_ids = []);
      Alcotest.(check bool) "same event stream" true (events_a () = events_b ()))
    [ 1; 2 ]

let test_empty_plan_coalition_identical () =
  let g = Generators.gnp (Random.State.make [| 5 |]) 20 0.2 in
  let parts = Core.Coalition.partition_by_ranges ~n:20 ~parts:4 in
  let sink_a, events_a = Core.Trace.memory () in
  let sink_b, events_b = Core.Trace.memory () in
  let out_a, t_a = Core.Coalition.run ~trace:sink_a Core.Connectivity_parts.decide g ~parts in
  let out_b, t_b =
    Core.Coalition.run ~delivery:(Core.Simulator.Faulty Core.Faults.empty) ~trace:sink_b
      Core.Connectivity_parts.decide g ~parts
  in
  Alcotest.(check bool) "same output" true (out_a = out_b);
  Alcotest.(check bool) "same transcript" true (t_a = t_b);
  Alcotest.(check bool) "same event stream" true (events_a () = events_b ())

(* ---------- detect or degrade, never lie ---------- *)

(* Generic property loop for reconstruction-style hardened protocols:
   Decided must equal the fault-free answer; Degraded must only claim
   true edges; nothing may escape as an exception. *)
let reconstruction_property name plain hardened make_graph =
  for trial = 1 to 40 do
    let g = make_graph trial in
    let n = Graph.order g in
    let clean, _ = Core.Simulator.run plain g in
    let faults = plan_for ~seed:trial ~n trial in
    match Core.Simulator.run ~delivery:(Core.Simulator.Faulty faults) hardened g with
    | exception e ->
      Alcotest.failf "%s trial %d: faulty run raised %s" name trial (Printexc.to_string e)
    | verdict, t ->
      Alcotest.(check bool)
        (Printf.sprintf "%s trial %d: faulted_ids matches plan" name trial)
        true
        (t.Core.Simulator.faulted_ids
        = List.map fst
            (List.filter (fun (id, _) -> id <= n) (Core.Faults.to_list faults)));
      (match verdict with
      | Core.Verdict.Decided out ->
        if not (graph_opt_equal out clean) then
          Alcotest.failf "%s trial %d: wrong Decided under plan %s" name trial
            (Format.asprintf "%a" Core.Faults.pp faults)
      | Core.Verdict.Degraded (Some h, report) ->
        Graph.iter_edges h (fun u v ->
            if not (Graph.has_edge g u v) then
              Alcotest.failf "%s trial %d: degraded output claims non-edge {%d,%d}" name trial
                u v);
        List.iter
          (fun id ->
            if id < 1 || id > n then
              Alcotest.failf "%s trial %d: undetermined id %d out of range" name trial id)
          report.Core.Verdict.undetermined
      | Core.Verdict.Degraded (None, _) ->
        Alcotest.failf "%s trial %d: Degraded None (reject needs authentic evidence)" name
          trial
      | Core.Verdict.Inconclusive _ -> ())
  done

let test_forest_detect_or_degrade () =
  reconstruction_property "forest" Core.Forest_protocol.reconstruct
    Core.Forest_protocol.hardened (fun trial ->
      Generators.random_forest
        (Random.State.make [| trial |])
        ((trial mod 25) + 4)
        ~trees:(max 1 (trial mod 4)))

let test_degeneracy_detect_or_degrade () =
  reconstruction_property "degeneracy-2"
    (Core.Degeneracy_protocol.reconstruct ~k:2 ())
    (Core.Degeneracy_protocol.hardened ~k:2 ())
    (fun trial ->
      Generators.random_k_degenerate (Random.State.make [| trial |]) ((trial mod 15) + 3) ~k:2)

let test_bounded_detect_or_degrade () =
  (* Overflow inputs are legal here: an authentic overflow row keeps the
     verdict Decided None even under faults, which the property accepts
     because the clean answer is None too. *)
  reconstruction_property "bounded-3"
    (Core.Bounded_degree.reconstruct ~max_degree:3)
    (Core.Bounded_degree.hardened ~max_degree:3)
    (fun trial -> Generators.gnp (Random.State.make [| trial |]) ((trial mod 12) + 3) 0.3)

(* ---------- forest is degeneracy at k = 1 ---------- *)

(* Section III.A is the k = 1 case of Algorithm 4, and both referees run
   the one leaf-prune: on random trees and cycles the two protocols send
   bit-identical messages and reach equal verdicts, clean and sealed
   under the same fault plan. *)
let test_forest_is_degeneracy_1 () =
  let plain = Core.Degeneracy_protocol.reconstruct ~k:1 () in
  let sealed = Core.Degeneracy_protocol.hardened ~k:1 () in
  let same_graph what a b =
    if not (graph_opt_equal a b) then Alcotest.failf "%s: forest and degeneracy-1 differ" what
  in
  for trial = 1 to 120 do
    let rng = Random.State.make [| 0xf0e57; trial |] in
    let n = 3 + Random.State.int rng 40 in
    let g = if trial mod 3 = 0 then Generators.cycle n else Generators.random_tree rng n in
    let what = Printf.sprintf "trial %d (n=%d)" trial n in
    let fm = Core.Simulator.local_phase Core.Forest_protocol.reconstruct g in
    let dm = Core.Simulator.local_phase plain g in
    Array.iteri
      (fun i m ->
        if not (Core.Message.equal m dm.(i)) then
          Alcotest.failf "%s: node %d's messages differ" what (i + 1))
      fm;
    same_graph what
      (fst (Core.Simulator.run Core.Forest_protocol.reconstruct g))
      (fst (Core.Simulator.run plain g));
    let faults = plan_for ~seed:trial ~n trial in
    let run p = fst (Core.Simulator.run ~delivery:(Core.Simulator.Faulty faults) p g) in
    match (run Core.Forest_protocol.hardened, run sealed) with
    | Core.Verdict.Decided a, Core.Verdict.Decided b -> same_graph what a b
    | Core.Verdict.Degraded (a, ra), Core.Verdict.Degraded (b, rb) ->
      same_graph what a b;
      Alcotest.(check (list int))
        (what ^ ": undetermined") ra.Core.Verdict.undetermined rb.Core.Verdict.undetermined
    | Core.Verdict.Inconclusive _, Core.Verdict.Inconclusive _ -> ()
    | _ -> Alcotest.failf "%s: sealed verdicts differ in kind" what
  done;
  (* Authentic rows that contradict each other (a forged seal) with node
     3 missing: an exhausted partner, a negative residual sum, an
     out-of-range neighbour and a self-loop are Inconclusive for both. *)
  let n = 5 in
  let forged p rows =
    let open Refnet_bits in
    let w = Core.Bounds.id_bits n in
    let feed = ref (Core.Protocol.start p.Core.Protocol.referee ~n) in
    List.iter
      (fun (id, d, sum) ->
        let wr = Bit_writer.create () in
        Codes.write_fixed wr ~width:w id;
        Codes.write_fixed wr ~width:w d;
        Codes.write_fixed wr ~width:(2 * w) sum;
        feed := Core.Protocol.feed !feed ~id (Core.Message.seal ~n ~id (Core.Message.of_writer wr)))
      rows;
    Core.Protocol.finish !feed
  in
  List.iteri
    (fun i row1 ->
      let rows = [ row1; (2, (if i = 1 then 1 else 0), 0); (4, 0, 0); (5, 0, 0) ] in
      match (forged Core.Forest_protocol.hardened rows, forged sealed rows) with
      | Core.Verdict.Inconclusive _, Core.Verdict.Inconclusive _ -> ()
      | _ -> Alcotest.failf "forged rows %d: both verdicts must be Inconclusive" i)
    [ (1, 1, 2); (1, 1, 2); (1, 1, 9); (1, 1, 1) ]

(* ---------- crash-only forest plans: exact partial semantics ---------- *)

let test_crash_only_forest_exact () =
  for trial = 1 to 50 do
    let n = (trial mod 30) + 5 in
    let g = Generators.random_forest (Random.State.make [| 7 * trial |]) n ~trees:2 in
    let faults = Core.Faults.random ~seed:trial ~n ~crash:0.25 () in
    let verdict, _ =
      Core.Simulator.run ~delivery:(Core.Simulator.Faulty faults) Core.Forest_protocol.hardened g
    in
    match verdict with
    | Core.Verdict.Decided out ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d: Decided only on empty plan" trial)
        true
        (Core.Faults.is_empty faults && graph_opt_equal out (Some g))
    | Core.Verdict.Inconclusive reason ->
      Alcotest.failf "trial %d: crash-only plan cannot be inconclusive (%s)" trial reason
    | Core.Verdict.Degraded (None, _) -> Alcotest.failf "trial %d: Degraded None" trial
    | Core.Verdict.Degraded (Some h, report) ->
      let determined = Array.make n true in
      List.iter
        (fun id -> determined.(id - 1) <- false)
        report.Core.Verdict.undetermined;
      (* The partial graph is exactly the input edges incident to a
         determined node: every authentic row is true, and the prune
         resolves a node only once all its edges are accounted for. *)
      for u = 1 to n do
        for v = u + 1 to n do
          let expected =
            Graph.has_edge g u v && (determined.(u - 1) || determined.(v - 1))
          in
          if Graph.has_edge h u v <> expected then
            Alcotest.failf "trial %d: edge {%d,%d} present=%b expected=%b" trial u v
              (Graph.has_edge h u v) expected
        done
      done
  done

(* ---------- connectivity: one-sided verdicts ---------- *)

let test_coalition_crash_verdicts () =
  for trial = 1 to 40 do
    let n = (trial mod 20) + 4 in
    let connected = trial mod 2 = 0 in
    let g =
      if connected then Generators.random_tree (Random.State.make [| trial |]) n
      else Generators.random_forest (Random.State.make [| trial |]) n ~trees:2
    in
    let actually_connected = Connectivity.is_connected g in
    let parts = Core.Coalition.partition_by_ranges ~n ~parts:(min 3 n) in
    let faults = Core.Faults.random ~seed:(13 * trial) ~n ~crash:0.3 () in
    let verdict, _ =
      Core.Coalition.run ~delivery:(Core.Simulator.Faulty faults) Core.Connectivity_parts.hardened g
        ~parts
    in
    match verdict with
    | Core.Verdict.Decided b ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d: Decided matches truth" trial)
        actually_connected b;
      Alcotest.(check bool)
        (Printf.sprintf "trial %d: Decided only on empty plan" trial)
        true (Core.Faults.is_empty faults)
    | Core.Verdict.Degraded (b, _) ->
      (* One-sided: surviving shares hold only true edges, so a positive
         answer is certain; a negative one must never be Degraded. *)
      Alcotest.(check bool) (Printf.sprintf "trial %d: Degraded is true" trial) true b;
      Alcotest.(check bool)
        (Printf.sprintf "trial %d: graph really is connected" trial)
        true actually_connected
    | Core.Verdict.Inconclusive _ -> ()
  done

let test_sketch_verdicts () =
  for trial = 1 to 10 do
    let n = (trial mod 8) + 4 in
    let g =
      if trial mod 2 = 0 then Generators.random_tree (Random.State.make [| trial |]) n
      else Generators.random_forest (Random.State.make [| trial |]) n ~trees:2
    in
    let hardened = Core.Sketch_connectivity.hardened ~seed:17 () in
    let plain = Core.Sketch_connectivity.protocol ~seed:17 () in
    let clean, _ = Core.Simulator.run plain g in
    let faults = Core.Faults.random ~seed:trial ~n ~flip:0.4 ~flip_bits:3 () in
    (match Core.Simulator.run ~delivery:(Core.Simulator.Faulty faults) hardened g with
    | Core.Verdict.Decided b, _ ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d: Decided equals plain" trial)
        clean b;
      Alcotest.(check bool)
        (Printf.sprintf "trial %d: Decided only on empty plan" trial)
        true (Core.Faults.is_empty faults)
    | Core.Verdict.Degraded _, _ ->
      Alcotest.failf "trial %d: sketches admit no sound partial verdict" trial
    | Core.Verdict.Inconclusive _, _ -> ());
    (* And with no faults the hardened wrapper is transparent. *)
    match Core.Simulator.run ~delivery:(Core.Simulator.Faulty Core.Faults.empty) hardened g with
    | Core.Verdict.Decided b, _ ->
      Alcotest.(check bool) (Printf.sprintf "trial %d: clean Decided" trial) clean b
    | (Core.Verdict.Degraded _ | Core.Verdict.Inconclusive _), _ ->
      Alcotest.failf "trial %d: clean channel must be Decided" trial
  done

(* ---------- one channel ledger: the same report from every referee ---------- *)

(* Node 2 is delivered twice and node 3's message arrives under id 2, so
   id 2 reaches the referee three times and id 3 never does.  Every
   hardened one-round referee must name that channel the same way: 3
   missing, 2 duplicated once, nothing malformed (the third copy is
   dropped as a repeat before its seal is checked).  A referee that
   only says Inconclusive carries the same counts in its reason. *)
let test_triple_delivery_one_report () =
  let n = 8 in
  let plan = Core.Faults.of_list [ (2, Core.Faults.Duplicate); (3, Core.Faults.Spoof 2) ] in
  let want = { Core.Verdict.empty_report with missing = [ 3 ]; duplicated = [ 2 ] } in
  let check name (verdict : _ Core.Verdict.t) =
    match verdict with
    | Core.Verdict.Degraded (_, r) ->
      Alcotest.(check (list int)) (name ^ ": missing") want.missing r.Core.Verdict.missing;
      Alcotest.(check (list int)) (name ^ ": malformed") [] r.malformed;
      Alcotest.(check (list int)) (name ^ ": duplicated") want.duplicated r.duplicated
    | Core.Verdict.Inconclusive reason ->
      Alcotest.(check string) (name ^ ": reason")
        ("channel faults detected: " ^ Core.Verdict.report_summary want)
        reason
    | Core.Verdict.Decided _ -> Alcotest.failf "%s: a faulted channel stayed Decided" name
  in
  let path = Graph.of_edges 8 (List.init 7 (fun i -> (i + 1, i + 2))) in
  let one_round name p = check name (fst (Core.Simulator.run ~delivery:(Core.Simulator.Faulty plan) p path)) in
  List.iter
    (fun spec ->
      match Serve.Registry.lookup ~spec ~n with
      | Ok (Serve.Registry.Entry { protocol; _ }) -> one_round spec protocol
      | Error e -> Alcotest.fail e)
    [ "count"; "sketch:7"; "forest"; "degeneracy:2"; "bounded:3" ];
  one_round "harden recognize" (Core.Protocol.harden Core.Forest_protocol.recognize);
  (* A star with singleton parts: node 3's share is empty, so the shares
     that arrive still connect the graph and the verdict is Degraded. *)
  let star = Graph.of_edges 8 (List.init 7 (fun i -> (1, i + 2))) in
  let parts = Core.Coalition.partition_by_ranges ~n ~parts:n in
  check "coalition"
    (fst (Core.Coalition.run ~delivery:(Core.Simulator.Faulty plan) Core.Connectivity_parts.hardened star ~parts))

(* ---------- pinned sealed verdicts ---------- *)

(* Six sealed referees, each at four seeded plans mixing every fault
   kind: the rendered verdict, fault report included, is pinned string
   for string, so a change to the sealed receive path that moves any
   verdict, report or rendered output fails here. *)
let pinned_verdicts =
  [
    "forest seed 1: degraded graph:M_??_@?@???????O? missing=8 malformed=1,4,10,11,12 duplicated=7 undetermined=1,3,4,5,8,10,11,12,13";
    "forest seed 2: degraded graph:M???`@?D@?@??A?O? missing=2,13 malformed=5,6 duplicated=1,7,11 undetermined=1,2,5,6,13";
    "forest seed 3: degraded graph:M???_@?D??@?A??O? missing=- malformed=2,8,13 duplicated=4,10,12 undetermined=1,2,3,8,11,13";
    "forest seed 4: degraded graph:M???_??D???????O? missing=1,6,8,12 malformed=5,9,13 duplicated=13 undetermined=1,2,3,5,6,8,9,11,12,13";
    "degeneracy:2 seed 1: degraded graph:K?????a????? missing=5,7,10 malformed=6,8,11,12 duplicated=3,4,12 undetermined=1,2,3,4,5,6,7,8,10,11,12";
    "degeneracy:2 seed 2: degraded graph:K??????????? missing=3,5 malformed=4,7,8,9,10,11,12 duplicated=12 undetermined=1,2,3,4,5,6,7,8,9,10,11,12";
    "degeneracy:2 seed 3: degraded graph:K???AC?E???? missing=1,4,7,9 malformed=2,6,11,12 duplicated=12 undetermined=1,2,3,4,5,6,7,9,11,12";
    "degeneracy:2 seed 4: degraded graph:K???AC?????? missing=2 malformed=6,7,9,10,12 duplicated=4,12 undetermined=1,2,3,4,5,6,7,9,10,11,12";
    "bounded:3 seed 1: degraded graph:IhEGHC?_? missing=2,4,8 malformed=9,10 duplicated=5,9 undetermined=2,4,8,9,10";
    "bounded:3 seed 2: degraded graph:IhEGH??_G missing=8 malformed=7,9 duplicated=1,2 undetermined=7,8,9";
    "bounded:3 seed 3: degraded graph:IhEGHC@_G missing=4 malformed=1,8 duplicated=5,10 undetermined=1,4,8";
    "bounded:3 seed 4: degraded graph:IhEGH?@?G missing=1,5,7,10 malformed=8 duplicated=2 undetermined=1,5,7,8,10";
    "sketch:7 seed 1: inconclusive channel faults detected: 3 missing, 2 malformed, 2 duplicated, 0 undetermined";
    "sketch:7 seed 2: inconclusive channel faults detected: 1 missing, 2 malformed, 2 duplicated, 0 undetermined";
    "sketch:7 seed 3: inconclusive channel faults detected: 1 missing, 2 malformed, 2 duplicated, 0 undetermined";
    "sketch:7 seed 4: inconclusive channel faults detected: 4 missing, 2 malformed, 1 duplicated, 0 undetermined";
    "count seed 1: degraded nodes=5;degsum=13 missing=1,8 malformed=2,9 duplicated=7,9 undetermined=-";
    "count seed 2: degraded nodes=6;degsum=21 missing=2 malformed=1,5 duplicated=5 undetermined=-";
    "count seed 3: degraded nodes=2;degsum=6 missing=3,7 malformed=1,2,4,6,8 duplicated=5 undetermined=-";
    "count seed 4: degraded nodes=8;degsum=25 missing=- malformed=5 duplicated=3,8,9 undetermined=-";
    "coalition-connectivity+sealed seed 1: degraded connected missing=5,7,10 malformed=8,12 duplicated=3,4,12 undetermined=-";
    "coalition-connectivity+sealed seed 2: degraded connected missing=3,5 malformed=4,7,8,11,12 duplicated=12 undetermined=-";
    "coalition-connectivity+sealed seed 3: inconclusive lost edge shares may hide the connecting edges";
    "coalition-connectivity+sealed seed 4: degraded connected missing=2 malformed=6,9,10,12 duplicated=4,12 undetermined=-";
  ]

let test_pinned_sealed_verdicts () =
  let mixed ~seed ~n =
    Core.Faults.random ~seed ~n ~crash:0.1 ~truncate:0.1 ~flip:0.1 ~flip_bits:2 ~duplicate:0.1
      ~spoof:0.1 ()
  in
  let render render v =
    let ids l = if l = [] then "-" else String.concat "," (List.map string_of_int l) in
    match v with
    | Core.Verdict.Decided x -> "decided " ^ render x
    | Core.Verdict.Degraded (x, r) ->
      Printf.sprintf "degraded %s missing=%s malformed=%s duplicated=%s undetermined=%s"
        (render x) (ids r.Core.Verdict.missing) (ids r.malformed) (ids r.duplicated)
        (ids r.undetermined)
    | Core.Verdict.Inconclusive reason -> "inconclusive " ^ reason
  in
  let rng = Random.State.make [| 0x5ea1 |] in
  let graphs =
    [
      ("forest", Generators.random_forest rng 14 ~trees:2);
      ("degeneracy:2", Generators.random_k_degenerate rng 12 ~k:2);
      ("bounded:3", Graph.of_edges 10 ((1, 6) :: (3, 8) :: List.init 10 (fun i -> (i + 1, ((i + 1) mod 10) + 1))));
      ("sketch:7", Generators.random_tree rng 10);
      ("count", Generators.gnp rng 9 0.4);
    ]
  in
  let one_round =
    List.concat_map
      (fun (spec, g) ->
        let n = Graph.order g in
        match Serve.Registry.lookup ~spec ~n with
        | Error e -> Alcotest.fail e
        | Ok (Serve.Registry.Entry { protocol; render = r }) ->
          List.init 4 (fun i ->
              let delivery = Core.Simulator.Faulty (mixed ~seed:(i + 1) ~n) in
              Printf.sprintf "%s seed %d: %s" spec (i + 1)
                (render r (fst (Core.Simulator.run ~delivery protocol g)))))
      graphs
  in
  (* A star split into singletons: only the hub's share holds edges, so
     a plan that spares the hub still connects the graph. *)
  let g = Graph.of_edges 12 (List.init 11 (fun i -> (1, i + 2))) in
  let parts = Core.Coalition.partition_by_ranges ~n:12 ~parts:12 in
  let coalition =
    List.init 4 (fun i ->
        let delivery = Core.Simulator.Faulty (mixed ~seed:(i + 1) ~n:12) in
        Printf.sprintf "coalition-connectivity+sealed seed %d: %s" (i + 1)
          (render (fun b -> if b then "connected" else "disconnected")
             (fst (Core.Coalition.run ~delivery Core.Connectivity_parts.hardened g ~parts))))
  in
  Alcotest.(check (list string)) "verdicts" pinned_verdicts (one_round @ coalition)

(* ---------- generic harden combinator ---------- *)

(* The ledger on its own, over two rounds: an id that missed a closed
   round stays missing after it comes back, lists are ascending and
   duplicate-free, and reading the report changes nothing. *)
let test_ledger_rounds () =
  let l = Core.Verdict.ledger ~n:4 in
  let admit id = Core.Verdict.admit l ~id in
  Alcotest.(check (list bool)) "round 1" [ true; true; false; true ] (List.map admit [ 3; 1; 3; 2 ]);
  Core.Verdict.close_round l;
  Alcotest.(check (list bool)) "round 2" [ true; true; true; false; true; false; false ]
    (List.map admit [ 4; 3; 2; 9; 1; 3; 0 ]);
  Core.Verdict.reject l ~id:2;
  let r = Core.Verdict.report l in
  Alcotest.(check (list int)) "missing" [ 4 ] r.Core.Verdict.missing;
  Alcotest.(check (list int)) "malformed" [ 0; 2; 9 ] r.malformed;
  Alcotest.(check (list int)) "duplicated" [ 3 ] r.duplicated;
  Alcotest.(check bool) "report is read-only" true (Core.Verdict.report l = r);
  Core.Verdict.close_round l;
  Alcotest.(check (list bool)) "round 3" [ true; true; true; true ] (List.map admit [ 1; 2; 3; 4 ]);
  Alcotest.(check (list int)) "a miss outlives its round" [ 4 ]
    (Core.Verdict.report l).Core.Verdict.missing

let test_harden_generic_wrapper () =
  (* The unsealed generic wrapper can only catch faults that break
     parsing, but it must (a) be transparent on clean runs and (b) stay
     total and fault-aware under crashes. *)
  let p = Core.Protocol.harden Core.Forest_protocol.reconstruct in
  Alcotest.(check string) "name suffix" "forest-reconstruct+hardened" p.Core.Protocol.name;
  let g = Generators.random_tree (Random.State.make [| 3 |]) 15 in
  (match Core.Simulator.run p g with
  | Core.Verdict.Decided (Some h), _ -> Alcotest.(check bool) "clean" true (Graph.equal g h)
  | _ -> Alcotest.fail "clean run must be Decided Some");
  let faults = Core.Faults.of_list [ (4, Core.Faults.Crash) ] in
  match Core.Simulator.run ~delivery:(Core.Simulator.Faulty faults) p g with
  | Core.Verdict.Inconclusive _, _ -> ()
  | Core.Verdict.Decided _, _ -> Alcotest.fail "crash must not stay Decided"
  | Core.Verdict.Degraded _, _ -> Alcotest.fail "default on_fault is Inconclusive"

let test_trace_fault_events () =
  let g = Generators.random_tree (Random.State.make [| 8 |]) 12 in
  let faults =
    Core.Faults.of_list [ (2, Core.Faults.Crash); (5, Core.Faults.Flip [ 3; 9 ]) ]
  in
  let sink, events = Core.Trace.memory () in
  let _ =
    Core.Simulator.run ~delivery:(Core.Simulator.Faulty faults) ~trace:sink
      Core.Forest_protocol.hardened g
  in
  let fault_events =
    List.filter_map
      (function Core.Trace.Fault_injected { id; fault } -> Some (id, fault) | _ -> None)
      (events ())
  in
  Alcotest.(check bool) "both injections traced" true
    (fault_events = Core.Faults.to_list faults);
  List.iter
    (fun ev ->
      match ev with
      | Core.Trace.Fault_injected _ ->
        let line = Core.Trace.json_of_event ev in
        Alcotest.(check bool) "json has fault tag" true
          (String.length line > 0 && String.sub line 0 17 = {|{"event":"fault",|})
      | _ -> ())
    (events ())

let () =
  Alcotest.run "faults"
    [
      ( "plans",
        [
          Alcotest.test_case "same seed reproduces" `Quick test_plan_reproducible;
          Alcotest.test_case "of_list validation" `Quick test_plan_of_list_validation;
          Alcotest.test_case "apply scope" `Quick test_apply_scope;
        ] );
      ( "seals",
        [
          Alcotest.test_case "single flips detected" `Quick test_seal_detects_any_single_flip;
          Alcotest.test_case "verify agrees with unseal" `Quick test_verify_agrees_with_unseal;
          Alcotest.test_case "payload reader stops at the digest" `Quick test_payload_reader;
        ] );
      ( "empty plan identity",
        [
          Alcotest.test_case "simulator" `Quick test_empty_plan_bit_identical;
          Alcotest.test_case "coalition" `Quick test_empty_plan_coalition_identical;
        ] );
      ( "detect or degrade",
        [
          Alcotest.test_case "forest" `Quick test_forest_detect_or_degrade;
          Alcotest.test_case "degeneracy" `Quick test_degeneracy_detect_or_degrade;
          Alcotest.test_case "bounded degree" `Quick test_bounded_detect_or_degrade;
          Alcotest.test_case "crash-only forest is exact" `Quick test_crash_only_forest_exact;
          Alcotest.test_case "forest is degeneracy at k = 1" `Quick test_forest_is_degeneracy_1;
          Alcotest.test_case "coalition connectivity" `Quick test_coalition_crash_verdicts;
          Alcotest.test_case "sketch connectivity" `Quick test_sketch_verdicts;
          Alcotest.test_case "triple delivery, one report" `Quick test_triple_delivery_one_report;
          Alcotest.test_case "pinned sealed verdicts" `Quick test_pinned_sealed_verdicts;
        ] );
      ( "combinator and traces",
        [
          Alcotest.test_case "channel ledger" `Quick test_ledger_rounds;
          Alcotest.test_case "generic harden" `Quick test_harden_generic_wrapper;
          Alcotest.test_case "fault trace events" `Quick test_trace_fault_events;
        ] );
    ]
