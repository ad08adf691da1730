open Refnet_bits
open Refnet_graph

type 'a pair = { g1 : Graph.t; g2 : Graph.t; out1 : 'a; out2 : 'a }

let truncate ~budget (p : 'a Protocol.t) : 'a Protocol.t =
  {
    p with
    name = Printf.sprintf "%s|%d log n" p.Protocol.name budget;
    local =
      (fun v ->
        let m = p.Protocol.local v in
        let limit = budget * Bounds.id_bits (View.n v) in
        if Message.bits m <= limit then m
        else begin
          let r = Message.reader m in
          Bit_reader.read_bitvec r ~len:limit
        end);
    budget = None;
  }

let vector_key ~n ~local g =
  let buf = Buffer.create 64 in
  for id = 1 to n do
    let m = local (View.make ~n ~id ~neighbors:(Graph.neighbors g id)) in
    Buffer.add_string buf (Bitvec.to_string m);
    Buffer.add_char buf '|'
  done;
  Buffer.contents buf

let find_pair ~n ~property ~local enum =
  let seen : (string, Graph.t) Hashtbl.t = Hashtbl.create 1024 in
  let found = ref None in
  (try
     enum (fun g ->
         let key = vector_key ~n ~local g in
         match Hashtbl.find_opt seen key with
         | None -> Hashtbl.add seen key g
         | Some g' ->
           let out1 = property g' and out2 = property g in
           if out1 <> out2 then begin
             found := Some { g1 = g'; g2 = g; out1; out2 };
             raise Exit
           end)
   with Exit -> ());
  !found

let fooling_pair_for ~n ~budget p ~property =
  let clipped = truncate ~budget p in
  find_pair ~n ~property ~local:clipped.Protocol.local (Enumerate.iter n)

let certify = find_pair

let vector_count ~n ~local enum =
  let seen = Hashtbl.create 1024 in
  enum (fun g -> Hashtbl.replace seen (vector_key ~n ~local g) ());
  Hashtbl.length seen
