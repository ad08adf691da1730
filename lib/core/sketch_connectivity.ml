open Refnet_bits
open Refnet_graph
open Refnet_sketch

let edge_index ~u ~v =
  if u = v || u < 1 || v < 1 then invalid_arg "Sketch_connectivity.edge_index: bad edge";
  let lo = min u v and hi = max u v in
  ((hi - 1) * (hi - 2) / 2) + lo - 1

let edge_of_index idx =
  if idx < 0 then invalid_arg "Sketch_connectivity.edge_of_index: negative";
  (* Find hi with C(hi-1, 2) <= idx < C(hi, 2). *)
  let rec find hi = if (hi * (hi - 1)) / 2 > idx then hi else find (hi + 1) in
  let hi = find 2 in
  let lo = idx - ((hi - 1) * (hi - 2) / 2) + 1 in
  (lo, hi)

let default_rounds n =
  let rec lg acc v = if v <= 1 then acc else lg (acc + 1) ((v + 1) / 2) in
  lg 0 n + 2

let default_levels n =
  let rec lg acc v = if v <= 1 then acc else lg (acc + 1) ((v + 1) / 2) in
  (2 * lg 0 n) + 2

(* All nodes derive the same sampler templates from the public seed. *)
let templates ~seed ~rounds ~levels =
  let rng = Random.State.make [| 0xa6e1; seed |] in
  Array.init rounds (fun _ -> L0_sampler.create ~rng ~levels)

let protocol ~seed ?rounds ?levels () : bool Protocol.t =
  let name = Printf.sprintf "sketch-connectivity(seed=%d)" seed in
  let params n =
    let r = match rounds with Some r -> r | None -> default_rounds n in
    let l = match levels with Some l -> l | None -> default_levels n in
    (max 1 r, max 1 l)
  in
  (* [local] runs once per view, on every domain of the pool, and the
     views of a run share [n]: keep the templates of the last [n] seen.
     The cache is one atomic cell holding an immutable pair, so racing
     domains at worst build equal templates twice. *)
  let cached = Atomic.make None in
  let local_templates n =
    match Atomic.get cached with
    | Some (n', ts) when n' = n -> ts
    | _ ->
      let r, l = params n in
      let ts = templates ~seed ~rounds:r ~levels:l in
      Atomic.set cached (Some (n, ts));
      ts
  in
  let local view =
    let id = View.id view in
    let ts = local_templates (View.n view) in
    let w = Bit_writer.create () in
    Array.iter
      (fun template ->
        let sampler =
          View.fold_neighbors view template (fun acc u ->
              L0_sampler.update acc ~index:(edge_index ~u ~v:id)
                ~delta:(if id < u then 1 else -1))
        in
        L0_sampler.write w sampler)
      ts;
    Message.of_writer w
  in
  (* Streaming referee: the per-node sampler banks are the state — one
     bank parsed per absorb, against templates built once per session —
     and the Borůvka phases run at finish, once all banks are in
     (component structure is inherently global). *)
  let init ~n =
    let r, l = params n in
    (templates ~seed ~rounds:r ~levels:l, Array.make n [||])
  in
  let absorb ~n:_ ((ts, banks) as st) ~id msg =
    let reader = Message.reader msg in
    banks.(id - 1) <- Array.map (fun template -> L0_sampler.read reader ~template) ts;
    st
  in
  let finish ~n (_, banks) =
    if n = 0 then true
    else begin
      let r, _l = params n in
      let uf = Union_find.create n in
      (* Borůvka phases: one fresh sampler bank column per phase. *)
      for round = 0 to r - 1 do
        if Union_find.count uf > 1 then begin
          (* Sum this round's samplers per current component. *)
          let sums = Hashtbl.create 16 in
          for v = 1 to n do
            let root = Union_find.find uf (v - 1) in
            let s = banks.(v - 1).(round) in
            match Hashtbl.find_opt sums root with
            | None -> Hashtbl.replace sums root s
            | Some acc -> Hashtbl.replace sums root (L0_sampler.combine acc s)
          done;
          (* Sample an outgoing edge per component and merge. *)
          Hashtbl.iter
            (fun _root sampler ->
              match L0_sampler.sample sampler with
              | Some (idx, value) when value = 1 || value = -1 ->
                let u, v = edge_of_index idx in
                if u >= 1 && v <= n then ignore (Union_find.union uf (u - 1) (v - 1))
              | Some _ | None -> ())
            sums
        end
      done;
      Union_find.count uf = 1
    end
  in
  {
    name;
    local;
    referee = Protocol.streaming ~init ~absorb ~finish;
    (* rounds * levels * 93 bits with rounds ~ log n + 2 and levels ~
       2 log n + 2 over a fixed 31-bit field, i.e. ~ 186 log^2 n plus
       lower-order terms; 256 absorbs the additive terms from n >= 8. *)
    budget = Some { Bound_audit.b_shape = Log_sq; c_max = 256.0; n_min = 8 };
  }

let message_bits ~n ?rounds ?levels () =
  let r = match rounds with Some r -> r | None -> default_rounds n in
  let l = match levels with Some l -> l | None -> default_levels n in
  max 1 r * L0_sampler.bits ~levels:(max 1 l)

(* ---------- crash/corruption-tolerant variant ---------- *)

let hardened ~seed ?rounds ?levels () : bool Verdict.t Protocol.t =
  let plain = protocol ~seed ?rounds ?levels () in
  (* Borůvka sums need {e every} member of a component for internal
     edges to cancel, so there is no sound partial answer: the generic
     {!Protocol.harden_referee} wrapper — Decided on a clean channel,
     Inconclusive otherwise — is exactly the right policy.  The adapter
     underneath authenticates each bank and pins its exact size before
     the sampler parser ever sees it. *)
  let referee =
    match plain.referee with
    | Protocol.Referee s ->
      Protocol.harden_referee
        (Protocol.Referee
           {
             s with
             absorb =
               (fun ~n st ~id msg ->
                 match Message.unseal ~n ~id msg with
                 | None -> raise Message.Malformed
                 | Some payload ->
                   if Message.bits payload <> message_bits ~n ?rounds ?levels () then
                     raise Message.Malformed;
                   s.absorb ~n st ~id payload);
           })
  in
  {
    Protocol.name = plain.name ^ "+sealed";
    local = (fun v -> Message.seal ~n:(View.n v) ~id:(View.id v) (plain.local v));
    referee;
    budget = None;
  }
