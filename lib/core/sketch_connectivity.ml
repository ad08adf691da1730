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

(* The Borůvka phase and sampler level counts at size [n]: the given
   ones, or the defaults. *)
let params ~rounds ~levels n =
  let r = match rounds with Some r -> r | None -> default_rounds n in
  let l = match levels with Some l -> l | None -> default_levels n in
  (max 1 r, max 1 l)

let message_bits ~n ?rounds ?levels () =
  let r, l = params ~rounds ~levels n in
  r * L0_sampler.bits ~levels:l

let local ~seed ~rounds ~levels =
  (* [local] runs once per view, on every domain of the pool, and the
     views of a run share [n]: keep the templates of the last [n] seen.
     The cache is one atomic cell holding an immutable pair, so racing
     domains at worst build equal templates twice. *)
  let cached = Atomic.make None in
  let local_templates n =
    match Atomic.get cached with
    | Some (n', ts) when n' = n -> ts
    | _ ->
      let r, l = params ~rounds ~levels n in
      let ts = templates ~seed ~rounds:r ~levels:l in
      Atomic.set cached (Some (n, ts));
      ts
  in
  fun view ->
    let id = View.id view in
    let ts = local_templates (View.n view) in
    let run = 3 * L0_sampler.levels ts.(0) in
    (* the bank is per call: domains share only the immutable templates *)
    let bank = Array.make (Array.length ts * run) Field.zero in
    Array.iteri
      (fun round template ->
        View.iter_neighbors view (fun u ->
            L0_sampler.add template bank ~off:(round * run) ~index:(edge_index ~u ~v:id)
              ~delta:(if id < u then 1 else -1)))
      ts;
    let m = Bitvec.create (Array.length bank * Field.bits) in
    Array.iteri (fun k x -> Bitvec.set_bits m ~pos:(k * Field.bits) ~width:Field.bits x) bank;
    m

(* Streaming referee: the state is the banks themselves, kept in place
   behind their readers; the Borůvka phases run at finish, once all
   banks are in (component structure is inherently global), and each
   phase reads the next column of every bank. *)
let init ~seed ~rounds ~levels ~n =
  let r, l = params ~rounds ~levels n in
  (templates ~seed ~rounds:r ~levels:l, Array.make n (Message.reader Message.empty))

let absorb ~n:_ ((ts, banks) as st) ~id r =
  (* a short bank raises what reading it field by field would *)
  if Bit_reader.remaining r < Array.length ts * L0_sampler.bits ~levels:(L0_sampler.levels ts.(0))
  then raise Bit_reader.Exhausted;
  banks.(id - 1) <- r;
  st

let finish ~n (ts, banks) =
  n = 0
  ||
  let run = 3 * L0_sampler.levels ts.(0) in
  let uf = Union_find.create n in
  (* sums.(root * run ..) is the summed column of a component whose
     root is [root]; a sum starts as its first member's fields as
     read, the way [L0_sampler.combine] folded onto the first one *)
  let sums = Array.make (n * run) Field.zero and column = Array.make run Field.zero in
  let started = Array.make n false in
  (* Borůvka phases: each reads the next column of every bank. *)
  Array.iter
    (fun template ->
      if Union_find.count uf > 1 then begin
        Array.fill started 0 n false;
        for v = 0 to n - 1 do
          let root = Union_find.find uf v in
          let off = root * run in
          if started.(root) then begin
            Bit_reader.unpack banks.(v) ~width:Field.bits column ~off:0 ~count:run;
            for k = 0 to run - 1 do
              sums.(off + k) <- Field.add sums.(off + k) column.(k)
            done
          end
          else begin
            started.(root) <- true;
            Bit_reader.unpack banks.(v) ~width:Field.bits sums ~off ~count:run
          end
        done;
        (* Sample an outgoing edge per component and merge. *)
        for root = 0 to n - 1 do
          if started.(root) then
            match L0_sampler.sample_fields template sums ~off:(root * run) with
            | Some (idx, value) when value = 1 || value = -1 ->
              let u, v = edge_of_index idx in
              if u >= 1 && v <= n then ignore (Union_find.union uf (u - 1) (v - 1))
            | Some _ | None -> ()
        done
      end)
    ts;
  Union_find.count uf = 1

let name seed = Printf.sprintf "sketch-connectivity(seed=%d)" seed

let protocol ~seed ?rounds ?levels () : bool Protocol.t =
  {
    name = name seed;
    local = local ~seed ~rounds ~levels;
    referee =
      Protocol.streaming
        ~init:(fun ~n -> init ~seed ~rounds ~levels ~n)
        ~absorb:(fun ~n st ~id msg -> absorb ~n st ~id (Message.reader msg))
        ~finish;
    (* rounds * levels * 93 bits with rounds ~ log n + 2 and levels ~
       2 log n + 2 over a fixed 31-bit field, i.e. ~ 186 log^2 n plus
       lower-order terms; 256 absorbs the additive terms from n >= 8. *)
    budget = Some { Bound_audit.b_shape = Log_sq; c_max = 256.0; n_min = 8 };
  }

(* ---------- crash/corruption-tolerant variant ---------- *)

(* Borůvka sums need {e every} member of a component for internal edges
   to cancel, so there is no sound partial answer: {!Protocol.settle}'s
   default — Decided on a clean channel, Inconclusive otherwise — is
   exactly the right policy.  The banks stay in place behind their
   payload readers, which end at the digest. *)
let hardened ~seed ?rounds ?levels () : bool Verdict.t Protocol.t =
  Protocol.sealed
    ~name:(name seed ^ "+sealed")
    ~local:(local ~seed ~rounds ~levels)
    ~init:(fun ~n -> init ~seed ~rounds ~levels ~n)
    ~absorb
    ~finish:(fun ~n report ~trusted:_ st -> Protocol.settle report (fun () -> finish ~n st))
