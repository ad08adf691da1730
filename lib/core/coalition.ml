open Refnet_graph

type view = { members : int list; neighborhoods : (int * int list) list }

type 'a t = {
  name : string;
  local : n:int -> view -> (int * Message.t) list;
  referee : 'a Protocol.referee;
  budget : parts:int -> Bound_audit.budget option;
}

let partition_by_ranges ~n ~parts =
  if parts < 1 || parts > max n 1 then invalid_arg "Coalition.partition_by_ranges: bad count";
  let base = n / parts and extra = n mod parts in
  let rec go start part acc =
    if part > parts then List.rev acc
    else begin
      let size = base + (if part <= extra then 1 else 0) in
      let members = List.init size (fun i -> start + i) in
      go (start + size) (part + 1) (members :: acc)
    end
  in
  go 1 1 []

let collect (p : 'a t) src ~parts =
  let n = Graph_source.order src in
  (* [owner.(v-1)] is the 1-based index of the coalition holding [v]:
     one array is both the partition check and the O(1) membership test
     below (a [List.mem] here is quadratic in coalition size, which at
     n = 10^6 with a handful of parts dominates the whole run). *)
  let owner = Array.make n 0 in
  List.iteri
    (fun ci members ->
      List.iter
        (fun v ->
          if v < 1 || v > n || owner.(v - 1) <> 0 then
            invalid_arg "Coalition.run: parts do not partition the vertices";
          owner.(v - 1) <- ci + 1)
        members)
    parts;
  if Array.exists (fun o -> o = 0) owner then
    invalid_arg "Coalition.run: parts do not cover the vertices";
  let inbox = Array.make n None in
  List.iteri
    (fun ci members ->
      let members = List.sort Stdlib.compare members in
      let view =
        { members; neighborhoods = List.map (fun v -> (v, Graph_source.neighbors src v)) members }
      in
      let out = p.local ~n view in
      if List.length out <> List.length members then
        invalid_arg "Coalition.run: local function must emit one message per member";
      List.iter
        (fun (id, msg) ->
          if id < 1 || id > n || owner.(id - 1) <> ci + 1 then
            invalid_arg "Coalition.run: message for a non-member";
          match inbox.(id - 1) with
          | Some _ -> invalid_arg "Coalition.run: duplicate message"
          | None -> inbox.(id - 1) <- Some msg)
        out)
    parts;
  Array.map (function Some m -> m | None -> assert false) inbox (* lint: allow referee-totality -- the cover check above fills every slot *)

(* Span and done labels show the part count, and the backend outermost
   for source runs; the O(k·log n) budget itself travels typed on the
   done event. *)
let labelled p ~parts = Printf.sprintf "%s[parts=%d]" p.name (List.length parts)

let labelled_src p ~parts src =
  Printf.sprintf "%s[parts=%d][src=%s]" p.name (List.length parts) (Graph_source.backend src)

let run_core ~delivery ~trace ~metrics ~label (p : 'a t) src ~parts =
  let n = Graph_source.order src in
  Trace.emit trace (Trace.Span_begin { label; n });
  (* Coalitions pool their views, so the whole vector is produced at
     once: never chunked, never split across the domain pool. *)
  let pooled ~order:_ ~base:_ ~len:_ =
    {
      Simulator.join = (fun () -> collect p src ~parts);
      cancel = ignore;
      account = (fun _ _ -> ());
    }
  in
  let out, t = Simulator.referee_round ~delivery ~trace ~metrics p.referee ~n pooled in
  Simulator.close_run ~trace ~metrics ~label ~budget:(p.budget ~parts:(List.length parts)) ~n
    ~max_bits:t.max_bits ~total_bits:t.total_bits;
  (out, t)

let run ?(delivery = Simulator.In_order) ?(trace = Trace.null) ?metrics (p : 'a t) g ~parts =
  run_core ~delivery ~trace ~metrics ~label:(labelled p ~parts) p (Graph_source.of_graph g) ~parts

let run_source ?(delivery = Simulator.In_order) ?(trace = Trace.null) ?metrics (p : 'a t) src
    ~parts =
  Simulator.observe_source metrics src;
  run_core ~delivery ~trace ~metrics ~label:(labelled_src p ~parts src) p src ~parts
