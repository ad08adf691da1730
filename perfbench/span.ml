(* Bench-side spans: name, start, end, parent and session id, kept in
   memory and written out once the run is over.  A disabled recorder
   only runs the wrapped call, so the same pass with recording off is
   the baseline for the tracing overhead. *)

type span = {
  name : string;
  parent : int; (* index of the enclosing span, -1 for a root *)
  session : int;
  t0 : float;
  mutable t1 : float;
  mutable units : float; (* work done inside: bits, bytes, nodes, messages... *)
}

type t = {
  mutable on : bool;
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;
}

let now = Unix.gettimeofday

let create () = { on = false; spans = [||]; len = 0; stack = [] }

let push r s =
  if r.len = Array.length r.spans then begin
    let grown = Array.make (max 1024 (2 * r.len)) s in
    Array.blit r.spans 0 grown 0 r.len;
    r.spans <- grown
  end;
  r.spans.(r.len) <- s;
  r.len <- r.len + 1;
  r.len - 1

(* [enter]/[leave] bracket a span whose extent is only known to a
   callback (the program's own trace events); [with_span] brackets a
   call.  Both are no-ops on a disabled recorder ([enter] returns -1). *)
let enter r ~session ?(units = 0.) name =
  if not r.on then -1
  else begin
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    let idx = push r { name; parent; session; t0 = now (); t1 = nan; units } in
    r.stack <- idx :: r.stack;
    idx
  end

let leave r idx =
  if idx >= 0 then begin
    r.spans.(idx).t1 <- now ();
    r.stack <- List.filter (fun i -> i <> idx) r.stack
  end

let add_units r idx u = if idx >= 0 then r.spans.(idx).units <- r.spans.(idx).units +. u

(* [add_total r ~session ~units name ~seconds] records the summed time
   of calls too short and too many to span one by one: one span under
   the enclosing one, lasting [seconds] and ending now. *)
let add_total r ~session ~units name ~seconds =
  if r.on then begin
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    let t1 = now () in
    ignore (push r { name; parent; session; t0 = t1 -. seconds; t1; units } : int)
  end

let with_span r ~session ?units name f =
  if not r.on then f ()
  else begin
    let idx = enter r ~session ?units name in
    match f () with
    | v ->
        leave r idx;
        v
    | exception e ->
        leave r idx;
        raise e
  end

(* [with_span_u] is [with_span] for calls that report their own units. *)
let with_span_u r ~session name f =
  if not r.on then fst (f ())
  else begin
    let idx = enter r ~session name in
    match f () with
    | v, u ->
        leave r idx;
        add_units r idx u;
        v
    | exception e ->
        leave r idx;
        raise e
  end

(* Per span name: summed self time (own duration minus the part its
   children cover), summed units, and span count. *)
type agg = { mutable self_s : float; mutable units_sum : float; mutable count : int }

let aggregate r =
  let child_s = Array.make r.len 0. in
  for i = 0 to r.len - 1 do
    let s = r.spans.(i) in
    if s.parent >= 0 then
      child_s.(s.parent) <- child_s.(s.parent) +. (s.t1 -. s.t0)
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to r.len - 1 do
    let s = r.spans.(i) in
    let a =
      match Hashtbl.find_opt tbl s.name with
      | Some a -> a
      | None ->
          let a = { self_s = 0.; units_sum = 0.; count = 0 } in
          Hashtbl.add tbl s.name a;
          a
    in
    a.self_s <- a.self_s +. (s.t1 -. s.t0 -. child_s.(i));
    a.units_sum <- a.units_sum +. s.units;
    a.count <- a.count + 1
  done;
  tbl

let self_s tbl name =
  match Hashtbl.find_opt tbl name with Some a -> a.self_s | None -> 0.

let units tbl name =
  match Hashtbl.find_opt tbl name with Some a -> a.units_sum | None -> 0.

(* [per_unit tbl name ~scale] is self time per unit of work, times
   [scale] (1e9 for ns per unit). *)
let per_unit tbl name ~scale =
  let u = units tbl name in
  if u <= 0. then 0. else self_s tbl name *. scale /. u

let write_jsonl r path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let base = if r.len > 0 then r.spans.(0).t0 else 0. in
      for i = 0 to r.len - 1 do
        let s = r.spans.(i) in
        Printf.fprintf oc
          "{\"id\": %d, \"name\": %S, \"parent\": %d, \"session\": %d, \
           \"start_us\": %.3f, \"end_us\": %.3f, \"units\": %.0f}\n"
          i s.name s.parent s.session
          ((s.t0 -. base) *. 1e6)
          ((s.t1 -. base) *. 1e6)
          s.units
      done)

let table r =
  let tbl = aggregate r in
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b.self_s a.self_s)
