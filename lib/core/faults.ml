open Refnet_bits

type fault =
  | Crash
  | Truncate of int
  | Flip of int list
  | Duplicate
  | Spoof of int

(* Sorted by id, ids unique and >= 1.  The plan is independent of any
   particular network: entries whose id exceeds the run's [n] are
   silently out of scope at [apply] time. *)
type plan = (int * fault) list

let empty = []

let is_empty plan = plan = []

let normalize_fault = function
  | Crash -> Crash
  | Truncate k ->
    if k < 0 then invalid_arg "Faults.of_list: negative truncation";
    Truncate k
  | Flip ps ->
    if List.exists (fun p -> p < 0) ps then invalid_arg "Faults.of_list: negative flip position";
    Flip (List.sort_uniq compare ps)
  | Duplicate -> Duplicate
  | Spoof j ->
    if j < 1 then invalid_arg "Faults.of_list: spoof target must be a positive id";
    Spoof j

let of_list entries =
  let entries =
    List.map
      (fun (id, f) ->
        if id < 1 then invalid_arg "Faults.of_list: ids start at 1";
        (id, normalize_fault f))
      entries
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then invalid_arg "Faults.of_list: duplicate id";
      check rest
    | _ -> ()
  in
  check sorted;
  sorted

let to_list plan = plan

let find plan id = List.assoc_opt id plan

let ids plan = List.map fst plan

let random ~seed ~n ?(crash = 0.0) ?(truncate = 0.0) ?(flip = 0.0) ?(flip_bits = 1)
    ?(duplicate = 0.0) ?(spoof = 0.0) () =
  if n < 0 then invalid_arg "Faults.random: negative n";
  if flip_bits < 1 then invalid_arg "Faults.random: flip_bits must be positive";
  let rng = Random.State.make [| 0xfa017; seed; n |] in
  (* Positions and truncation points are drawn on the scale of a typical
     frugal message; [apply] reduces them modulo the actual length. *)
  let bit_scale = (8 * Codes.id_width n) + 32 in
  let draw id =
    let u = Random.State.float rng 1.0 in
    if u < crash then Some Crash
    else if u < crash +. truncate then Some (Truncate (Random.State.int rng (bit_scale + 1)))
    else if u < crash +. truncate +. flip then
      Some
        (Flip
           (List.sort_uniq compare
              (List.init flip_bits (fun _ -> Random.State.int rng bit_scale))))
    else if u < crash +. truncate +. flip +. duplicate then Some Duplicate
    else if u < crash +. truncate +. flip +. duplicate +. spoof && n > 1 then begin
      let rec target () =
        let j = 1 + Random.State.int rng n in
        if j = id then target () else j
      in
      Some (Spoof (target ()))
    end
    else None
  in
  let rec go id acc =
    if id > n then List.rev acc
    else
      match draw id with
      | None -> go (id + 1) acc
      | Some f -> go (id + 1) ((id, f) :: acc)
  in
  go 1 []

(* ---------- applying a plan to a message vector ---------- *)

let truncate_prefix m ~keep =
  let len = min keep (Bitvec.length m) in
  let out = Bitvec.create len in
  for i = 0 to len - 1 do
    if Bitvec.get m i then Bitvec.set out i
  done;
  out

let flip_positions m ps =
  let len = Bitvec.length m in
  if len = 0 then m
  else begin
    let out = Bitvec.copy m in
    List.iter
      (fun p ->
        let i = p mod len in
        Bitvec.assign out i (not (Bitvec.get out i)))
      ps;
    out
  end

let apply plan msgs =
  let n = Array.length msgs in
  let deliveries = ref [] and injected = ref [] in
  let deliver id m = deliveries := (id, m) :: !deliveries in
  for id = 1 to n do
    let m = msgs.(id - 1) in
    match find plan id with
    | None -> deliver id m
    | Some f ->
      injected := (id, f) :: !injected;
      (match f with
      | Crash -> ()
      | Truncate keep -> deliver id (truncate_prefix m ~keep)
      | Flip ps -> deliver id (flip_positions m ps)
      | Duplicate ->
        deliver id m;
        deliver id m
      | Spoof j ->
        (* A spoof target outside the live network degenerates to a
           crash: there is no slot to misdeliver into. *)
        if j >= 1 && j <= n && j <> id then deliver j m)
  done;
  (List.rev !deliveries, List.rev !injected)

(* ---------- rendering ---------- *)

let fault_to_string = function
  | Crash -> "crash"
  | Truncate k -> Printf.sprintf "truncate:%d" k
  | Flip ps -> Printf.sprintf "flip:%s" (String.concat "," (List.map string_of_int ps))
  | Duplicate -> "duplicate"
  | Spoof j -> Printf.sprintf "spoof:%d" j

(* Only the canonical spelling parses, so a decoded fault renders back
   to the very string it came from. *)
let fault_of_string s =
  let parsed =
    match String.split_on_char ':' s with
    | [ "crash" ] -> Some Crash
    | [ "duplicate" ] -> Some Duplicate
    | [ "truncate"; k ] -> Option.map (fun k -> Truncate k) (int_of_string_opt k)
    | [ "spoof"; j ] -> Option.map (fun j -> Spoof j) (int_of_string_opt j)
    | [ "flip"; ps ] ->
      Some (Flip (List.filter_map int_of_string_opt (String.split_on_char ',' ps)))
    | _ -> None
  in
  Option.bind parsed (fun f -> if fault_to_string f = s then Some f else None)

let pp_fault fmt f = Format.pp_print_string fmt (fault_to_string f)

let pp fmt plan =
  match plan with
  | [] -> Format.pp_print_string fmt "(no faults)"
  | entries ->
    Format.fprintf fmt "@[<hov 1>{";
    List.iteri
      (fun i (id, f) ->
        if i > 0 then Format.fprintf fmt ";@ ";
        Format.fprintf fmt "%d->%a" id pp_fault f)
      entries;
    Format.fprintf fmt "}@]"
