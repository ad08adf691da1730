type fault_report = {
  missing : int list;
  malformed : int list;
  duplicated : int list;
  undetermined : int list;
}

type 'a t =
  | Decided of 'a
  | Degraded of 'a * fault_report
  | Inconclusive of string

let empty_report = { missing = []; malformed = []; duplicated = []; undetermined = [] }

let channel_clean r = r.missing = [] && r.malformed = [] && r.duplicated = []

let salvage report ~decide ~partial =
  if channel_clean report then Decided (decide ())
  else
    match partial () with
    | Some (v, undetermined) -> Degraded (v, { report with undetermined })
    | None -> Inconclusive "authenticated messages are mutually inconsistent"

(* One mark per id: bit 0 is "arrived this round", bit 1 "missed some
   closed round", bit 2 "rejected".  An id is missing unless its first
   two bits read [seen], and trusted only when its whole mark does. *)
let seen = 1
let missed = 2
let rejected = 4

type ledger = {
  marks : int array;
  mutable malformed_ids : int list;
  mutable duplicated_ids : int list;
}

let ledger ~n = { marks = Array.make n 0; malformed_ids = []; duplicated_ids = [] }

let admit l ~id =
  if id < 1 || id > Array.length l.marks then begin
    (* A sender id outside the network is itself channel corruption;
       there is no slot to mark missing. *)
    l.malformed_ids <- id :: l.malformed_ids;
    false
  end
  else begin
    let m = l.marks.(id - 1) in
    if m land seen <> 0 then begin
      l.duplicated_ids <- id :: l.duplicated_ids;
      false
    end
    else begin
      l.marks.(id - 1) <- m lor seen;
      true
    end
  end

let reject l ~id =
  l.marks.(id - 1) <- l.marks.(id - 1) lor rejected;
  l.malformed_ids <- id :: l.malformed_ids

let close_round l =
  for i = 0 to Array.length l.marks - 1 do
    let m = l.marks.(i) in
    l.marks.(i) <- (m land (missed lor rejected)) lor (if m land seen = 0 then missed else 0)
  done

let trusted l id = l.marks.(id - 1) = seen

let report l =
  let missing = ref [] in
  for i = Array.length l.marks - 1 downto 0 do
    if l.marks.(i) land (seen lor missed) <> seen then missing := (i + 1) :: !missing
  done;
  {
    missing = !missing;
    malformed = List.sort_uniq Int.compare l.malformed_ids;
    duplicated = List.sort_uniq Int.compare l.duplicated_ids;
    undetermined = [];
  }

let map f = function
  | Decided v -> Decided (f v)
  | Degraded (v, r) -> Degraded (f v, r)
  | Inconclusive reason -> Inconclusive reason

let is_decided = function Decided _ -> true | Degraded _ | Inconclusive _ -> false

let report_summary r =
  Printf.sprintf "%d missing, %d malformed, %d duplicated, %d undetermined"
    (List.length r.missing) (List.length r.malformed) (List.length r.duplicated)
    (List.length r.undetermined)

let pp_ids fmt = function
  | [] -> Format.pp_print_string fmt "-"
  | ids ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
      Format.pp_print_int fmt ids

let pp_report fmt r =
  Format.fprintf fmt "@[<hov 2>{missing=%a;@ malformed=%a;@ duplicated=%a;@ undetermined=%a}@]"
    pp_ids r.missing pp_ids r.malformed pp_ids r.duplicated pp_ids r.undetermined

let pp pp_payload fmt = function
  | Decided v -> Format.fprintf fmt "@[<hov 2>decided:@ %a@]" pp_payload v
  | Degraded (v, r) ->
    Format.fprintf fmt "@[<hov 2>degraded:@ %a@ %a@]" pp_payload v pp_report r
  | Inconclusive reason -> Format.fprintf fmt "inconclusive: %s" reason
