open Refnet_bits
open Refnet_graph

type witness = int array array

type result = Found of witness | Impossible | Aborted

let others ~n ~id = List.filter (fun v -> v <> id) (List.init n (fun i -> i + 1))

let neighborhood_mask ~n ~id neighbors =
  let mask = ref 0 in
  List.iteri
    (fun j v -> if List.mem v neighbors then mask := !mask lor (1 lsl j))
    (others ~n ~id);
  !mask

(* Internal search state: cells are (node, neighbourhood-mask) table
   entries; a "pair" is a pair of graphs that must be separated, with
   its options = the coordinate cell pairs where the two graphs show a
   node different neighbourhoods. *)

type pair_state = {
  options : (int * int) array;  (* (cell of G, cell of H), cells differ *)
  mutable satisfied : int;      (* depth at which satisfied, -1 if not *)
  mutable open_options : int;   (* options not yet decided-equal *)
}

let search ?(budget = 20_000_000) ~n ~colors ~pairs_of () =
  if n < 1 || n > 4 then invalid_arg "Protocol_search: n must be within 1..4";
  if colors < 1 then invalid_arg "Protocol_search: colors must be positive";
  let masks = 1 lsl (n - 1) in
  let cells = n * masks in
  let cell i mask = ((i - 1) * masks) + mask in
  (* Enumerate graphs and their per-node cell signatures. *)
  let graphs = ref [] in
  Enumerate.iter n (fun g -> graphs := g :: !graphs);
  let graphs = Array.of_list (List.rev !graphs) in
  let signature g =
    Array.init n (fun i ->
        cell (i + 1) (neighborhood_mask ~n ~id:(i + 1) (Graph.neighbors g (i + 1))))
  in
  let signatures = Array.map signature graphs in
  let pairs =
    pairs_of graphs
    |> List.map (fun (a, b) ->
           let options = ref [] in
           for i = 0 to n - 1 do
             let ca = signatures.(a).(i) and cb = signatures.(b).(i) in
             if ca <> cb then options := (ca, cb) :: !options
           done;
           { options = Array.of_list !options; satisfied = -1; open_options = List.length !options })
    |> Array.of_list
  in
  (* Index: which (pair, option) touch a given cell. *)
  let touching = Array.make cells [] in
  Array.iteri
    (fun pi p ->
      Array.iter
        (fun (ca, cb) ->
          touching.(ca) <- (pi, ca, cb) :: touching.(ca);
          if cb <> ca then touching.(cb) <- (pi, ca, cb) :: touching.(cb))
        p.options)
    pairs;
  let value = Array.make cells (-1) in
  let nodes_visited = ref 0 in
  let aborted = ref false in
  (* Assign cells in order; per-node colour-permutation symmetry lets us
     cap each cell's colour at (max used in its node's block) + 1. *)
  let rec assign c =
    if !aborted then false
    else if c >= cells then true
    else begin
      let node_start = c - (c mod masks) in
      let max_used = ref (-1) in
      for c' = node_start to c - 1 do
        if value.(c') > !max_used then max_used := value.(c')
      done;
      let limit = min (colors - 1) (!max_used + 1) in
      let rec try_value v =
        if v > limit then false
        else begin
          incr nodes_visited;
          if !nodes_visited > budget then begin
            aborted := true;
            false
          end
          else begin
            value.(c) <- v;
            (* Propagate into pairs touching this cell. *)
            let changed_sat = ref [] and changed_open = ref [] in
            let ok = ref true in
            List.iter
              (fun (pi, ca, cb) ->
                let p = pairs.(pi) in
                if !ok && p.satisfied < 0 then begin
                  let va = value.(ca) and vb = value.(cb) in
                  if va >= 0 && vb >= 0 then
                    if va <> vb then begin
                      p.satisfied <- c;
                      changed_sat := pi :: !changed_sat
                    end
                    else begin
                      p.open_options <- p.open_options - 1;
                      changed_open := pi :: !changed_open;
                      if p.open_options = 0 then ok := false
                    end
                end)
              touching.(c);
            let undo () =
              List.iter (fun pi -> pairs.(pi).satisfied <- -1) !changed_sat;
              List.iter (fun pi -> pairs.(pi).open_options <- pairs.(pi).open_options + 1)
                !changed_open;
              value.(c) <- -1
            in
            if !ok && assign (c + 1) then true
            else begin
              undo ();
              try_value (v + 1)
            end
          end
        end
      in
      try_value 0
    end
  in
  (* Pairs with no options are unseparable: distinct labelled graphs
     always differ somewhere, so this means the pair list was built from
     identical graphs — treat as immediately impossible. *)
  if Array.exists (fun p -> Array.length p.options = 0) pairs then Impossible
  else if assign 0 then begin
    let w =
      Array.init n (fun i -> Array.init masks (fun m -> max 0 value.(cell (i + 1) m)))
    in
    Found w
  end
  else if !aborted then Aborted
  else Impossible

let conflict_pairs ~property graphs =
  let acc = ref [] in
  let m = Array.length graphs in
  for a = 0 to m - 1 do
    for b = a + 1 to m - 1 do
      if property graphs.(a) <> property graphs.(b) then acc := (a, b) :: !acc
    done
  done;
  !acc

let all_pairs graphs =
  let acc = ref [] in
  let m = Array.length graphs in
  for a = 0 to m - 1 do
    for b = a + 1 to m - 1 do
      acc := (a, b) :: !acc
    done
  done;
  !acc

let search_decider ?budget ~n ~colors ~property () =
  search ?budget ~n ~colors ~pairs_of:(conflict_pairs ~property) ()

let search_reconstructor ?budget ~n ~colors () = search ?budget ~n ~colors ~pairs_of:all_pairs ()

let search_family_reconstructor ?budget ~n ~colors ~family () =
  let family_pairs graphs =
    let acc = ref [] in
    let m = Array.length graphs in
    for a = 0 to m - 1 do
      if family graphs.(a) then
        for b = a + 1 to m - 1 do
          if family graphs.(b) then acc := (a, b) :: !acc
        done
    done;
    !acc
  in
  search ?budget ~n ~colors ~pairs_of:family_pairs ()

let to_protocol ~n ~colors (w : witness) ~property : bool Protocol.t =
  let width = max 1 (Codes.bits_needed (colors - 1)) in
  let local view =
    if View.n view <> n then invalid_arg "Protocol_search.to_protocol: wrong network size";
    let id = View.id view in
    let wr = Bit_writer.create () in
    Codes.write_fixed wr ~width w.(id - 1).(neighborhood_mask ~n ~id (View.neighbors view));
    Message.of_writer wr
  in
  let global ~n:n' msgs =
    if n' <> n then invalid_arg "Protocol_search.to_protocol: wrong network size";
    let received = Array.map (fun m -> Codes.read_fixed (Message.reader m) ~width) msgs in
    (* Classify by matching against every graph's predicted vector. *)
    let verdict = ref false in
    (try
       Enumerate.iter n (fun g ->
           let matches = ref true in
           for i = 1 to n do
             let v = w.(i - 1).(neighborhood_mask ~n ~id:i (Graph.neighbors g i)) in
             if v <> received.(i - 1) then matches := false
           done;
           if !matches then begin
             verdict := property g;
             raise Exit
           end)
     with Exit -> ());
    !verdict
  in
  {
    name = Printf.sprintf "searched-protocol(n=%d,colors=%d)" n colors;
    local;
    referee = Protocol.batch global;
    budget = None;
  }
