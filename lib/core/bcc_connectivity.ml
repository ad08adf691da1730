open Refnet_bits
open Refnet_graph

(* The referee's evolving picture of the graph: degrees from round 1,
   how many neighbours each node has announced so far, a union-find over
   the announced (real) edges, and the decision once one is locked in.
   [degrees.(i) = -1] until node [i + 1]'s round-1 message parses, so a
   salvaged run never mistakes a crashed degree for 0. *)
type ref_state = {
  degrees : int array;
  announced : int array;
  uf : Union_find.t;
  mutable decision : bool option;
}

(* Sound either way: a one-component union-find over announced edges is
   a connectivity certificate (announced edges are real), and
   "disconnected" is claimed only once every node has announced exactly
   its round-1 degree — full adjacency knowledge. *)
let decide ~n st =
  if n = 0 then Some true
  else if Union_find.count st.uf = 1 then Some true
  else begin
    let full = ref true in
    for i = 0 to n - 1 do
      if st.degrees.(i) < 0 || st.announced.(i) <> st.degrees.(i) then full := false
    done;
    if !full then Some false else None
  end

(* The broadcast is a single resolved bit; nodes parse defensively so a
   faulted (empty) broadcast reads as "keep going". *)
let resolved_of extra =
  match extra with
  | b :: _ -> Message.bits b >= 1 && Bit_reader.read_bit (Message.reader b)
  | [] -> false

let protocol ~rounds ~bandwidth () : bool option Bcc.t =
  if rounds < 1 then invalid_arg "Bcc_connectivity.protocol: rounds must be at least 1";
  if bandwidth < 1 then invalid_arg "Bcc_connectivity.protocol: bandwidth must be at least 1";
  {
    Bcc.name = Printf.sprintf "bcc-connectivity-%d" bandwidth;
    budget = { Bcc.rounds; bits_per_round = Bcc.log_budget ~c:bandwidth };
    (* Every message is at most bandwidth * id_bits n bits — enforced at
       send time — so the fitted constant is exactly 1. *)
    audit = Some { Bound_audit.b_shape = K_log_n bandwidth; c_max = 1.0; n_min = 1 };
    init = Bcc.make_state;
    send =
      (fun ~round s ->
        let v = Bcc.state_view s in
        let w = Bounds.id_bits (View.n v) in
        if round = 1 then begin
          let wtr = Bit_writer.create () in
          Codes.write_fixed wtr ~width:w (View.deg v);
          (Message.of_writer wtr, s)
        end
        else if resolved_of (Bcc.state_extra s) then (Message.empty, s)
        else begin
          (* The next batch of up to [bandwidth] neighbours, smallest
             first; nothing once the list is exhausted. *)
          let start = (round - 2) * bandwidth in
          let stop = start + bandwidth in
          if start >= View.deg v then (Message.empty, s)
          else begin
            let wtr = Bit_writer.create () in
            let _ =
              View.fold_neighbors v 0 (fun idx nb ->
                  if idx >= start && idx < stop then Codes.write_fixed wtr ~width:w nb;
                  idx + 1)
            in
            (Message.of_writer wtr, s)
          end
        end);
    receive = (fun ~round:_ ~broadcast s -> Bcc.push_extra s broadcast);
    referee =
      Bcc.Referee
        {
          r_init =
            (fun ~n ->
              {
                degrees = Array.make (max 1 n) (-1);
                announced = Array.make (max 1 n) 0;
                uf = Union_find.create (max 1 n);
                decision = None;
              });
          r_absorb =
            (fun ~n ~round st ~id msg ->
              let w = Bounds.id_bits n in
              let bits = Message.bits msg in
              if round = 1 then begin
                if bits <> w then raise Message.Malformed;
                let d = Codes.read_fixed (Message.reader msg) ~width:w in
                if d > n - 1 then raise Message.Malformed;
                st.degrees.(id - 1) <- d;
                st
              end
              else begin
                if w > 0 && bits mod w <> 0 then raise Message.Malformed;
                let count = if w = 0 then 0 else bits / w in
                let r = Message.reader msg in
                for _ = 1 to count do
                  let nb = Codes.read_fixed r ~width:w in
                  if nb < 1 || nb > n || nb = id then raise Message.Malformed;
                  ignore (Union_find.union st.uf (id - 1) (nb - 1))
                done;
                st.announced.(id - 1) <- st.announced.(id - 1) + count;
                st
              end);
          r_broadcast =
            (fun ~n ~round:_ st ->
              (match st.decision with
              | Some _ -> ()
              | None -> st.decision <- decide ~n st);
              if n = 0 then (st, Message.empty)
              else begin
                let wtr = Bit_writer.create () in
                Bit_writer.add_bit wtr (st.decision <> None);
                (st, Message.of_writer wtr)
              end);
          r_finish =
            (fun ~n st ->
              if n = 0 then Some true
              else
                match st.decision with Some b -> Some b | None -> decide ~n st);
        };
  }

let rounds_for ~bandwidth ~max_degree =
  if bandwidth < 1 then invalid_arg "Bcc_connectivity.rounds_for: bandwidth must be at least 1";
  if max_degree < 0 then invalid_arg "Bcc_connectivity.rounds_for: max_degree must be nonnegative";
  max 2 (1 + ((max_degree + bandwidth - 1) / bandwidth))

let hardened ~rounds ~bandwidth () =
  Bcc.harden
    ~on_fault:(fun report partial ->
      match partial with
      | Some (Some true)
        when report.Verdict.malformed = [] && report.Verdict.duplicated = [] ->
        (* A one-component union-find over the surviving announcements
           is still a true certificate; crashes only hide edges. *)
        Verdict.Degraded (Some true, report)
      | _ ->
        Verdict.Inconclusive
          ("connectivity not salvageable: " ^ Verdict.report_summary report))
    (protocol ~rounds ~bandwidth ())

let circulant_connected ~n offsets =
  if n <= 1 then true
  else begin
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    List.fold_left (fun acc o -> gcd acc (abs o)) n offsets = 1
  end
