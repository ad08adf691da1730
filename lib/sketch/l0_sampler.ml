type t = { hash : Hash.t; z : int; sketches : One_sparse.t array }

let create ~rng ~levels =
  if levels < 1 then invalid_arg "L0_sampler.create: need at least one level";
  let hash = Hash.create rng in
  let z = 1 + Random.State.full_int rng (Field.p - 1) in
  { hash; z; sketches = Array.init levels (fun _ -> One_sparse.create ~z) }

let levels t = Array.length t.sketches

let update t ~index ~delta =
  let l = Hash.level t.hash index ~max_level:(levels t - 1) in
  (* every level shares [z]: one power for all of them *)
  let pow = if index < 0 then Field.zero else Field.pow (Field.of_int t.z) index in
  let sketches =
    Array.mapi
      (fun j s -> if j <= l then One_sparse.update_pow s ~index ~delta ~pow else s)
      t.sketches
  in
  { t with sketches }

let combine a b =
  if a.hash <> b.hash || a.z <> b.z || levels a <> levels b then
    invalid_arg "L0_sampler.combine: samplers from different seed positions";
  { a with sketches = Array.map2 One_sparse.combine a.sketches b.sketches }

let sample t =
  (* Prefer sparser (higher) levels: scan from the top. *)
  let rec go j =
    if j < 0 then None
    else begin
      match One_sparse.recover t.sketches.(j) with
      | Some hit -> Some hit
      | None -> go (j - 1)
    end
  in
  go (levels t - 1)

let write w t = Array.iter (fun s -> One_sparse.write w s) t.sketches

let read r ~template =
  {
    template with
    sketches = Array.map (fun _ -> One_sparse.read r ~z:template.z) template.sketches;
  }

let bits ~levels = levels * One_sparse.bits
