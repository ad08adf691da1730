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

(* Prefer sparser (higher) levels: scan from the top. *)
let scan ~levels recover =
  let rec go j =
    if j < 0 then None else match recover j with Some _ as hit -> hit | None -> go (j - 1)
  in
  go (levels - 1)

let sample t = scan ~levels:(levels t) (fun j -> One_sparse.recover t.sketches.(j))

(* ---------- flat banks ---------- *)

let add t bank ~off ~index ~delta =
  if index < 0 then invalid_arg "L0_sampler.add: negative index";
  let l = Hash.level t.hash index ~max_level:(levels t - 1) in
  let d = Field.of_int delta in
  let di = Field.mul d (Field.of_int index) in
  let dz = Field.mul d (Field.pow t.z index) in
  for j = 0 to l do
    let k = off + (3 * j) in
    bank.(k) <- Field.add bank.(k) d;
    bank.(k + 1) <- Field.add bank.(k + 1) di;
    bank.(k + 2) <- Field.add bank.(k + 2) dz
  done

let sample_fields t fields ~off =
  scan ~levels:(levels t) (fun j ->
      let k = off + (3 * j) in
      One_sparse.recover_fields ~z:t.z fields.(k) fields.(k + 1) fields.(k + 2))

let write w t = Array.iter (fun s -> One_sparse.write w s) t.sketches

let read r ~template =
  {
    template with
    sketches = Array.map (fun _ -> One_sparse.read r ~z:template.z) template.sketches;
  }

let bits ~levels = levels * One_sparse.bits
