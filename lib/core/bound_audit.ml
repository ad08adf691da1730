type shape = Log_n | K_log_n of int | K2_log_n of int | Log_sq | Linear

let shape_units shape n =
  let w = Bounds.id_bits n in
  match shape with
  | Log_n -> w
  | K_log_n k -> max 1 (k * w)
  | K2_log_n k -> max 1 (k * k * w)
  | Log_sq -> max 1 (w * w)
  | Linear -> max 1 n

let pp_shape fmt = function
  | Log_n -> Format.pp_print_string fmt "log n"
  | K_log_n k -> Format.fprintf fmt "%d*log n" k
  | K2_log_n k -> Format.fprintf fmt "%d^2*log n" k
  | Log_sq -> Format.pp_print_string fmt "log^2 n"
  | Linear -> Format.pp_print_string fmt "n"

let shape_string s = Format.asprintf "%a" pp_shape s

type budget = { b_shape : shape; c_max : float; n_min : int }

(* Tag and parameter of a shape, as the jsonl "budget" object and the
   flight recorder's done record spell it. *)
let shape_tag = function
  | Log_n -> ("log_n", 0)
  | K_log_n k -> ("k_log_n", k)
  | K2_log_n k -> ("k2_log_n", k)
  | Log_sq -> ("log_sq", 0)
  | Linear -> ("linear", 0)

let shape_of_tag tag k =
  match tag with
  | "log_n" -> Some Log_n
  | "k_log_n" -> Some (K_log_n k)
  | "k2_log_n" -> Some (K2_log_n k)
  | "log_sq" -> Some Log_sq
  | "linear" -> Some Linear
  | _ -> None

(* ---------- auditing ---------- *)

type observation = { o_n : int; o_max_bits : int }

type verdict = {
  v_label : string;
  v_shape : shape;
  v_c_max : float;
  v_c_fit : float;
  v_observations : int;
  v_skipped : int;
  v_worst_n : int;
  v_passed : bool;
}

let audit ~label budget observations =
  let c_fit = ref 0.0 and worst_n = ref 0 and audited = ref 0 and skipped = ref 0 in
  List.iter
    (fun o ->
      if o.o_n < budget.n_min then incr skipped
      else begin
        incr audited;
        let c = float_of_int o.o_max_bits /. float_of_int (shape_units budget.b_shape o.o_n) in
        if c > !c_fit then begin
          c_fit := c;
          worst_n := o.o_n
        end
      end)
    observations;
  {
    v_label = label;
    v_shape = budget.b_shape;
    v_c_max = budget.c_max;
    v_c_fit = !c_fit;
    v_observations = !audited;
    v_skipped = !skipped;
    v_worst_n = !worst_n;
    v_passed = !audited = 0 || !c_fit <= budget.c_max +. 1e-9;
  }

let pp_verdict fmt v =
  Format.fprintf fmt "%-44s %-10s c_max=%-6g c_fit=%-8.3f (worst n=%d, %d obs%s)  %s" v.v_label
    (shape_string v.v_shape) v.v_c_max v.v_c_fit v.v_worst_n v.v_observations
    (if v.v_skipped > 0 then Printf.sprintf ", %d below n_min" v.v_skipped else "")
    (if v.v_passed then "PASS" else "VIOLATED")

let verdict_json v =
  Printf.sprintf
    {|{"c_fit":%.6f,"c_max":%g,"label":%s,"observations":%d,"passed":%b,"shape":%s,"skipped":%d,"worst_n":%d}|}
    v.v_c_fit v.v_c_max
    (Printf.sprintf "%S" v.v_label)
    v.v_observations v.v_passed
    (Printf.sprintf "%S" (shape_string v.v_shape))
    v.v_skipped v.v_worst_n
