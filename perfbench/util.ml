(* Small helpers shared by the workloads: order statistics, /proc
   readings and the failure exception every oracle raises. *)

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* [quantile xs q] interpolates linearly between closest ranks of the
   sorted sample (0 on an empty sample). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0.
  else begin
    let pos = q *. float_of_int (k - 1) in
    let lo = truncate pos in
    let hi = min (k - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5

(* [vm_hwm_mb pid] is the peak resident set ("VmHWM") of a process in
   MiB, from /proc; [self] for this process. *)
let vm_hwm_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> float_of_int kb /. 1024.)
                else scan ()
          in
          scan ())

(* [steal_s ()] is the CPU time the hypervisor has taken from this
   machine since boot (the "steal" column of /proc/stat, in 1/100 s);
   a window with much steal measured a contended host, not refnet. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
          | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
              float_of_string steal /. 100.
          | _ | (exception _) -> 0.)

(* a JSON number with all its digits; non-finite values cannot be
   encoded and would mean a broken measurement *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"
