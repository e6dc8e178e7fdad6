(* Order statistics for the reported metrics. *)

(* Nearest-rank percentile of an ascending array: the smallest sample with at
   least [p] of the samples at or below it. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank n p - 1)

(* Samples strictly beyond the [p] rank: the guide asks for at least ten
   beyond any reported percentile. *)
let beyond n p = if n = 0 then 0 else n - rank n p

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a = percentile (sorted_copy a) 0.5

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method): the cut points at positions (n+1)i/4, linearly interpolated. *)
let quartiles a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n < 2 then invalid_arg "quartiles: need at least two samples";
  List.map
    (fun i ->
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((s.(j - 1) *. (4.0 -. delta)) +. (s.(j) *. delta)) /. 4.0)
    [ 1; 2; 3 ]

(* The spread the benchmark must keep under a third of each bound: the
   interquartile distance as a share of the median. *)
let spread a =
  match quartiles a with
  | [ q1; q2; q3 ] -> if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
  | _ -> assert false
