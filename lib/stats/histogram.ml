open Ir

(* Equi-height column histograms (paper §4.1: "a statistics object in Orca is
   mainly a collection of column histograms used to derive estimates for
   cardinality and data skew").

   Buckets carry absolute row counts so histograms can be scaled, filtered and
   joined while keeping cardinalities consistent. Bucket bounds are datums;
   interpolation inside a bucket uses the numeric embedding Datum.to_float. *)

type bucket = {
  lo : Datum.t;  (* inclusive *)
  hi : Datum.t;  (* inclusive *)
  rows : float;
  ndv : float;
}

type t = { buckets : bucket list; null_rows : float }

let empty = { buckets = []; null_rows = 0.0 }

let total_rows t =
  List.fold_left (fun acc b -> acc +. b.rows) t.null_rows t.buckets

let non_null_rows t = total_rows t -. t.null_rows

let ndv t = List.fold_left (fun acc b -> acc +. b.ndv) 0.0 t.buckets

let null_fraction t =
  let total = total_rows t in
  if total <= 0.0 then 0.0 else t.null_rows /. total

let is_empty t = t.buckets = [] && t.null_rows = 0.0

(* Data skew: ratio of the heaviest bucket to the mean bucket weight. Used by
   the cost model to penalize redistribution on skewed columns. *)
let skew t =
  match t.buckets with
  | [] -> 1.0
  | bs ->
      let n = float_of_int (List.length bs) in
      let total = List.fold_left (fun acc b -> acc +. b.rows) 0.0 bs in
      if total <= 0.0 then 1.0
      else
        let max_rows = List.fold_left (fun m b -> Float.max m b.rows) 0.0 bs in
        max_rows /. (total /. n)

(* Build an equi-height histogram from concrete values. *)
let build ?(nbuckets = 32) (values : Datum.t list) : t =
  let nulls, non_null = List.partition Datum.is_null values in
  let null_rows = float_of_int (List.length nulls) in
  let sorted = List.sort Datum.compare non_null in
  let n = List.length sorted in
  if n = 0 then { buckets = []; null_rows }
  else
    let arr = Array.of_list sorted in
    let per_bucket = max 1 (n / nbuckets) in
    let buckets = ref [] in
    let i = ref 0 in
    while !i < n do
      let start = !i in
      let stop0 = min (n - 1) (start + per_bucket - 1) in
      (* extend the bucket so equal values never straddle a boundary *)
      let stop = ref stop0 in
      while !stop < n - 1 && Datum.equal arr.(!stop) arr.(!stop + 1) do
        incr stop
      done;
      let slice_len = !stop - start + 1 in
      let distinct = ref 1 in
      for k = start + 1 to !stop do
        if not (Datum.equal arr.(k) arr.(k - 1)) then incr distinct
      done;
      buckets :=
        {
          lo = arr.(start);
          hi = arr.(!stop);
          rows = float_of_int slice_len;
          ndv = float_of_int !distinct;
        }
        :: !buckets;
      i := !stop + 1
    done;
    { buckets = List.rev !buckets; null_rows }

let scale t factor =
  if factor < 0.0 then Gpos.Gpos_error.internal "Histogram.scale: negative factor";
  {
    buckets =
      List.map
        (fun b ->
          { b with rows = b.rows *. factor; ndv = Float.min b.ndv (b.rows *. factor) })
        t.buckets;
    null_rows = t.null_rows *. factor;
  }

let bucket_width b =
  let w = Datum.to_float b.hi -. Datum.to_float b.lo in
  Float.max w 0.0

(* Fraction of bucket [b] with value < v (or <= v when [inclusive]). *)
let bucket_fraction_below b v ~inclusive =
  let lo = Datum.to_float b.lo and hi = Datum.to_float b.hi in
  let x = Datum.to_float v in
  if x < lo then 0.0
  else if x > hi then 1.0
  else if hi <= lo then if inclusive then 1.0 else 0.0
  else
    let frac = (x -. lo) /. (hi -. lo) in
    if inclusive then Float.min 1.0 (frac +. (1.0 /. Float.max 1.0 b.ndv))
    else frac

(* Rows in bucket equal to [v], assuming uniform spread over distinct values. *)
let bucket_eq_rows b v =
  if Datum.compare v b.lo < 0 || Datum.compare v b.hi > 0 then 0.0
  else b.rows /. Float.max 1.0 b.ndv

(* Filter the histogram with [col cmp const]; returns the filtered histogram
   (null rows never pass a comparison). *)
let select_cmp t (op : Expr.cmp) (v : Datum.t) : t =
  if Datum.is_null v then { buckets = []; null_rows = 0.0 }
  else
    let keep b =
      match op with
      | Expr.Eq ->
          let rows = bucket_eq_rows b v in
          if rows > 0.0 then Some { lo = v; hi = v; rows; ndv = 1.0 } else None
      | Expr.Neq ->
          let eq = bucket_eq_rows b v in
          let rows = Float.max 0.0 (b.rows -. eq) in
          if rows > 0.0 then
            Some { b with rows; ndv = Float.max 1.0 (b.ndv -. 1.0) }
          else None
      | (Expr.Lt | Expr.Le) when Datum.compare v b.lo < 0 ->
          (* the whole bucket lies above [v]; the string embedding of
             [Datum.to_float] need not agree, and clipping [hi] to [v]
             would leave [hi] below [lo] *)
          None
      | (Expr.Gt | Expr.Ge) when Datum.compare v b.hi > 0 -> None
      | Expr.Lt | Expr.Le ->
          let frac = bucket_fraction_below b v ~inclusive:(op = Expr.Le) in
          let rows = b.rows *. frac in
          if rows > 0.0 then
            Some
              {
                b with
                hi = (if Datum.compare b.hi v > 0 then v else b.hi);
                rows;
                ndv = Float.max 1.0 (b.ndv *. frac);
              }
          else None
      | Expr.Gt | Expr.Ge ->
          let frac =
            1.0 -. bucket_fraction_below b v ~inclusive:(op = Expr.Gt)
          in
          let rows = b.rows *. frac in
          if rows > 0.0 then
            Some
              {
                b with
                lo = (if Datum.compare b.lo v < 0 then v else b.lo);
                rows;
                ndv = Float.max 1.0 (b.ndv *. frac);
              }
          else None
    in
    { buckets = List.filter_map keep t.buckets; null_rows = 0.0 }

let selectivity_cmp t op v =
  let total = total_rows t in
  if total <= 0.0 then 1.0
  else
    let kept = total_rows (select_cmp t op v) in
    Float.min 1.0 (Float.max 0.0 (kept /. total))

(* The bucket invariant every producer keeps (histogram.mli): each bucket
   has [lo <= hi], and each bucket's [hi] is at most the next one's [lo]
   under [Datum.compare] (closed bounds may touch, as a point bucket [v,v]
   touches its neighbours at [v]). The cut and merge walks below rely on
   it: the bounds of a valid histogram, read in order, never decrease. *)
let well_formed t =
  let rec go prev_hi = function
    | [] -> true
    | b :: rest ->
        Datum.compare b.lo b.hi <= 0
        && (match prev_hi with
           | None -> true
           | Some h -> Datum.compare h b.lo <= 0)
        && go (Some b.hi) rest
  in
  go None t.buckets

(* Split [t]'s buckets on [boundaries], which never decrease (the bounds of
   a valid histogram, in order), so the split pieces of two histograms
   cover identical ranges where they overlap. The cuts strictly inside a
   bucket are a contiguous run of [boundaries] that starts past every cut of
   the buckets before it, so one forward pass finds them all; the run goes
   through [List.sort_uniq] as a whole, which keeps the same representative
   of equal cuts (say [Int 3] and [Float 3.0]) whatever else the list
   holds. *)
let split_on_boundaries (t : t) (boundaries : Datum.t list) : bucket list =
  let split_bucket b cuts =
    match cuts with
    | [] -> [ b ]
    | cuts ->
        let pieces = ref [] in
        let current_lo = ref b.lo in
        let width_total = Float.max (bucket_width b) 1e-9 in
        List.iter
          (fun cut ->
            let w =
              (Datum.to_float cut -. Datum.to_float !current_lo) /. width_total
            in
            let w = Float.max 0.0 (Float.min 1.0 w) in
            pieces :=
              {
                lo = !current_lo;
                hi = cut;
                rows = b.rows *. w;
                ndv = Float.max 1.0 (b.ndv *. w);
              }
              :: !pieces;
            current_lo := cut)
          cuts;
        let w =
          (Datum.to_float b.hi -. Datum.to_float !current_lo) /. width_total
        in
        let w = Float.max 0.0 (Float.min 1.0 w) in
        pieces :=
          {
            lo = !current_lo;
            hi = b.hi;
            rows = b.rows *. w;
            ndv = Float.max 1.0 (b.ndv *. w);
          }
          :: !pieces;
        List.rev !pieces
  in
  (* [rest]: the boundaries not yet passed; those at or below [b.lo] can
     cut neither [b] nor any later bucket *)
  let rec skip lo = function
    | v :: rest when Datum.compare v lo <= 0 -> skip lo rest
    | l -> l
  in
  let rec take hi acc = function
    | v :: rest when Datum.compare v hi < 0 -> take hi (v :: acc) rest
    | l -> (List.rev acc, l)
  in
  let rec walk rest out = function
    | [] -> List.rev out
    | b :: bs ->
        let inside, rest = take b.hi [] (skip b.lo rest) in
        let pieces = split_bucket b (List.sort_uniq Datum.compare inside) in
        walk rest (List.rev_append pieces out) bs
  in
  walk boundaries [] t.buckets

(* Equi-join of two column histograms. Returns (join row count, histogram of
   the join key in the result). Aligned-fragment containment estimate:
   rows = r1 * r2 / max(ndv1, ndv2) per overlapping fragment.

   A merge walk: both piece lists are sorted and never overlap, so the [b]
   pieces overlapping one [a] piece form a contiguous run — from the first
   whose [hi] reaches [a.lo] to the last whose [lo] is within [a.hi] — and
   the run's start never moves back as [a] advances. The walk visits the
   overlapping pairs in the order of a nested loop over both lists, so the
   fragments and the float sum come out in the same order. *)
let join_eq (a : t) (b : t) : float * t =
  let bounds h =
    List.concat_map (fun bk -> [ bk.lo; bk.hi ]) h.buckets
  in
  let a_buckets = split_on_boundaries a (bounds b) in
  let b_buckets = split_on_boundaries b (bounds a) in
  let out = ref [] in
  let total = ref 0.0 in
  let join_pair ba bb =
    (* fragment intersection *)
    let lo = if Datum.compare ba.lo bb.lo >= 0 then ba.lo else bb.lo in
    let hi = if Datum.compare ba.hi bb.hi <= 0 then ba.hi else bb.hi in
    let frac bucket =
      let bw = bucket_width bucket in
      if bw <= 0.0 then 1.0
      else
        let w = Datum.to_float hi -. Datum.to_float lo in
        Float.max 0.0 (Float.min 1.0 (w /. bw))
    in
    let fa = frac ba and fb = frac bb in
    let ra = ba.rows *. fa and rb = bb.rows *. fb in
    let na = Float.max 1.0 (ba.ndv *. fa)
    and nb = Float.max 1.0 (bb.ndv *. fb) in
    let rows = ra *. rb /. Float.max na nb in
    if rows > 0.0 then begin
      total := !total +. rows;
      out := { lo; hi; rows; ndv = Float.min na nb } :: !out
    end
  in
  let rec run ba = function
    | bb :: rest when Datum.compare bb.lo ba.hi <= 0 ->
        join_pair ba bb;
        run ba rest
    | _ -> ()
  in
  let rec start lo = function
    | bb :: rest when Datum.compare bb.hi lo < 0 -> start lo rest
    | l -> l
  in
  ignore
    (List.fold_left
       (fun from ba ->
         let from = start ba.lo from in
         run ba from;
         from)
       b_buckets a_buckets);
  (!total, { buckets = List.rev !out; null_rows = 0.0 })

let min_value t = match t.buckets with [] -> None | b :: _ -> Some b.lo

let max_value t =
  match List.rev t.buckets with [] -> None | b :: _ -> Some b.hi

let to_string t =
  let bs =
    List.map
      (fun b ->
        Printf.sprintf "[%s..%s r=%.1f d=%.1f]" (Datum.to_string b.lo)
          (Datum.to_string b.hi) b.rows b.ndv)
      t.buckets
  in
  Printf.sprintf "hist(nulls=%.1f, %s)" t.null_rows (String.concat " " bs)

(* Singleton histogram describing a column with [rows] rows uniformly spread
   over [ndv] values in [lo, hi]; used for defaults and synthetic metadata. *)
let uniform ~lo ~hi ~rows ~ndv =
  if rows <= 0.0 then empty
  else { buckets = [ { lo; hi; rows; ndv = Float.max 1.0 ndv } ]; null_rows = 0.0 }
