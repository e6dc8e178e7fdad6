open Ir

(* Predicate selectivity estimation over relation statistics. Filtering
   returns *updated* statistics: the constrained column's histogram is
   replaced by its filtered version and all other histograms are scaled, so
   estimates compose as predicates stack up (paper Fig. 5: combined statistics
   reflect the impact of the join condition on column histograms). *)

let default_selectivity = 0.25
let default_eq_selectivity = 0.05
let like_prefix_selectivity = 0.08
let like_contains_selectivity = 0.15

(* Selectivity and optional per-column histogram refinement of one conjunct. *)
let rec conjunct_selectivity (stats : Relstats.t) (pred : Expr.scalar) :
    float * (Colref.t * Histogram.t) option =
  match pred with
  | Expr.Const (Datum.Bool true) | Expr.Slot (_, Datum.Bool true) -> (1.0, None)
  | Expr.Const (Datum.Bool false) | Expr.Slot (_, Datum.Bool false) -> (0.0, None)
  | Expr.Cmp (op, Expr.Col c, (Expr.Const v | Expr.Slot (_, v)))
  | Expr.Cmp (op, (Expr.Const v | Expr.Slot (_, v)), Expr.Col c) ->
      let op =
        match pred with
        | Expr.Cmp (_, (Expr.Const _ | Expr.Slot _), Expr.Col _) -> Expr.flip_cmp op
        | _ -> op
      in
      (match Relstats.col_hist stats c with
      | Some h when not (Histogram.is_empty h) ->
          let filtered = Histogram.select_cmp h op v in
          let total = Histogram.total_rows h in
          let sel =
            if total <= 0.0 then 1.0
            else Histogram.total_rows filtered /. total
          in
          (Float.min 1.0 sel, Some (c, filtered))
      | _ ->
          let sel =
            match op with
            | Expr.Eq -> 1.0 /. Relstats.col_ndv stats c
            | Expr.Neq -> 1.0 -. (1.0 /. Relstats.col_ndv stats c)
            | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> 1.0 /. 3.0
          in
          (sel, None))
  | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
      let na = Relstats.col_ndv stats a and nb = Relstats.col_ndv stats b in
      (1.0 /. Float.max 1.0 (Float.max na nb), None)
  | Expr.Cmp (_, Expr.Col _, Expr.Col _) -> (1.0 /. 3.0, None)
  | Expr.Cmp (op, Expr.Cast (e, _), rhs) ->
      conjunct_selectivity stats (Expr.Cmp (op, e, rhs))
  | Expr.Cmp (op, lhs, Expr.Cast (e, _)) ->
      conjunct_selectivity stats (Expr.Cmp (op, lhs, e))
  | Expr.Cmp _ -> (default_selectivity, None)
  | Expr.In_list (Expr.Col c, ds) -> (
      match Relstats.col_hist stats c with
      | Some h when not (Histogram.is_empty h) ->
          let total = Histogram.total_rows h in
          let sel =
            List.fold_left
              (fun acc v ->
                acc +. Histogram.selectivity_cmp h Expr.Eq v)
              0.0 ds
          in
          ignore total;
          (Float.min 1.0 sel, None)
      | _ ->
          let per = 1.0 /. Relstats.col_ndv stats c in
          (Float.min 1.0 (per *. float_of_int (List.length ds)), None))
  | Expr.In_list (_, ds) ->
      ( Float.min 1.0
          (default_eq_selectivity *. float_of_int (List.length ds)),
        None )
  | Expr.Like (_, pat) ->
      if String.length pat > 0 && pat.[0] <> '%' then
        (like_prefix_selectivity, None)
      else (like_contains_selectivity, None)
  | Expr.Is_null (Expr.Col c) -> (Relstats.col_null_frac stats c, None)
  | Expr.Is_null _ -> (0.01, None)
  | Expr.Not (Expr.Is_null (Expr.Col c)) ->
      (1.0 -. Relstats.col_null_frac stats c, None)
  | Expr.Not p ->
      let sel, _ = conjunct_selectivity stats p in
      (Float.max 0.0 (1.0 -. sel), None)
  | Expr.Or ps ->
      (* inclusion-exclusion under independence *)
      let miss =
        List.fold_left
          (fun acc p ->
            let sel, _ = conjunct_selectivity stats p in
            acc *. (1.0 -. sel))
          1.0 ps
      in
      (1.0 -. miss, None)
  | Expr.And ps ->
      let sel =
        List.fold_left
          (fun acc p ->
            let s, _ = conjunct_selectivity stats p in
            acc *. s)
          1.0 ps
      in
      (sel, None)
  | Expr.Col c when Colref.ty c = Dtype.Bool -> (0.5, None)
  | Expr.Subplan sp -> (
      match sp.Expr.sp_kind with
      | Expr.Sp_exists | Expr.Sp_in _ -> (0.5, None)
      | Expr.Sp_not_exists | Expr.Sp_not_in _ -> (0.5, None)
      | Expr.Sp_scalar -> (default_selectivity, None))
  | _ -> (default_selectivity, None)

(* Apply a (possibly conjunctive) predicate: returns refined statistics. *)
let apply_pred (stats : Relstats.t) (pred : Expr.scalar) : Relstats.t =
  let conjuncts = Scalar_ops.conjuncts pred in
  List.fold_left
    (fun acc c ->
      let sel, refinement = conjunct_selectivity acc c in
      let sel = Float.min 1.0 (Float.max 0.0 sel) in
      match refinement with
      | Some (col, filtered) ->
          (* scale every other column by sel, then pin the filtered column *)
          let scaled = Relstats.scale acc sel in
          Relstats.set_col scaled col filtered
      | None -> Relstats.scale acc sel)
    stats conjuncts

let selectivity (stats : Relstats.t) (pred : Expr.scalar) : float =
  let before = Relstats.rows stats in
  if before <= 0.0 then 1.0
  else
    let after = Relstats.rows (apply_pred stats pred) in
    Float.min 1.0 (Float.max 0.0 (after /. before))
