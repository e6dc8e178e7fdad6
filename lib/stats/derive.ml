open Ir

(* Statistics derivation for logical operators (paper §4.1 step 2).

   Derivation is bottom-up: given the statistics objects of child groups,
   compute the parent group's statistics. Base-table statistics come from the
   metadata accessor through the [base] callback; CTE consumer statistics come
   from the [cte] callback (the anchor records its producer's statistics). *)

let add_distinct_hist stats col =
  (* histogram of a column after duplicate elimination: one row per value *)
  match Relstats.col_hist stats col with
  | Some h ->
      let buckets =
        List.map
          (fun (b : Histogram.bucket) -> { b with Histogram.rows = b.Histogram.ndv })
          h.Histogram.buckets
      in
      Some { Histogram.buckets; null_rows = Float.min 1.0 h.Histogram.null_rows }
  | None -> None

let default_key_sel = 0.1

(* Cardinality and column statistics of an inner equi-join. *)
let inner_join_stats (outer : Relstats.t) (inner : Relstats.t)
    (cond : Expr.scalar) ~outer_cols ~inner_cols : Relstats.t =
  let keys, residual =
    Scalar_ops.extract_equi_keys ~outer_cols ~inner_cols cond
  in
  let r1 = Float.max 1.0 (Relstats.rows outer)
  and r2 = Float.max 1.0 (Relstats.rows inner) in
  let cross = r1 *. r2 in
  (* first column-to-column key uses histogram join; remaining keys apply
     1/max(ndv) under independence *)
  let col_keys =
    List.filter_map
      (fun (a, b) ->
        match (a, b) with Expr.Col x, Expr.Col y -> Some (x, y) | _ -> None)
      keys
  in
  let join_rows, key_hist =
    match col_keys with
    | (x, y) :: _ -> (
        match (Relstats.col_hist outer x, Relstats.col_hist inner y) with
        | Some hx, Some hy
          when (not (Histogram.is_empty hx)) && not (Histogram.is_empty hy) ->
            let jc, h = Histogram.join_eq hx hy in
            (jc, Some (x, y, h))
        | _ ->
            let sel =
              1.0
              /. Float.max 1.0
                   (Float.max (Relstats.col_ndv outer x)
                      (Relstats.col_ndv inner y))
            in
            (cross *. sel, None))
    | [] ->
        (* no column equi-keys: treat all keys as generic equalities *)
        if keys = [] then (cross, None)
        else (cross *. (default_key_sel *. float_of_int 1), None)
  in
  let join_rows =
    (* each extra key pair multiplies by 1/max(ndv) *)
    let extra = match col_keys with [] -> [] | _ :: rest -> rest in
    List.fold_left
      (fun rows (x, y) ->
        rows
        /. Float.max 1.0
             (Float.max (Relstats.col_ndv outer x) (Relstats.col_ndv inner y)))
      join_rows extra
  in
  let join_rows = Float.max 0.0 (Float.min cross join_rows) in
  (* scale child histograms by their fan-outs and merge *)
  let outer_scaled = Relstats.scale outer (join_rows /. r1) in
  let inner_scaled = Relstats.scale inner (join_rows /. r2) in
  let merged =
    Relstats.set_rows (Relstats.merge_cols outer_scaled inner_scaled) join_rows
  in
  let merged =
    match key_hist with
    | Some (x, y, h) ->
        let m = Relstats.set_col merged x h in
        Relstats.set_col m y h
    | None -> merged
  in
  (* residual (non-equi) predicates *)
  List.fold_left Selectivity.apply_pred merged residual

let join_stats (kind : Expr.join_kind) (cond : Expr.scalar)
    (outer : Relstats.t) (inner : Relstats.t) ~outer_cols ~inner_cols :
    Relstats.t =
  let ij = inner_join_stats outer inner cond ~outer_cols ~inner_cols in
  let r_out = Relstats.rows outer in
  match kind with
  | Expr.Inner -> ij
  | Expr.Left_outer ->
      Relstats.set_rows ij (Float.max (Relstats.rows ij) r_out)
  | Expr.Full_outer ->
      Relstats.set_rows ij
        (Float.max (Relstats.rows ij)
           (Float.max r_out (Relstats.rows inner)))
  | Expr.Semi ->
      let matched = Float.min r_out (Relstats.rows ij) in
      Relstats.set_rows
        (Relstats.scale outer (matched /. Float.max 1.0 r_out))
        matched
  | Expr.Anti_semi ->
      let matched = Float.min r_out (Relstats.rows ij) in
      let remaining = Float.max 1.0 (r_out -. matched) in
      Relstats.set_rows
        (Relstats.scale outer (remaining /. Float.max 1.0 r_out))
        remaining

let gb_agg_stats (keys : Colref.t list) (aggs : Expr.agg list)
    (child : Relstats.t) : Relstats.t =
  let rows = Float.max 1.0 (Relstats.rows child) in
  let groups =
    match keys with
    | [] -> 1.0
    | keys ->
        let prod =
          List.fold_left
            (fun acc k -> acc *. Relstats.col_ndv child k)
            1.0 keys
        in
        Float.min rows prod
  in
  let base = Relstats.set_rows Relstats.empty groups in
  let with_keys =
    List.fold_left
      (fun acc k ->
        match add_distinct_hist child k with
        | Some h -> Relstats.set_col acc k h
        | None -> acc)
      base keys
  in
  (* aggregate outputs: give numeric outputs a broad default histogram *)
  List.fold_left
    (fun acc (a : Expr.agg) ->
      let h =
        Histogram.uniform ~lo:(Datum.Int 0)
          ~hi:(Datum.Int 1_000_000) ~rows:groups ~ndv:groups
      in
      Relstats.set_col acc a.Expr.agg_out h)
    with_keys aggs

(* Map statistics of child columns onto set-operation output columns
   (positional correspondence). *)
let set_op_stats (kind : Expr.set_kind) (out_cols : Colref.t list)
    (children : Relstats.t list) (child_schemas : Colref.t list list) :
    Relstats.t =
  let remapped =
    List.map2
      (fun (st : Relstats.t) schema ->
        List.map2
          (fun out_c child_c ->
            (out_c, Relstats.col_hist st child_c))
          out_cols schema
        |> List.fold_left
             (fun acc (c, h) ->
               match h with Some h -> Relstats.set_col acc c h | None -> acc)
             (Relstats.set_rows Relstats.empty (Relstats.rows st)))
      children child_schemas
  in
  match (kind, remapped) with
  | Expr.Union_all, sts ->
      let rows = List.fold_left (fun a s -> a +. Relstats.rows s) 0.0 sts in
      let merged =
        List.fold_left
          (fun acc s -> Relstats.merge_cols acc s)
          (Relstats.set_rows Relstats.empty rows)
          sts
      in
      Relstats.set_rows merged rows
  | Expr.Union_distinct, sts ->
      let rows = List.fold_left (fun a s -> a +. Relstats.rows s) 0.0 sts in
      let ndv_cap =
        List.fold_left
          (fun acc c ->
            acc
            *. List.fold_left
                 (fun m s -> Float.max m (Relstats.col_ndv s c))
                 1.0 sts)
          1.0 out_cols
      in
      Relstats.set_rows (List.hd sts) (Float.min rows ndv_cap)
  | Expr.Intersect, s1 :: s2 :: _ ->
      Relstats.set_rows s1 (Float.min (Relstats.rows s1) (Relstats.rows s2) *. 0.5)
  | Expr.Except, s1 :: s2 :: _ ->
      Relstats.set_rows s1
        (Float.max 1.0 (Relstats.rows s1 -. (0.5 *. Relstats.rows s2)))
  | _, [] | _, [ _ ] -> Relstats.empty

(* The segment count that bounds the output of Partial (per-segment)
   aggregates: each segment emits at most one row per group. Fixed, whatever
   cluster size the cost model prices for. *)
let partial_agg_segments = 16.0

(* Statistics of a logical operator given children statistics. *)
let derive ~(base : Table_desc.t -> Relstats.t)
    ~(cte : int -> Relstats.t option) (op : Expr.logical)
    ~(children : Relstats.t list) ~(child_schemas : Colref.t list list) :
    Relstats.t =
  let child n =
    match List.nth_opt children n with
    | Some s -> s
    | None -> Gpos.Gpos_error.internal "stats derive: missing child %d" n
  in
  let schema n =
    match List.nth_opt child_schemas n with
    | Some s -> s
    | None -> Gpos.Gpos_error.internal "stats derive: missing child schema %d" n
  in
  match op with
  | Expr.L_get td -> base td
  | Expr.L_select pred -> Selectivity.apply_pred (child 0) pred
  | Expr.L_project projs ->
      let c = child 0 in
      let rows = Relstats.rows c in
      List.fold_left
        (fun acc (p : Expr.proj) ->
          match p.Expr.proj_expr with
          | Expr.Col src -> (
              match Relstats.col_hist c src with
              | Some h -> Relstats.set_col acc p.Expr.proj_out h
              | None -> acc)
          | _ -> acc)
        (Relstats.set_rows Relstats.empty rows)
        projs
  | Expr.L_join (kind, cond) ->
      join_stats kind cond (child 0) (child 1)
        ~outer_cols:(Colref.Set.of_list (schema 0))
        ~inner_cols:(Colref.Set.of_list (schema 1))
  | Expr.L_gb_agg (phase, keys, aggs) -> (
      let one_phase = gb_agg_stats keys aggs (child 0) in
      match phase with
      | Expr.One_phase | Expr.Final -> one_phase
      | Expr.Partial ->
          (* per-segment aggregation: up to [partial_agg_segments] rows
             per group *)
          let rows =
            Float.min (Relstats.rows (child 0))
              (Relstats.rows one_phase *. partial_agg_segments)
          in
          Relstats.set_rows one_phase rows)
  | Expr.L_window (_, _, wfuncs) ->
      (* rows pass through; function outputs get broad defaults *)
      let c = child 0 in
      List.fold_left
        (fun acc (w : Expr.wfunc) ->
          let rows = Relstats.rows c in
          Relstats.set_col acc w.Expr.wf_out
            (Histogram.uniform ~lo:(Datum.Int 0) ~hi:(Datum.Int 1_000_000)
               ~rows ~ndv:(Float.max 1.0 rows)))
        c wfuncs
  | Expr.L_limit (_, offset, count, _) -> (
      let c = child 0 in
      match count with
      | None -> c
      | Some cnt ->
          let rows =
            Float.max 0.0
              (Float.min (Relstats.rows c -. float_of_int offset)
                 (float_of_int cnt))
          in
          Relstats.set_rows c rows)
  | Expr.L_apply (kind, _) -> (
      let outer = child 0 in
      match kind with
      | Expr.Apply_scalar out_col ->
          (* one scalar value joined to every outer row *)
          let inner = child 1 in
          let with_col =
            match
              List.nth_opt (schema 1) 0
              |> Option.map (Relstats.col_hist inner)
            with
            | Some (Some h) -> Relstats.set_col outer out_col h
            | _ -> outer
          in
          with_col
      | Expr.Apply_exists | Expr.Apply_in _ -> Relstats.scale outer 0.5
      | Expr.Apply_not_exists | Expr.Apply_not_in _ -> Relstats.scale outer 0.5)
  | Expr.L_cte_producer _ -> child 0
  | Expr.L_cte_anchor _ -> child 1
  | Expr.L_cte_consumer (id, cols) -> (
      match cte id with
      | Some producer_stats ->
          (* remap is identity: consumers reuse producer column ids *)
          ignore cols;
          producer_stats
      | None ->
          Relstats.set_rows Relstats.empty 1000.0)
  | Expr.L_set (kind, cols) -> set_op_stats kind cols children child_schemas
  | Expr.L_const_table (cols, rows) ->
      let n = float_of_int (List.length rows) in
      let stats = Relstats.set_rows Relstats.empty n in
      List.fold_left
        (fun acc c ->
          let idx = Colref.position_exn cols c in
          let values = List.map (fun r -> List.nth r idx) rows in
          Relstats.set_col acc c (Histogram.build values))
        stats cols

(* "Promise" of a group expression for statistics derivation (paper §4.1):
   expressions with fewer join conditions propagate less estimation error.
   Higher promise = preferred. *)
let promise (op : Expr.logical) : int =
  match op with
  | Expr.L_join (_, cond) -> -List.length (Scalar_ops.conjuncts cond)
  | Expr.L_apply _ -> -10
  | _ -> 0
