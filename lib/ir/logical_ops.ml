(* Operations on logical operators. Output-column derivation is parameterized
   by the children's output columns (supplied by the Memo's group properties). *)

open Expr

let arity = function
  | L_get _ | L_cte_consumer _ | L_const_table _ -> 0
  | L_select _ | L_project _ | L_gb_agg _ | L_limit _ | L_cte_producer _
  | L_window _ ->
      1
  | L_join _ | L_apply _ | L_cte_anchor _ -> 2
  | L_set (_, _) -> 2

(* Output columns, in order, given each child's output columns. *)
let output_cols (op : logical) (children : Colref.t list list) : Colref.t list =
  let child n =
    match List.nth_opt children n with
    | Some c -> c
    | None -> Gpos.Gpos_error.internal "logical op missing child %d" n
  in
  match op with
  | L_get td -> td.Table_desc.cols
  | L_select _ -> child 0
  | L_project projs -> List.map (fun p -> p.proj_out) projs
  | L_join ((Inner | Left_outer | Full_outer), _) -> child 0 @ child 1
  | L_join ((Semi | Anti_semi), _) -> child 0
  | L_gb_agg (_, keys, aggs) -> keys @ List.map (fun a -> a.agg_out) aggs
  | L_window (_, _, wfuncs) -> child 0 @ List.map (fun w -> w.wf_out) wfuncs
  | L_limit _ -> child 0
  | L_apply (Apply_scalar c, _) -> child 0 @ [ c ]
  | L_apply ((Apply_exists | Apply_not_exists), _) -> child 0
  | L_apply ((Apply_in _ | Apply_not_in _), _) -> child 0
  | L_cte_producer _ -> child 0
  | L_cte_anchor _ -> child 1
  | L_cte_consumer (_, cols) -> cols
  | L_set (_, cols) -> cols
  | L_const_table (cols, _) -> cols

(* Columns an operator's own payload references (used to validate trees and to
   drive column pruning). *)
let used_cols (op : logical) : Colref.Set.t =
  match op with
  | L_get _ | L_cte_producer _ | L_cte_anchor _ | L_cte_consumer _
  | L_const_table _ ->
      Colref.Set.empty
  | L_select pred -> Scalar_ops.free_cols pred
  | L_project projs ->
      Scalar_ops.free_cols_of_list (List.map (fun p -> p.proj_expr) projs)
  | L_join (_, cond) -> Scalar_ops.free_cols cond
  | L_gb_agg (_, keys, aggs) ->
      let arg_cols =
        Scalar_ops.free_cols_of_list
          (List.filter_map (fun a -> a.agg_arg) aggs)
      in
      Colref.Set.union (Colref.Set.of_list keys) arg_cols
  | L_window (partition, order, wfuncs) ->
      Colref.Set.union
        (Colref.Set.of_list (partition @ Sortspec.cols order))
        (Scalar_ops.free_cols_of_list (List.filter_map (fun w -> w.wf_arg) wfuncs))
  | L_limit (sort, _, _, _) -> Colref.Set.of_list (Sortspec.cols sort)
  | L_apply ((Apply_in (e, _) | Apply_not_in (e, _)), outer) ->
      Colref.Set.union (Scalar_ops.free_cols e) (Colref.Set.of_list outer)
  | L_apply (_, outer) -> Colref.Set.of_list outer
  | L_set _ -> Colref.Set.empty

(* Root shapes: one tag per logical constructor, payload ignored. Rules
   declare the shapes their root pattern can match; the engine pre-filters
   rule applications with a bitmap test instead of running the rule body. *)
type shape =
  | S_get
  | S_select
  | S_project
  | S_join
  | S_gb_agg
  | S_window
  | S_limit
  | S_apply
  | S_cte_producer
  | S_cte_anchor
  | S_cte_consumer
  | S_set
  | S_const_table

let nshapes = 13

let all_shapes =
  [
    S_get;
    S_select;
    S_project;
    S_join;
    S_gb_agg;
    S_window;
    S_limit;
    S_apply;
    S_cte_producer;
    S_cte_anchor;
    S_cte_consumer;
    S_set;
    S_const_table;
  ]

let shape_tag = function
  | S_get -> 0
  | S_select -> 1
  | S_project -> 2
  | S_join -> 3
  | S_gb_agg -> 4
  | S_window -> 5
  | S_limit -> 6
  | S_apply -> 7
  | S_cte_producer -> 8
  | S_cte_anchor -> 9
  | S_cte_consumer -> 10
  | S_set -> 11
  | S_const_table -> 12

let shape_of (op : logical) : shape =
  match op with
  | L_get _ -> S_get
  | L_select _ -> S_select
  | L_project _ -> S_project
  | L_join _ -> S_join
  | L_gb_agg _ -> S_gb_agg
  | L_window _ -> S_window
  | L_limit _ -> S_limit
  | L_apply _ -> S_apply
  | L_cte_producer _ -> S_cte_producer
  | L_cte_anchor _ -> S_cte_anchor
  | L_cte_consumer _ -> S_cte_consumer
  | L_set _ -> S_set
  | L_const_table _ -> S_const_table

let tag (op : logical) : int = shape_tag (shape_of op)

(* Bitmap over shape tags; [shape_mask []] is the empty mask, and a mask
   covering every shape is [lnot 0] land [all_shapes_mask]. *)
let shape_mask (shapes : shape list) : int =
  List.fold_left (fun m s -> m lor (1 lsl shape_tag s)) 0 shapes

let all_shapes_mask = (1 lsl nshapes) - 1

(* Shape-domain set operations. Masks form a finite lattice (the powerset of
   the 13 shapes); lib/interact's abstract fixpoints iterate on it, so the
   operations live here next to the representation. *)
let mask_union a b = a lor b
let mask_inter a b = a land b
let mask_diff a b = a land lnot b land all_shapes_mask
let mask_mem s m = m land (1 lsl shape_tag s) <> 0
let mask_subset a b = a land lnot b land all_shapes_mask = 0

let shape_to_string = function
  | S_get -> "Get"
  | S_select -> "Select"
  | S_project -> "Project"
  | S_join -> "Join"
  | S_gb_agg -> "GbAgg"
  | S_window -> "Window"
  | S_limit -> "Limit"
  | S_apply -> "Apply"
  | S_cte_producer -> "CTEProducer"
  | S_cte_anchor -> "CTEAnchor"
  | S_cte_consumer -> "CTEConsumer"
  | S_set -> "SetOp"
  | S_const_table -> "ConstTable"

let shapes_of_mask (m : int) : shape list =
  List.filter (fun s -> mask_mem s m) all_shapes

let mask_to_string (m : int) : string =
  if m = all_shapes_mask then "*"
  else if m = 0 then "-"
  else String.concat "," (List.map shape_to_string (shapes_of_mask m))

let agg_to_string (a : agg) =
  match a.agg_kind with
  | Count_star ->
      Printf.sprintf "count(*) AS %s" (Colref.to_string a.agg_out)
  | _ ->
      let arg =
        match a.agg_arg with
        | None -> "*"
        | Some e ->
            (if a.agg_distinct then "DISTINCT " else "") ^ Scalar_ops.to_string e
      in
      Printf.sprintf "%s(%s) AS %s" (agg_kind_to_string a.agg_kind) arg
        (Colref.to_string a.agg_out)

let wfunc_to_string (w : wfunc) =
  Printf.sprintf "%s(%s) AS %s"
    (wkind_to_string w.wf_kind)
    (match w.wf_arg with None -> "" | Some e -> Scalar_ops.to_string e)
    (Colref.to_string w.wf_out)

let window_to_string partition order wfuncs =
  Printf.sprintf "Window(partition=[%s], order=%s, [%s])"
    (String.concat ", " (List.map Colref.to_string partition))
    (Sortspec.to_string order)
    (String.concat ", " (List.map wfunc_to_string wfuncs))

let proj_to_string (p : proj) =
  Printf.sprintf "%s AS %s" (Scalar_ops.to_string p.proj_expr)
    (Colref.to_string p.proj_out)

let apply_kind_to_string = function
  | Apply_scalar c -> "Scalar->" ^ Colref.to_string c
  | Apply_exists -> "Exists"
  | Apply_not_exists -> "NotExists"
  | Apply_in (e, c) ->
      Scalar_ops.to_string e ^ " In->" ^ Colref.to_string c
  | Apply_not_in (e, c) ->
      Scalar_ops.to_string e ^ " NotIn->" ^ Colref.to_string c

let to_string (op : logical) =
  match op with
  | L_get td -> "Get(" ^ td.Table_desc.name ^ ")"
  | L_select pred -> "Select(" ^ Scalar_ops.to_string pred ^ ")"
  | L_project projs ->
      "Project(" ^ String.concat ", " (List.map proj_to_string projs) ^ ")"
  | L_join (k, cond) ->
      Printf.sprintf "%sJoin(%s)" (join_kind_to_string k)
        (Scalar_ops.to_string cond)
  | L_gb_agg (phase, keys, aggs) ->
      Printf.sprintf "%sGbAgg([%s], [%s])"
        (agg_phase_to_string phase)
        (String.concat ", " (List.map Colref.to_string keys))
        (String.concat ", " (List.map agg_to_string aggs))
  | L_window (partition, order, wfuncs) -> window_to_string partition order wfuncs
  | L_limit (sort, offset, count, _) ->
      Printf.sprintf "Limit(%s, offset=%d, count=%s)" (Sortspec.to_string sort)
        offset
        (match count with None -> "all" | Some c -> string_of_int c)
  | L_apply (k, outer) ->
      Printf.sprintf "Apply[%s](corr=%s)" (apply_kind_to_string k)
        (String.concat "," (List.map Colref.to_string outer))
  | L_cte_anchor id -> Printf.sprintf "CTEAnchor(%d)" id
  | L_cte_producer id -> Printf.sprintf "CTEProducer(%d)" id
  | L_cte_consumer (id, cols) ->
      Printf.sprintf "CTEConsumer(%d)[%s]" id
        (String.concat ", " (List.map Colref.to_string cols))
  | L_set (k, _) -> set_kind_to_string k
  | L_const_table (cols, rows) ->
      Printf.sprintf "ConstTable(%d cols, %d rows)" (List.length cols)
        (List.length rows)

(* Fingerprint of the operator payload (children handled by the Memo). *)
let fingerprint (op : logical) : int =
  let h xs = Hashtbl.hash xs in
  match op with
  | L_get td -> h (0, td.Table_desc.name, List.map Colref.id td.Table_desc.cols)
  | L_select pred -> h (1, Scalar_ops.fingerprint pred)
  | L_project projs ->
      h
        ( 2,
          List.map
            (fun p -> (Scalar_ops.fingerprint p.proj_expr, Colref.id p.proj_out))
            projs )
  | L_join (k, cond) -> h (3, k, Scalar_ops.fingerprint cond)
  | L_gb_agg (phase, keys, aggs) ->
      h (4, phase, List.map Colref.id keys, Hashtbl.hash aggs)
  | L_window (partition, order, wfuncs) ->
      h (12, List.map Colref.id partition, Hashtbl.hash order, Hashtbl.hash wfuncs)
  | L_limit (sort, offset, count, _) -> h (5, Hashtbl.hash sort, offset, count)
  | L_apply (k, outer) -> h (6, Hashtbl.hash k, List.map Colref.id outer)
  | L_cte_anchor id -> h (7, id)
  | L_cte_producer id -> h (11, id)
  | L_cte_consumer (id, cols) -> h (8, id, List.map Colref.id cols)
  | L_set (k, cols) -> h (9, k, List.map Colref.id cols)
  | L_const_table (cols, rows) -> h (10, List.map Colref.id cols, Hashtbl.hash rows)

let equal (a : logical) (b : logical) = Stdlib.compare a b = 0
