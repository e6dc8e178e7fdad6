open Ir

(* Logical denotation of rule outputs: maps a physical alternative back to
   the logical tree it claims to implement, so the Exec.Naive oracle can
   compare result bags. Memo group leaves are resolved through a
   representative tree per group ([rep]); operators with no logical
   counterpart (motions, partition selectors) raise [Not_denotable]. *)

exception Not_denotable of string

let not_denotable fmt = Printf.ksprintf (fun s -> raise (Not_denotable s)) fmt

(* The rows a pruned scan reads: any kept partition's range contains the
   partitioning column. An empty kept list reads nothing. *)
let partition_predicate (td : Table_desc.t) (kept : int list) : Expr.scalar =
  let pc =
    match td.Table_desc.part_col with
    | Some pc -> pc
    | None -> not_denotable "partition list on unpartitioned %s" td.Table_desc.name
  in
  let ranges =
    List.filter
      (fun (p : Table_desc.part) -> List.mem p.Table_desc.part_id kept)
      td.Table_desc.parts
  in
  match ranges with
  | [] -> Expr.Const (Datum.Bool false)
  | _ ->
      Expr.Or
        (List.map
           (fun (p : Table_desc.part) ->
             Expr.And
               [
                 Expr.Cmp (Expr.Ge, Expr.Col pc, Expr.Const p.Table_desc.lo);
                 Expr.Cmp (Expr.Lt, Expr.Col pc, Expr.Const p.Table_desc.hi);
               ])
           ranges)

let denote_physical (p : Expr.physical) (children : Ltree.t list) : Ltree.t =
  let child n =
    match List.nth_opt children n with
    | Some c -> c
    | None -> not_denotable "missing child %d" n
  in
  let select_over conjs t =
    match conjs with
    | [] -> t
    | _ -> Ltree.make (Expr.L_select (Scalar_ops.conjoin conjs)) [ t ]
  in
  match p with
  | Expr.P_table_scan (td, parts, pred) ->
      let base = Ltree.leaf (Expr.L_get td) in
      let part_conj =
        match parts with
        | None -> []
        | Some kept -> [ partition_predicate td kept ]
      in
      select_over (part_conj @ Option.to_list pred) base
  | Expr.P_index_scan (td, idx, cmp, v, residual) ->
      let base = Ltree.leaf (Expr.L_get td) in
      select_over
        (Expr.Cmp (cmp, Expr.Col idx.Table_desc.idx_col, v)
         :: Option.to_list residual)
        base
  | Expr.P_filter pred -> Ltree.make (Expr.L_select pred) [ child 0 ]
  | Expr.P_project projs -> Ltree.make (Expr.L_project projs) [ child 0 ]
  | Expr.P_hash_join (kind, keys, residual) ->
      let conjs =
        List.map (fun (o, i) -> Expr.Cmp (Expr.Eq, o, i)) keys
        @ Option.to_list residual
      in
      Ltree.make (Expr.L_join (kind, Scalar_ops.conjoin conjs)) [ child 0; child 1 ]
  | Expr.P_merge_join (kind, keys, residual) ->
      let conjs =
        List.map (fun (o, i) -> Expr.Cmp (Expr.Eq, Expr.Col o, Expr.Col i)) keys
        @ Option.to_list residual
      in
      Ltree.make (Expr.L_join (kind, Scalar_ops.conjoin conjs)) [ child 0; child 1 ]
  | Expr.P_nl_join (kind, cond) ->
      Ltree.make (Expr.L_join (kind, cond)) [ child 0; child 1 ]
  | Expr.P_window (partition, order, wfuncs) ->
      Ltree.make (Expr.L_window (partition, order, wfuncs)) [ child 0 ]
  | Expr.P_hash_agg (phase, keys, aggs) | Expr.P_stream_agg (phase, keys, aggs)
    ->
      Ltree.make (Expr.L_gb_agg (phase, keys, aggs)) [ child 0 ]
  | Expr.P_sort _ -> child 0 (* bag semantics: order is a property, not content *)
  | Expr.P_limit (sort, offset, count, slots) ->
      Ltree.make (Expr.L_limit (sort, offset, count, slots)) [ child 0 ]
  | Expr.P_motion m -> not_denotable "motion %s" (Physical_ops.motion_to_string m)
  | Expr.P_cte_producer id -> Ltree.make (Expr.L_cte_producer id) [ child 0 ]
  | Expr.P_cte_consumer (id, cols) -> Ltree.leaf (Expr.L_cte_consumer (id, cols))
  | Expr.P_sequence id -> Ltree.make (Expr.L_cte_anchor id) [ child 0; child 1 ]
  | Expr.P_set (kind, cols) -> Ltree.make (Expr.L_set (kind, cols)) children
  | Expr.P_const_table (cols, rows) -> Ltree.leaf (Expr.L_const_table (cols, rows))
  | Expr.P_partition_selector _ -> not_denotable "partition selector"

(* Denote a rule result: group leaves resolve through [rep] (the first tree
   inserted into that group), inline nodes recurse. *)
let rec of_mexpr ~(rep : int -> Ltree.t) (m : Memolib.Mexpr.t) : Ltree.t =
  let children =
    List.map
      (function
        | Memolib.Mexpr.Group g -> rep g
        | Memolib.Mexpr.Node n -> of_mexpr ~rep n)
      m.Memolib.Mexpr.children
  in
  match m.Memolib.Mexpr.op with
  | Expr.Logical l -> Ltree.make l children
  | Expr.Physical p -> denote_physical p children

let child_output_cols ~(rep : int -> Ltree.t)
    ~(group_cols : int -> Colref.t list) (m : Memolib.Mexpr.t) :
    Colref.t list list =
  List.map
    (function
      | Memolib.Mexpr.Group g -> group_cols g
      | Memolib.Mexpr.Node n -> Ltree.output_cols (of_mexpr ~rep n))
    m.Memolib.Mexpr.children
