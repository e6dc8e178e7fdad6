open Ir

(* Implementation rules (paper §4.1 step 3): create physical implementations
   of logical expressions — Get2Scan, InnerJoin2HashJoin, InnerJoin2NLJoin,
   GbAgg2HashAgg and friends. *)

module Memo = Memolib.Memo
module Mexpr = Memolib.Mexpr

let get2scan =
  Rule.make ~name:"Get2Scan" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_get ] ~produces:[] (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_get td) ->
          [ Mexpr.physical_of_groups (Expr.P_table_scan (td, None, None)) [] ]
      | _ -> [])

let select2filter =
  Rule.make ~name:"Select2Filter" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_select ] ~produces:[]
    (fun _ctx _memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_select pred), [ g ] ->
          [ Mexpr.physical_of_groups (Expr.P_filter pred) [ g ] ]
      | _ -> [])

(* Select(pred, Get(T)) => TableScan(T) with the predicate pushed into the
   scan and, for partitioned tables, statically eliminated partitions. *)
let select2scan =
  Rule.make ~name:"Select2Scan" ~kind:Rule.Implementation ~promise:5
    ~shapes:[ Logical_ops.S_select ] ~produces:[]
    (fun _ctx memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_select pred), [ g ] ->
          Rule.child_logicals memo g
          |> List.filter_map (fun (_, op) ->
                 match op with
                 | Expr.L_get td ->
                     let parts = Partition.prune td pred in
                     Some
                       (Mexpr.physical_of_groups
                          (Expr.P_table_scan (td, parts, Some pred))
                          [])
                 | _ -> None)
      | _ -> [])

(* Select(pred, Get(T)) => IndexScan when a conjunct constrains an indexed
   column with a constant; delivers the index order. *)
let select2index_scan =
  Rule.make ~name:"Select2IndexScan" ~kind:Rule.Implementation ~promise:5
    ~shapes:[ Logical_ops.S_select ] ~produces:[]
    (fun _ctx memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_select pred), [ g ] ->
          Rule.child_logicals memo g
          |> List.concat_map (fun (_, op) ->
                 match op with
                 | Expr.L_get td ->
                     let conjuncts = Scalar_ops.conjuncts pred in
                     List.concat_map
                       (fun (idx : Table_desc.index) ->
                         List.filter_map
                           (fun c ->
                             match c with
                             | Expr.Cmp
                                 (cmp, Expr.Col col, ((Expr.Const _ | Expr.Slot _) as v))
                               when Colref.equal col idx.Table_desc.idx_col
                                    && cmp <> Expr.Neq ->
                                 let residual =
                                   List.filter (fun c' -> c' <> c) conjuncts
                                 in
                                 let res =
                                   if residual = [] then None
                                   else Some (Scalar_ops.conjoin residual)
                                 in
                                 Some
                                   (Mexpr.physical_of_groups
                                      (Expr.P_index_scan (td, idx, cmp, v, res))
                                      [])
                             | _ -> None)
                           conjuncts)
                       td.Table_desc.indexes
                 | _ -> [])
      | _ -> [])

let project_impl =
  Rule.make ~name:"Project2ComputeScalar" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_project ] ~produces:[]
    (fun _ctx _memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_project projs), [ g ] ->
          [ Mexpr.physical_of_groups (Expr.P_project projs) [ g ] ]
      | _ -> [])

let join2hashjoin =
  Rule.make ~name:"Join2HashJoin" ~kind:Rule.Implementation ~promise:8
    ~shapes:[ Logical_ops.S_join ] ~produces:[]
    (fun _ctx memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_join (kind, cond)), [ g1; g2 ] ->
          let keys, residual =
            Scalar_ops.extract_equi_keys
              ~outer_cols:(Rule.group_out_cols memo g1)
              ~inner_cols:(Rule.group_out_cols memo g2)
              cond
          in
          if keys = [] then []
          else
            let res =
              if residual = [] then None else Some (Scalar_ops.conjoin residual)
            in
            [
              Mexpr.physical_of_groups
                (Expr.P_hash_join (kind, keys, res))
                [ g1; g2 ];
            ]
      | _ -> [])

let join2nljoin =
  Rule.make ~name:"Join2NLJoin" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_join ] ~produces:[] (fun _ctx _memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_join (kind, cond)), [ g1; g2 ] when kind <> Expr.Full_outer
        ->
          [ Mexpr.physical_of_groups (Expr.P_nl_join (kind, cond)) [ g1; g2 ] ]
      | _ -> [])

let join2mergejoin =
  Rule.make ~name:"Join2MergeJoin" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_join ] ~produces:[]
    (fun _ctx memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_join (Expr.Inner, cond)), [ g1; g2 ] ->
          let keys, residual =
            Scalar_ops.extract_equi_keys
              ~outer_cols:(Rule.group_out_cols memo g1)
              ~inner_cols:(Rule.group_out_cols memo g2)
              cond
          in
          let col_keys =
            List.filter_map
              (fun (a, b) ->
                match (a, b) with
                | Expr.Col x, Expr.Col y -> Some (x, y)
                | _ -> None)
              keys
          in
          if col_keys = [] || List.length col_keys <> List.length keys then []
          else
            let res =
              if residual = [] then None else Some (Scalar_ops.conjoin residual)
            in
            [
              Mexpr.physical_of_groups
                (Expr.P_merge_join (Expr.Inner, col_keys, res))
                [ g1; g2 ];
            ]
      | _ -> [])

let gbagg2hashagg =
  Rule.make ~name:"GbAgg2HashAgg" ~kind:Rule.Implementation ~promise:5
    ~shapes:[ Logical_ops.S_gb_agg ] ~produces:[]
    (fun _ctx _memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_gb_agg (phase, keys, aggs)), [ g ] ->
          [
            Mexpr.physical_of_groups (Expr.P_hash_agg (phase, keys, aggs)) [ g ];
          ]
      | _ -> [])

let gbagg2streamagg =
  Rule.make ~name:"GbAgg2StreamAgg" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_gb_agg ] ~produces:[]
    (fun _ctx _memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_gb_agg (phase, keys, aggs)), [ g ] when keys <> [] ->
          [
            Mexpr.physical_of_groups
              (Expr.P_stream_agg (phase, keys, aggs))
              [ g ];
          ]
      | _ -> [])

let window_impl =
  Rule.make ~name:"ImplementWindow" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_window ] ~produces:[]
    (fun _ctx _memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_window (partition, order, wfuncs)), [ g ] ->
          [
            Mexpr.physical_of_groups
              (Expr.P_window (partition, order, wfuncs))
              [ g ];
          ]
      | _ -> [])

let limit_impl =
  Rule.make ~name:"Limit2Limit" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_limit ] ~produces:[] (fun _ctx _memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_limit (sort, offset, count, slots)), [ g ] ->
          [ Mexpr.physical_of_groups (Expr.P_limit (sort, offset, count, slots)) [ g ] ]
      | _ -> [])

let cte_anchor2sequence =
  Rule.make ~name:"CTEAnchor2Sequence" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_cte_anchor ] ~produces:[]
    (fun _ctx _memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_cte_anchor id), [ gp; gm ] ->
          [ Mexpr.physical_of_groups (Expr.P_sequence id) [ gp; gm ] ]
      | _ -> [])

let cte_producer_impl =
  Rule.make ~name:"ImplementCTEProducer" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_cte_producer ] ~produces:[]
    (fun _ctx _memo ge ->
      match (Rule.logical_op ge, ge.Memo.ge_children) with
      | Some (Expr.L_cte_producer id), [ g ] ->
          [ Mexpr.physical_of_groups (Expr.P_cte_producer id) [ g ] ]
      | _ -> [])

let cte_consumer_impl =
  Rule.make ~name:"ImplementCTEConsumer" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_cte_consumer ] ~produces:[]
    (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_cte_consumer (id, cols)) ->
          [ Mexpr.physical_of_groups (Expr.P_cte_consumer (id, cols)) [] ]
      | _ -> [])

let set_impl =
  Rule.make ~name:"ImplementSetOp" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_set ] ~produces:[]
    (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_set (kind, cols)) ->
          [
            Mexpr.of_groups
              (Expr.Physical (Expr.P_set (kind, cols)))
              ge.Memo.ge_children;
          ]
      | _ -> [])

let const_table_impl =
  Rule.make ~name:"ImplementConstTable" ~kind:Rule.Implementation
    ~shapes:[ Logical_ops.S_const_table ] ~produces:[]
    (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_const_table (cols, rows)) ->
          [ Mexpr.physical_of_groups (Expr.P_const_table (cols, rows)) [] ]
      | _ -> [])

let all : Rule.t list =
  [
    get2scan;
    select2filter;
    select2scan;
    select2index_scan;
    project_impl;
    join2hashjoin;
    join2nljoin;
    join2mergejoin;
    gbagg2hashagg;
    gbagg2streamagg;
    window_impl;
    limit_impl;
    cte_anchor2sequence;
    cte_producer_impl;
    cte_consumer_impl;
    set_impl;
    const_table_impl;
  ]
