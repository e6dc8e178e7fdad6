open Ir
module Memo = Memolib.Memo
module Mexpr = Memolib.Mexpr
module Rule = Xform.Rule

(* Deliberately broken rules: regression fixtures proving the analyzer
   catches each contract violation with a distinct diagnostic id. These are
   never registered in any production rule set. *)

(* Swaps the children of LEFT OUTER joins too — valid only for inner joins.
   Caught by rule/equiv-mismatch: the outer spine row's NULL padding lands on
   the wrong side. *)
let bad_join_commute =
  Rule.make ~name:"BadJoinCommutativity" ~kind:Rule.Exploration
    ~shapes:[ Logical_ops.S_join ]
    (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_join (((Expr.Inner | Expr.Left_outer) as k), cond)) -> (
          match ge.Memo.ge_children with
          | [ g1; g2 ] ->
              [ Mexpr.logical_of_groups (Expr.L_join (k, cond)) [ g2; g1 ] ]
          | _ -> [])
      | _ -> [])

(* Declares Select and Limit but actually fires on inner joins: the engine's
   prefilter would silently drop every result. Caught by rule/shape-escape
   (and rule/shape-dead for the two declared-but-unused shapes). *)
let lying_shape_mask =
  Rule.make ~name:"LyingShapeMask" ~kind:Rule.Exploration
    ~shapes:[ Logical_ops.S_select; Logical_ops.S_limit ]
    (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_join (Expr.Inner, cond)) -> (
          match ge.Memo.ge_children with
          | [ g1; g2 ] ->
              [
                Mexpr.logical_of_groups (Expr.L_join (Expr.Inner, cond))
                  [ g2; g1 ];
              ]
          | _ -> [])
      | _ -> [])

(* Inserts into the Memo from inside [apply] instead of returning the
   alternative. Caught by rule/memo-mutation, which checksums the Memo
   around every rule's [apply]. *)
let memo_mutator =
  Rule.make ~name:"MemoMutator" ~kind:Rule.Exploration
    ~shapes:[ Logical_ops.S_get ]
    (fun _ctx memo ge ->
      (match Rule.logical_op ge with
      | Some (Expr.L_get _) ->
          let gid = Memo.find memo ge.Memo.ge_group in
          ignore
            (Memo.insert_gexpr memo ~target:gid
               (Expr.Logical (Expr.L_select (Expr.Const (Datum.Bool true))))
               [ gid ])
      | _ -> ());
      [])

(* A negative per-pair NL-join charge: cheaper the bigger the inputs. Caught
   by cost/non-monotone (and cost/negative once the discount dominates). *)
let bad_cost_model =
  {
    Cost.Cost_model.default with
    Cost.Cost_model.nl_tuple_cost =
      -.Cost.Cost_model.default.Cost.Cost_model.nl_tuple_cost;
  }

let all_rules = [ bad_join_commute; lying_shape_mask; memo_mutator ]
