open Ir
module Memo = Memolib.Memo
module Mexpr = Memolib.Mexpr
module Rule = Xform.Rule

(* Deliberately pathological rules: regression fixtures proving the
   interaction analyzer catches each failure mode with a distinct diagnostic
   id. Never registered in any production rule set. *)

(* --- interact/unbounded-cycle -------------------------------------------
   A two-rule ping-pong whose payload strictly grows each round, so the
   Memo's duplicate detection can never close the orbit: Select(p) becomes
   Limit(offset = |conjuncts p|), which becomes Select of offset+1 trivial
   conjuncts, which becomes Limit(offset+1), ... Every derivation is a
   structurally novel expression; the bounded fixpoint overflows. *)
let cycle_wrap_limit =
  Rule.make ~name:"CycleWrapLimit" ~kind:Rule.Exploration
    ~shapes:[ Logical_ops.S_select ]
    ~produces:[ Logical_ops.S_limit ]
    (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_select pred) -> (
          match ge.Memo.ge_children with
          | [ g ] ->
              let off = List.length (Scalar_ops.conjuncts pred) in
              [
                Mexpr.logical_of_groups
                  (Expr.L_limit (Sortspec.empty, off, None, Expr.no_limit_slots))
                  [ g ];
              ]
          | _ -> [])
      | _ -> [])

let cycle_wrap_select =
  Rule.make ~name:"CycleWrapSelect" ~kind:Rule.Exploration
    ~shapes:[ Logical_ops.S_limit ]
    ~produces:[ Logical_ops.S_select ]
    (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_limit (_, off, _, _)) -> (
          match ge.Memo.ge_children with
          | [ g ] ->
              (* [false] conjuncts, not [true]: Scalar_ops.conjuncts drops
                 trivial [true]s, which would collapse the counter *)
              let pred =
                Expr.And
                  (List.init (off + 1) (fun _ -> Expr.Const (Datum.Bool false)))
              in
              [ Mexpr.logical_of_groups (Expr.L_select pred) [ g ] ]
          | _ -> [])
      | _ -> [])

(* --- interact/produces-undeclared + interact/produces-dead --------------
   Declares it produces Project but actually commutes inner joins: the
   observed mask contains S_join (escaped the declaration, an error) while
   the declared S_project never shows up (dead, a warning). *)
let lying_produces =
  Rule.make ~name:"LyingProduces" ~kind:Rule.Exploration
    ~shapes:[ Logical_ops.S_join ]
    ~produces:[ Logical_ops.S_project ]
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

(* --- interact/unreachable-rule ------------------------------------------
   Matches only Apply — but the optimizer decorrelates before copy-in, so no
   root query ever carries Apply into the Memo, and no production rule
   produces one. The rule is shadowed by preprocessing. *)
let shadowed_apply =
  Rule.make ~name:"ShadowedApplyRule" ~kind:Rule.Exploration
    ~shapes:[ Logical_ops.S_apply ]
    ~produces:[]
    (fun _ctx _memo _ge -> [])

(* --- interact/promise-inversion -----------------------------------------
   The consumer only ever gets work from the low-promise feeder (Apply never
   reaches the Memo from a root query), yet its promise is far higher than
   its only feeder's: the scheduler keeps trying it long before the rule
   that could give it something to match. *)
let inversion_feeder =
  Rule.make ~name:"InversionFeeder" ~kind:Rule.Exploration ~promise:1
    ~shapes:[ Logical_ops.S_select ]
    ~produces:[ Logical_ops.S_apply ]
    (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_select _) -> (
          match ge.Memo.ge_children with
          | [ g ] ->
              [
                Mexpr.logical_of_groups
                  (Expr.L_apply (Expr.Apply_exists, []))
                  [ g; g ];
              ]
          | _ -> [])
      | _ -> [])

let inversion_consumer =
  Rule.make ~name:"InversionConsumer" ~kind:Rule.Exploration ~promise:9
    ~shapes:[ Logical_ops.S_apply ]
    ~produces:[]
    (fun _ctx _memo _ge -> [])

(* --- interact/mask-defaulted --------------------------------------------
   Omits [~shapes]: silently applicable everywhere, defeating the engine's
   prefilter and making the interaction graph treat it as fed by every rule.
   (An audit found no production rule doing this; the fixture keeps the
   check honest.) *)
let defaulted_mask =
  Rule.make ~name:"DefaultedMask" ~kind:Rule.Exploration ~produces:[]
    (fun _ctx _memo _ge -> [])

let cycle_pair = [ cycle_wrap_limit; cycle_wrap_select ]
let inversion_pair = [ inversion_feeder; inversion_consumer ]

let all_rules =
  cycle_pair
  @ [ lying_produces; shadowed_apply ]
  @ inversion_pair
  @ [ defaulted_mask ]
