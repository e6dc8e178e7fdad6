(** Plan extraction from the Memo via the optimization-request linkage
    structure (paper §4.1, Fig. 6), plus plan-space enumeration and uniform
    sampling — the substrate TAQO builds on (paper §6.2, after Waas &
    Galindo-Legaria's counting method). *)

open Ir

val best_plan : Memo.t -> int -> Props.req -> Expr.plan
(** The least-cost plan satisfying [req] rooted in the given group; enforcers
    recorded in the winning alternatives are materialized as Sort/Motion
    nodes. Raises when no context or plan exists for the request. *)

val plan_of_alternative :
  Memo.t ->
  int ->
  Memo.alternative ->
  pick:(int -> Props.req -> assumed:Props.derived option -> Memo.alternative) ->
  Expr.plan
(** Materialize one alternative, choosing child alternatives through [pick].
    [assumed] passes the properties the parent's costing assumed that child
    delivered ([Memo.a_child_derived]); a sound [pick] only returns
    alternatives covering them ([Props.derived_covers]). Node costs are
    rolled up from the children actually materialized. *)

val count_plans : Memo.t -> int -> Props.req -> float
(** Number of distinct plans costed for (group, request), over the
    contexts' {!Memo.alternatives}; float-valued to tolerate very large
    spaces. *)

val sampler : Memo.t -> int -> Props.req -> Gpos.Prng.t -> Expr.plan
(** [sampler memo gid req] draws plans uniformly from the costed plan
    space: alternatives are chosen with probability proportional to their
    subtree plan counts. Partially apply it once and draw repeatedly: the
    counts and each visited context's alternatives are computed once for
    all draws. *)
