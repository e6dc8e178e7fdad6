(** Request schedules (paper §4.1 step 4, Fig. 7).

    For an incoming optimization request, each physical operator proposes
    alternative vectors of child requests. A hash join, for instance, can
    co-locate both children on the join keys, broadcast its inner side,
    broadcast its outer side (inner joins only), or gather both children to
    the master — the cost model differentiates the alternatives, and the
    property-enforcement framework keeps them cleanly isolated. *)

open Ir

val join_dist_alternatives :
  Expr.join_kind ->
  hash_keys:(Colref.t list * Colref.t list) option ->
  (Props.dist_req * Props.dist_req) list
(** The distribution alternatives for a binary join, filtered by what is
    semantically valid for the join kind (e.g. no broadcast variants for
    full outer joins, broadcast-outer only for inner joins). *)

val alternatives :
  Expr.physical ->
  req:Props.req ->
  child_out_cols:Colref.t list list ->
  Props.req list list
(** Child request vectors for an operator under an incoming request. Each
    inner list has one request per child; leaves return [[[]]]. *)

val passes_request : Expr.physical -> bool
(** Whether {!alternatives} depends on the incoming request: true for
    filter, project and sequence, which pass it through to a child; every
    other operator asks the same vectors under any request. *)
