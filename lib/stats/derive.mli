(** Statistics derivation for logical operators (paper §4.1 step 2).

    Bottom-up: given the statistics of child groups, compute the parent's.
    Base-table statistics come from the metadata accessor through [base];
    CTE-consumer statistics through [cte]. *)

open Ir

val inner_join_stats :
  Relstats.t ->
  Relstats.t ->
  Expr.scalar ->
  outer_cols:Colref.Set.t ->
  inner_cols:Colref.Set.t ->
  Relstats.t
(** Inner equi-join: histogram join on the first column key pair, 1/max(ndv)
    for the rest, residual predicates via selectivity; child histograms are
    scaled by their fan-outs and merged. *)

val join_stats :
  Expr.join_kind ->
  Expr.scalar ->
  Relstats.t ->
  Relstats.t ->
  outer_cols:Colref.Set.t ->
  inner_cols:Colref.Set.t ->
  Relstats.t
(** All join kinds, derived from the inner-join estimate (outer joins bound
    below by the preserved side; semi/anti partition the outer side). *)

val gb_agg_stats : Colref.t list -> Expr.agg list -> Relstats.t -> Relstats.t
(** Group count = min(rows, product of key NDVs); keys get one-row-per-value
    histograms; empty keys = one row. *)

val derive :
  base:(Table_desc.t -> Relstats.t) ->
  cte:(int -> Relstats.t option) ->
  Expr.logical ->
  children:Relstats.t list ->
  child_schemas:Colref.t list list ->
  Relstats.t
(** Statistics of any logical operator. Partial (per-segment) aggregate
    outputs are bounded by a fixed 16 segments. *)

val promise : Expr.logical -> int
(** Statistics promise (paper §4.1): expressions with fewer join conditions
    propagate less estimation error; higher is better. *)
