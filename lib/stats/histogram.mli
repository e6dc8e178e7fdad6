(** Equi-height column histograms (paper §4.1: statistics objects are
    collections of column histograms used to derive cardinality and data-skew
    estimates).

    Buckets carry absolute row counts, so histograms can be scaled, filtered
    and joined while staying consistent with relation cardinalities.

    {b Invariant.} Buckets are sorted and never overlap: every bucket has
    [lo <= hi], and every bucket's [hi] is at most the next bucket's [lo]
    (under [Datum.compare]; closed bounds may touch, so point buckets
    [[v,v]] may repeat). Every producer below keeps it, and [join_eq]
    relies on it: its cut and merge walks are linear because the bounds of
    a histogram, read in order, never decrease. *)

open Ir

type bucket = {
  lo : Datum.t;  (** inclusive lower bound *)
  hi : Datum.t;  (** inclusive upper bound *)
  rows : float;  (** rows falling in the bucket *)
  ndv : float;   (** distinct values in the bucket *)
}

type t = { buckets : bucket list; null_rows : float }

val empty : t

val build : ?nbuckets:int -> Datum.t list -> t
(** Build an equi-height histogram from concrete values (default 32 buckets).
    Equal values never straddle a bucket boundary. *)

val uniform : lo:Datum.t -> hi:Datum.t -> rows:float -> ndv:float -> t
(** A single-bucket histogram describing [rows] rows uniformly spread over
    [ndv] distinct values in [lo, hi]; used for defaults and synthetic
    metadata. *)

val total_rows : t -> float
(** Total rows described, nulls included. *)

val non_null_rows : t -> float
val ndv : t -> float
val null_fraction : t -> float
val is_empty : t -> bool

val skew : t -> float
(** Ratio of the heaviest bucket to the mean bucket weight (>= 1.0). Used by
    the cost model to penalize redistribution on skewed columns. *)

val scale : t -> float -> t
(** Scale all row counts by a selectivity factor (NDVs are capped by the
    scaled rows). Raises on negative factors. *)

val select_cmp : t -> Expr.cmp -> Datum.t -> t
(** Histogram of the rows satisfying [col cmp const]. Null rows never pass a
    comparison; comparing against NULL yields an empty histogram. *)

val selectivity_cmp : t -> Expr.cmp -> Datum.t -> float
(** Fraction of rows satisfying [col cmp const], in [0, 1]. *)

val well_formed : t -> bool
(** Whether the bucket invariant holds. *)

val join_eq : t -> t -> float * t
(** Equi-join of two column histograms: buckets are split on each other's
    boundaries and joined fragment-by-fragment with the containment
    assumption (rows = r1*r2 / max(ndv1, ndv2)). Returns the estimated join
    cardinality and the join key's histogram in the result. Both inputs
    must keep the bucket invariant; the cut and the merge are single
    forward walks, O(n + m) plus the fragments emitted. *)

val min_value : t -> Datum.t option
val max_value : t -> Datum.t option
val to_string : t -> string
