(** Operations on physical operators: arity, output schema, derived physical
    properties, printing. *)

open Expr

val arity : physical -> int

val output_cols : physical -> Colref.t list list -> Colref.t list

val table_dist : Table_desc.t -> Props.dist
(** A base table's distribution as a delivered property. *)

val passes_projection : proj list -> Colref.t -> bool
(** Does the column survive the projection unchanged (pass-through with the
    same column reference)? *)

val dist_after_projection : proj list -> Props.dist -> Props.dist
val order_after_projection : proj list -> Sortspec.t -> Sortspec.t

val derive : physical -> Props.derived list -> Props.derived
(** Derived properties given children's derived properties (paper §4.1: each
    operator combines child properties with local behaviour — e.g. a hash
    join delivers the probe side's stream order; a broadcast-outer inner join
    delivers the inner side's distribution). *)

val motion_to_string : motion -> string
val to_string : physical -> string

val class_name : physical -> string
(** Stable kebab-case operator class ("hash-join", "motion-broadcast", …)
    used to aggregate cardinality accuracy per operator class (lib/prov). *)

val map_scalars : (scalar -> scalar) -> physical -> physical
(** Rewrite every scalar of the operator's payload (filters, keys,
    projections, aggregate and window arguments, redistribution keys). *)

val scalars : physical -> scalar list
(** Every scalar {!map_scalars} visits, in the same order. *)

val fingerprint : physical -> int
val equal : physical -> physical -> bool
