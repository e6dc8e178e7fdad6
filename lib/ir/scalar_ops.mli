(** Operations on scalar expressions. *)

open Expr

val to_string : scalar -> string
val iter_children : (scalar -> unit) -> scalar -> unit

val map : (scalar -> scalar option) -> scalar -> scalar
(** Top-down rewriting: [f] returning [Some] replaces the node (children not
    revisited); [None] recurses. *)

val free_cols : scalar -> Colref.Set.t
(** Columns referenced, SubPlan correlation parameters counted as outer
    references. *)

val free_cols_of_list : scalar list -> Colref.Set.t
val substitute : Colref.t Colref.Map.t -> scalar -> scalar

val conjuncts : scalar -> scalar list
(** Top-level conjuncts, nested ANDs flattened, trivial [true] dropped. *)

val conjoin : scalar list -> scalar
(** Inverse of {!conjuncts}; the empty list becomes [true]. *)

val extract_equi_keys :
  outer_cols:Colref.Set.t ->
  inner_cols:Colref.Set.t ->
  scalar ->
  (scalar * scalar) list * scalar list
(** Split a join condition into equi-key pairs (outer side first) and
    residual conjuncts. Each key side must reference at least one column of
    exactly one input — constant-only expressions are never keys. *)

val type_of : scalar -> Dtype.t
val contains_subplan : scalar -> bool

val fingerprint : scalar -> int
(** Structural hash for Memo duplicate detection; a slot constant hashes
    like the plain constant. *)

val erase_slots : scalar -> scalar
(** Every {!Expr.Slot} constant replaced by the plain [Const] of its value:
    what a DXL round trip keeps of the expression. *)

val slots : scalar -> int list
(** The slots of the expression's slot constants, negative for folded ones,
    in evaluation order. *)

val equal : scalar -> scalar -> bool
(** Structural equality. Slots count: two literals of the text are
    different constants, even when their values are equal. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE with [%] and [_]; shared by the executor and selectivity
    estimation. *)
