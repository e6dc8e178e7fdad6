(** Runtime values. Dates are stored as days since the simplified calendar's
    epoch (1900-01-01). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Date of int

val type_of : t -> Dtype.t option
(** [None] for [Null]. *)

val is_null : t -> bool

val compare : t -> t -> int
(** Total order for sorting and histograms: Null sorts first; Int and Float
    compare by numeric value; unrelated types order by a fixed type rank. *)

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with [equal] (integral floats hash like ints). *)

val sql_compare : t -> t -> int option
(** SQL three-valued comparison: [None] when either side is Null. *)

val to_float : t -> float
(** Numeric embedding used for histogram interpolation (strings use a
    monotone-ish prefix embedding). *)

val date_to_string : int -> string
val date_of_string : string -> t
(** Parse ["YYYY-MM-DD"] into a [Date]; raises [Gpos_error] (Parse_error)
    on anything else. The binder's [DATE '...'] literals. *)

val date_of_string_opt : string -> t option
(** [date_of_string] returning [None] instead of raising. *)

val to_string : t -> string

val serialize : t -> string
(** Tagged, unambiguous, exactly round-trippable (floats in hex). *)

val deserialize : string -> t

val arith : [ `Add | `Sub | `Mul | `Div | `Mod ] -> t -> t -> t
(** SQL semantics: Null propagates; Int/Int division is exact (Float);
    division or modulo by zero is Null. *)

val cast : t -> Dtype.t -> t
(** Best-effort conversion; failures produce Null. *)

val byte_width : t -> int
(** Bytes of a concrete value, for memory accounting in the executor. *)
