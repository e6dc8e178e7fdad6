(* The operator and expression algebra (paper §3 "Operators").

   Logical operators describe *what* to compute, physical operators *how*.
   Both are first-class Memo citizens of equal footing. Scalar expressions are
   kept as operator payload (see DESIGN.md). [plan] is a concrete physical
   operator tree extracted from the Memo, consumed by DXL serialization and by
   the execution simulator; the legacy Planner also produces [plan] values
   directly (its correlated subqueries appear as [Subplan] scalars, exactly
   like PostgreSQL SubPlan nodes). *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul | Div | Mod

type agg_kind = Count_star | Count | Sum | Min | Max

type join_kind = Inner | Left_outer | Full_outer | Semi | Anti_semi

type set_kind = Union_all | Union_distinct | Intersect | Except

(* Aggregation phases for multi-stage (local/global) MPP aggregation. *)
type agg_phase = One_phase | Partial | Final

type motion =
  | Gather                         (* all segments -> master *)
  | Gather_merge of Sortspec.t     (* order-preserving gather *)
  | Redistribute of scalar list    (* hash-distribute on expressions *)
  | Broadcast                      (* replicate input to every segment *)

and scalar =
  | Col of Colref.t
  | Const of Datum.t
  | Cmp of cmp * scalar * scalar
  | And of scalar list
  | Or of scalar list
  | Not of scalar
  | Arith of arith * scalar * scalar
  | Is_null of scalar
  | Case of (scalar * scalar) list * scalar option
  | In_list of scalar * Datum.t list
  | Like of scalar * string        (* SQL LIKE with % and _ *)
  | Coalesce of scalar list
  | Cast of scalar * Dtype.t
  | Subplan of subplan
  | Slot of int * Datum.t
      (* a literal of the request text: its 1-based parameter slot (the [$k]
         of the normalized text) and its value, read exactly like [Const].
         A negative slot [-k] marks a constant folded from literal [k]. The
         slot tells the plan cache which constant a request parameter
         rebinds, so structural equality keeps two literals of equal value
         apart: no rewrite may merge them. *)

and subplan_kind =
  | Sp_scalar                      (* value of single-row single-col subplan *)
  | Sp_exists
  | Sp_not_exists
  | Sp_in of scalar                (* expr IN (subplan column) *)
  | Sp_not_in of scalar

and subplan = {
  sp_kind : subplan_kind;
  sp_plan : plan;
  (* Correlation parameters: (outer column feeding it, parameter column the
     inner plan reads). Empty for uncorrelated subplans. *)
  sp_params : (Colref.t * Colref.t) list;
}

and agg = {
  agg_kind : agg_kind;
  agg_arg : scalar option;         (* None only for Count_star *)
  agg_distinct : bool;
  agg_out : Colref.t;
}

and proj = { proj_expr : scalar; proj_out : Colref.t }

(* Window functions. With an ORDER BY, aggregate windows use the SQL default
   frame (RANGE UNBOUNDED PRECEDING .. CURRENT ROW, peers included); without
   one they cover the whole partition. *)
and wkind = W_row_number | W_rank | W_dense_rank | W_agg of agg_kind

and wfunc = { wf_kind : wkind; wf_arg : scalar option; wf_out : Colref.t }

(* Correlated-subquery operators produced by the binder, removed (when
   possible) by decorrelation rules (paper §7.2.2 "Correlated Subqueries"). *)
and apply_kind =
  | Apply_scalar of Colref.t       (* inner single column exposed under this id *)
  | Apply_exists
  | Apply_not_exists
  | Apply_in of scalar * Colref.t      (* expr IN inner column *)
  | Apply_not_in of scalar * Colref.t

and logical =
  | L_get of Table_desc.t                      (* 0 children *)
  | L_select of scalar                         (* 1 child *)
  | L_project of proj list                     (* 1 child *)
  | L_join of join_kind * scalar               (* 2 children: outer, inner *)
  | L_gb_agg of agg_phase * Colref.t list * agg list (* 1 child *)
  | L_window of Colref.t list * Sortspec.t * wfunc list
      (* 1 child: partition columns, intra-partition order, functions *)
  | L_limit of Sortspec.t * int * int option * limit_slots
      (* 1 child: order, offset, count *)
  | L_apply of apply_kind * Colref.t list      (* 2 children; correlated outer cols *)
  | L_cte_producer of int                      (* 1 child: materialized CTE body *)
  | L_cte_anchor of int                        (* 2 children: producer, main body *)
  | L_cte_consumer of int * Colref.t list      (* 0 children *)
  | L_set of set_kind * Colref.t list          (* >= 2 children; output columns *)
  | L_const_table of Colref.t list * Datum.t list list (* 0 children *)

and physical =
  | P_table_scan of Table_desc.t * int list option * scalar option
      (* partitions kept (None = all), residual filter *)
  | P_index_scan of Table_desc.t * Table_desc.index * cmp * scalar * scalar option
      (* index condition [idx_col cmp expr], residual filter; delivers order *)
  | P_filter of scalar
  | P_project of proj list
  | P_hash_join of join_kind * (scalar * scalar) list * scalar option
      (* equi-key pairs (outer side, inner side), residual predicate *)
  | P_merge_join of join_kind * (Colref.t * Colref.t) list * scalar option
  | P_nl_join of join_kind * scalar
  | P_window of Colref.t list * Sortspec.t * wfunc list
      (* requires child hashed on the partition and sorted appropriately *)
  | P_hash_agg of agg_phase * Colref.t list * agg list
  | P_stream_agg of agg_phase * Colref.t list * agg list
  | P_sort of Sortspec.t
  | P_limit of Sortspec.t * int * int option * limit_slots
      (* order, offset, count *)
  | P_motion of motion
  | P_cte_producer of int
  | P_cte_consumer of int * Colref.t list
  | P_sequence of int                          (* CTE anchor: run producer, then body *)
  | P_set of set_kind * Colref.t list
  | P_const_table of Colref.t list * Datum.t list list
  | P_partition_selector of int list
      (* dynamic partition elimination: restricts sibling scans at run time *)

(* The parameter slots of a LIMIT's offset and count literals (see [Slot]);
   0 where the value was not written as a literal. *)
and limit_slots = { offset_slot : int; count_slot : int }

and plan = {
  pop : physical;
  pchildren : plan list;
  pschema : Colref.t list;
  pest_rows : float;
  pcost : float;
}

let no_limit_slots = { offset_slot = 0; count_slot = 0 }

(* An operator as stored in the Memo. *)
type op = Logical of logical | Physical of physical

let agg_kind_to_string = function
  | Count_star -> "count(*)"
  | Count -> "count"
  | Sum -> "sum"
  | Min -> "min"
  | Max -> "max"

let cmp_to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let join_kind_to_string = function
  | Inner -> "Inner"
  | Left_outer -> "LeftOuter"
  | Full_outer -> "FullOuter"
  | Semi -> "Semi"
  | Anti_semi -> "AntiSemi"

let set_kind_to_string = function
  | Union_all -> "UnionAll"
  | Union_distinct -> "Union"
  | Intersect -> "Intersect"
  | Except -> "Except"

let agg_phase_to_string = function
  | One_phase -> ""
  | Partial -> "Partial"
  | Final -> "Final"

let wkind_to_string = function
  | W_row_number -> "row_number"
  | W_rank -> "rank"
  | W_dense_rank -> "dense_rank"
  | W_agg k -> agg_kind_to_string k

let flip_cmp = function
  | Eq -> Eq
  | Neq -> Neq
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let negate_cmp = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
