(* SQL abstract syntax (the parser's output, the binder's input).

   Each INT, FLOAT and STRING token of the text has a 1-based ordinal in
   token order: its parameter slot, the [$k] that query normalization lifts
   it as. Literal nodes carry it; 0 means the literal was not written in the
   text (e.g. one a rewrite made up). *)

type slot = int

type expr =
  | E_col of string option * string (* [qualifier.]column *)
  | E_star                          (* COUNT-star argument / SELECT star *)
  | E_int of int * slot
  | E_float of float * slot
  | E_string of string * slot
  | E_bool of bool
  | E_null
  | E_date of string * slot         (* DATE 'YYYY-MM-DD' *)
  | E_cmp of Ir.Expr.cmp * expr * expr
  | E_and of expr * expr
  | E_or of expr * expr
  | E_not of expr
  | E_arith of Ir.Expr.arith * expr * expr
  | E_neg of expr
  | E_is_null of expr * bool        (* negated? *)
  | E_between of expr * expr * expr
  | E_in_list of expr * expr list
  | E_in_query of expr * query * bool (* negated? *)
  | E_exists of query * bool          (* negated? *)
  | E_scalar_subquery of query
  | E_like of expr * string
  | E_case of (expr * expr) list * expr option
  | E_func of string * expr list    (* COALESCE and friends *)
  | E_agg of agg_call
  | E_window of window_call
  | E_cast of expr * string

and agg_call = { agg_name : string; agg_expr : expr option; agg_dist : bool }

and window_call = {
  win_name : string; (* ROW_NUMBER | RANK | COUNT | SUM | AVG | MIN | MAX *)
  win_expr : expr option;
  win_partition : expr list;
  win_order : (expr * [ `Asc | `Desc ]) list;
}

and select_item = { item_expr : expr; item_alias : string option }

and join_type = J_inner | J_left | J_right | J_full | J_cross

and from_item =
  | F_table of string * string option (* table or CTE name, alias *)
  | F_subquery of query * string
  | F_join of from_item * join_type * from_item * expr option

and group_mode =
  | G_plain
  | G_rollup  (* grouping sets = every prefix of [group_by] *)
  | G_cube    (* grouping sets = every subset of [group_by] *)
  | G_sets of int list
      (* explicit GROUPING SETS: each mask selects a subset of [group_by]
         (bit i = expression i kept) *)

and select_core = {
  distinct : bool;
  items : select_item list;
  from : from_item list; (* comma list: implicit cross join *)
  where : expr option;
  group_by : expr list;
  group_mode : group_mode;
      (* ROLLUP/CUBE: [group_by] is the grouping-set generator; expanded to
         a UNION ALL of plain GROUP BY arms before binding (see Rollup) *)
  having : expr option;
}

and body = Select of select_core | Setop of Ir.Expr.set_kind * body * body

and query = {
  ctes : (string * query) list;
  body : body;
  order_by : (expr * [ `Asc | `Desc ]) list;
  limit : int option;
  offset : int option;
  limit_slots : Ir.Expr.limit_slots;
}

(* Top-down rewriting, like [Ir.Scalar_ops.map]: [f] returning [Some]
   replaces the node; [None] rebuilds it from its rewritten children, left
   to right (the [let]s fix the order, so [iter] visits in text order).
   Subqueries are not entered. *)
let rec map f (e : expr) : expr =
  match f e with
  | Some e' -> e'
  | None -> (
      let m = map f in
      match e with
      | E_col _ | E_star | E_int _ | E_float _ | E_string _ | E_bool _
      | E_null | E_date _ | E_exists _ | E_scalar_subquery _ ->
          e
      | E_cmp (op, a, b) -> let a = m a in E_cmp (op, a, m b)
      | E_and (a, b) -> let a = m a in E_and (a, m b)
      | E_or (a, b) -> let a = m a in E_or (a, m b)
      | E_not a -> E_not (m a)
      | E_arith (op, a, b) -> let a = m a in E_arith (op, a, m b)
      | E_neg a -> E_neg (m a)
      | E_is_null (a, negated) -> E_is_null (m a, negated)
      | E_between (a, lo, hi) ->
          let a = m a in
          let lo = m lo in
          E_between (a, lo, m hi)
      | E_in_list (a, vs) -> let a = m a in E_in_list (a, List.map m vs)
      | E_in_query (a, q, negated) -> E_in_query (m a, q, negated)
      | E_like (a, pat) -> E_like (m a, pat)
      | E_case (whens, els) ->
          let whens = List.map (fun (c, v) -> let c = m c in (c, m v)) whens in
          E_case (whens, Option.map m els)
      | E_func (name, args) -> E_func (name, List.map m args)
      | E_agg call -> E_agg { call with agg_expr = Option.map m call.agg_expr }
      | E_window w ->
          let win_expr = Option.map m w.win_expr in
          let win_partition = List.map m w.win_partition in
          let win_order = List.map (fun (e, dir) -> (m e, dir)) w.win_order in
          E_window { w with win_expr; win_partition; win_order }
      | E_cast (a, ty) -> E_cast (m a, ty))

(* Visit [e] top-down, like [map]; [f] returns [false] to skip a node's
   children. *)
let iter f e = ignore (map (fun e -> if f e then None else Some e) e)

let unslot_literal = function
  | E_int (n, _) -> Some (E_int (n, 0))
  | E_float (f, _) -> Some (E_float (f, 0))
  | E_string (s, _) -> Some (E_string (s, 0))
  | E_date (s, _) -> Some (E_date (s, 0))
  | _ -> None

(* [e] with every literal's slot cleared. *)
let unslot e = map unslot_literal e

(* [e] as the binder and ROLLUP expansion may match it with another
   expression and then bind only one of the two: literals by value, columns
   by name. Literals inside subqueries keep their slots. *)
let shape e =
  map
    (function E_col (_, name) -> Some (E_col (None, name)) | e -> unslot_literal e)
    e

(* [e] with every subexpression whose [shape] is among [shapes] unslotted.
   When two occurrences of one shape are matched, the survivor's literals
   stand for both positions; without slots, a request that changes either
   position refuses the rebind instead of silently changing the other. *)
let unslot_matched shapes e =
  if shapes = [] then e
  else map (fun x -> if List.mem (shape x) shapes then Some (unslot x) else None) e

let simple_select core =
  {
    ctes = [];
    body = Select core;
    order_by = [];
    limit = None;
    offset = None;
    limit_slots = Ir.Expr.no_limit_slots;
  }
