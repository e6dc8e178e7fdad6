open Ir

(* The binder: resolves names against the catalog, assigns fresh column
   references, lowers the AST to a logical operator tree and packages it as a
   DXL query (the Query2DXL translator of paper Fig. 2).

   Subqueries become Apply operators; columns resolved through an enclosing
   scope are recorded as the Apply's correlation set. EXISTS/IN subqueries
   are accepted only in conjunct positions (where a semi-join rewrite is
   sound); scalar subqueries are allowed anywhere in an expression.

   A literal of the text binds to [Expr.Slot] with its parameter slot, so
   the plan cache can rebind it; LIMIT/OFFSET keep theirs on [L_limit].
   Literals the binder uses as structure (GROUP BY / ORDER BY positions),
   negated literals, LIKE patterns, IN-list values and the literals of
   expressions matched with a twin (see [twin_shapes]) bind without one: a
   request that changes them never rebinds. *)

let error fmt =
  Printf.ksprintf
    (fun msg -> raise (Gpos.Gpos_error.Error (Gpos.Gpos_error.Bind_error, msg)))
    fmt

type cte_info = {
  cte_id : int;
  cte_cols : Colref.t list;
  cte_producer : Ltree.t;
  mutable cte_used : bool;
}

type t = {
  accessor : Catalog.Accessor.t;
  factory : Colref.Factory.t;
  mutable cte_counter : int;
  mutable ctes : (string * cte_info) list; (* innermost first *)
}

let create (accessor : Catalog.Accessor.t) : t =
  {
    accessor;
    factory = Catalog.Accessor.factory accessor;
    cte_counter = 0;
    ctes = [];
  }

(* root ordering of the most recently bound query (set by
   [bind_query_internal]; consumed by [bind]) *)
let last_sort : Sortspec.t ref = ref []

(* Scopes: ordered relations (alias, columns); resolution walks to the
   parent, recording outer references in [corr]. *)
type scope = {
  entries : (string * Colref.t list) list;
  parent : scope option;
  corr : Colref.Set.t ref; (* correlation columns collected at this level *)
}

let empty_scope () = { entries = []; parent = None; corr = ref Colref.Set.empty }

let child_scope parent = { entries = []; parent = Some parent; corr = ref Colref.Set.empty }

let add_relation scope alias cols =
  { scope with entries = scope.entries @ [ (alias, cols) ] }

let resolve_local scope qualifier name : Colref.t option =
  let matches (alias, cols) =
    match qualifier with
    | Some q when q <> alias -> None
    | _ -> List.find_opt (fun c -> Colref.name c = name) cols
  in
  List.find_map matches scope.entries

let rec resolve scope qualifier name : (Colref.t * bool) option =
  match resolve_local scope qualifier name with
  | Some c -> Some (c, false)
  | None -> (
      match scope.parent with
      | None -> None
      | Some parent -> (
          match resolve parent qualifier name with
          | Some (c, _) ->
              scope.corr := Colref.Set.add c !(scope.corr);
              Some (c, true)
          | None -> None))

let all_columns scope = List.concat_map snd scope.entries

(* scope of the most recently completed SELECT core (lets ORDER BY resolve
   relation-qualified names like "ss.cnt" against the select's FROM) *)
let last_scope : scope option ref = ref None

(* pending subquery attachments collected while binding an expression *)
type pending = { pa_kind : Expr.apply_kind; pa_inner : Ltree.t; pa_corr : Colref.t list }

type bind_env = {
  scope : scope;
  aggs : (Ast.agg_call * Expr.scalar) list; (* post-aggregation substitution *)
  windows : (Ast.window_call * Expr.scalar) list; (* post-window substitution *)
  pending : pending list ref;
  conjunct_ok : bool; (* semi-join subqueries allowed here *)
}

let fresh t ~name ~ty = Colref.Factory.fresh t.factory ~name ~ty

let datum_of_literal = function
  | Ast.E_int (n, _) -> Some (Datum.Int n)
  | Ast.E_float (f, _) -> Some (Datum.Float f)
  | Ast.E_string (s, _) -> Some (Datum.String s)
  | Ast.E_bool b -> Some (Datum.Bool b)
  | Ast.E_null -> Some Datum.Null
  | Ast.E_date (s, _) -> Some (Datum.date_of_string s)
  | Ast.E_neg (Ast.E_int (n, _)) -> Some (Datum.Int (-n))
  | Ast.E_neg (Ast.E_float (f, _)) -> Some (Datum.Float (-.f))
  | _ -> None

(* A literal's constant: slot 0 marks one the text did not write. *)
let literal slot d = if slot > 0 then Expr.Slot (slot, d) else Expr.Const d

let ast_agg_equal (a : Ast.agg_call) (b : Ast.agg_call) = a = b

(* The aggregate and window calls of [e], in text order; neither the calls'
   arguments nor subqueries are entered. *)
let calls_of (e : Ast.expr) =
  let acc = ref [] in
  Ast.iter
    (function
      | (Ast.E_agg _ | Ast.E_window _) as call ->
          acc := call :: !acc;
          false
      | Ast.E_in_query _ -> false
      | _ -> true)
    e;
  List.rev !acc

let distinct xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

(* The binder binds one expression for two that match as written: two calls
   of one aggregate or window function, a SELECT item and its GROUP BY or
   ORDER BY twin. [twin_shapes xs ys] are the shapes (see [Ast.shape]) an
   [x] shares with a different occurrence [y]; [Ast.unslot_matched] clears
   their literals' slots, so the twins still match and a request that
   changes either one refuses the rebind. A literal-free expression equals
   its twin outright. *)
let twin_shapes (xs : Ast.expr list) (ys : Ast.expr list) =
  List.filter_map
    (fun x ->
      let s = Ast.shape x in
      if List.exists (fun y -> y <> x && Ast.shape y = s) ys then Some s else None)
    xs

let map_items f (core : Ast.select_core) =
  {
    core with
    Ast.items =
      List.map (fun it -> { it with Ast.item_expr = f it.Ast.item_expr }) core.Ast.items;
  }

let dtype_of_name = function
  | "int" | "integer" | "bigint" -> Dtype.Int
  | "float" | "double" | "decimal" | "numeric" -> Dtype.Float
  | "bool" | "boolean" -> Dtype.Bool
  | "string" | "text" | "varchar" | "char" -> Dtype.String
  | "date" -> Dtype.Date
  | ty -> error "unknown type %S in CAST" ty

let rec bind_expr (t : t) (env : bind_env) (e : Ast.expr) : Expr.scalar =
  match e with
  | Ast.E_col (q, name) -> (
      match resolve env.scope q name with
      | Some (c, _) -> Expr.Col c
      | None ->
          error "column %s%s not found"
            (match q with Some q -> q ^ "." | None -> "")
            name)
  | Ast.E_star -> error "* is only valid in SELECT lists and COUNT(*)"
  | Ast.E_int (n, slot) -> literal slot (Datum.Int n)
  | Ast.E_float (f, slot) -> literal slot (Datum.Float f)
  | Ast.E_string (s, slot) -> literal slot (Datum.String s)
  | Ast.E_bool b -> Expr.Const (Datum.Bool b)
  | Ast.E_null -> Expr.Const Datum.Null
  | Ast.E_date (s, slot) -> literal slot (Datum.date_of_string s)
  | Ast.E_cmp (op, a, b) ->
      let env' = { env with conjunct_ok = false } in
      Expr.Cmp (op, bind_expr t env' a, bind_expr t env' b)
  | Ast.E_and (a, b) ->
      Expr.And [ bind_expr t env a; bind_expr t env b ]
  | Ast.E_or (a, b) ->
      let env' = { env with conjunct_ok = false } in
      Expr.Or [ bind_expr t env' a; bind_expr t env' b ]
  | Ast.E_not (Ast.E_exists (q, false)) ->
      bind_expr t env (Ast.E_exists (q, true))
  | Ast.E_not (Ast.E_in_query (x, q, false)) ->
      bind_expr t env (Ast.E_in_query (x, q, true))
  | Ast.E_not a ->
      Expr.Not (bind_expr t { env with conjunct_ok = false } a)
  | Ast.E_arith (op, a, b) ->
      let env' = { env with conjunct_ok = false } in
      Expr.Arith (op, bind_expr t env' a, bind_expr t env' b)
  | Ast.E_neg a ->
      let a = match a with Ast.E_int _ | Ast.E_float _ -> Ast.unslot a | a -> a in
      Expr.Arith
        (Expr.Sub, Expr.Const (Datum.Int 0), bind_expr t { env with conjunct_ok = false } a)
  | Ast.E_is_null (a, negated) ->
      let inner = Expr.Is_null (bind_expr t { env with conjunct_ok = false } a) in
      if negated then Expr.Not inner else inner
  | Ast.E_between (x, lo, hi) ->
      let env' = { env with conjunct_ok = false } in
      let x' = bind_expr t env' x in
      Expr.And
        [
          Expr.Cmp (Expr.Ge, x', bind_expr t env' lo);
          Expr.Cmp (Expr.Le, x', bind_expr t env' hi);
        ]
  | Ast.E_in_list (x, vs) ->
      let x' = bind_expr t { env with conjunct_ok = false } x in
      let datums =
        List.map
          (fun v ->
            match datum_of_literal v with
            | Some d -> d
            | None -> error "IN list elements must be literals")
          vs
      in
      Expr.In_list (x', datums)
  | Ast.E_like (x, pat) ->
      Expr.Like (bind_expr t { env with conjunct_ok = false } x, pat)
  | Ast.E_case (whens, els) ->
      let env' = { env with conjunct_ok = false } in
      Expr.Case
        ( List.map (fun (c, v) -> (bind_expr t env' c, bind_expr t env' v)) whens,
          Option.map (bind_expr t env') els )
  | Ast.E_func ("COALESCE", args) ->
      Expr.Coalesce (List.map (bind_expr t { env with conjunct_ok = false }) args)
  | Ast.E_func (name, _) -> error "unsupported function %s" name
  | Ast.E_cast (a, ty) ->
      Expr.Cast (bind_expr t { env with conjunct_ok = false } a, dtype_of_name ty)
  | Ast.E_agg call -> (
      match List.find_opt (fun (c, _) -> ast_agg_equal c call) env.aggs with
      | Some (_, scalar) -> scalar
      | None -> error "aggregate %s used outside an aggregation context" call.Ast.agg_name)
  | Ast.E_window call -> (
      match List.find_opt (fun (c, _) -> c = call) env.windows with
      | Some (_, scalar) -> scalar
      | None ->
          error "window function %s is only supported in the SELECT list"
            call.Ast.win_name)
  | Ast.E_exists (q, negated) ->
      if not env.conjunct_ok then
        error "EXISTS subqueries are supported only as top-level conjuncts";
      let sub = child_scope env.scope in
      let inner, _ = bind_query_internal t sub q in
      let corr = Colref.Set.elements !(sub.corr) in
      let kind = if negated then Expr.Apply_not_exists else Expr.Apply_exists in
      env.pending := { pa_kind = kind; pa_inner = inner; pa_corr = corr } :: !(env.pending);
      Expr.Const (Datum.Bool true)
  | Ast.E_in_query (x, q, negated) ->
      if not env.conjunct_ok then
        error "IN subqueries are supported only as top-level conjuncts";
      let x' = bind_expr t { env with conjunct_ok = false } x in
      let sub = child_scope env.scope in
      let inner, out = bind_query_internal t sub q in
      let inner_col =
        match out with
        | [ c ] -> c
        | _ -> error "IN subquery must return exactly one column"
      in
      let corr = Colref.Set.elements !(sub.corr) in
      let kind =
        if negated then Expr.Apply_not_in (x', inner_col)
        else Expr.Apply_in (x', inner_col)
      in
      env.pending := { pa_kind = kind; pa_inner = inner; pa_corr = corr } :: !(env.pending);
      Expr.Const (Datum.Bool true)
  | Ast.E_scalar_subquery q ->
      let sub = child_scope env.scope in
      let inner, out = bind_query_internal t sub q in
      let inner_col =
        match out with
        | [ c ] -> c
        | _ -> error "scalar subquery must return exactly one column"
      in
      let corr = Colref.Set.elements !(sub.corr) in
      env.pending :=
        { pa_kind = Expr.Apply_scalar inner_col; pa_inner = inner; pa_corr = corr }
        :: !(env.pending);
      Expr.Col inner_col

(* Wrap [tree] with the pending Apply operators (innermost first). *)
and attach_pending (tree : Ltree.t) (pending : pending list) : Ltree.t =
  List.fold_left
    (fun acc p ->
      Ltree.make (Expr.L_apply (p.pa_kind, p.pa_corr)) [ acc; p.pa_inner ])
    tree (List.rev pending)

(* --- FROM binding --- *)

and bind_from_item (t : t) (scope : scope) (item : Ast.from_item) :
    Ltree.t * scope =
  match item with
  | Ast.F_table (name, alias) -> (
      let alias_name = Option.value alias ~default:name in
      match List.assoc_opt name t.ctes with
      | Some cte ->
          cte.cte_used <- true;
          let cols =
            List.map
              (fun c -> fresh t ~name:(Colref.name c) ~ty:(Colref.ty c))
              cte.cte_cols
          in
          ( Ltree.leaf (Expr.L_cte_consumer (cte.cte_id, cols)),
            add_relation scope alias_name cols )
      | None -> (
          match Catalog.Accessor.bind_table t.accessor name with
          | Some td ->
              ( Ltree.leaf (Expr.L_get td),
                add_relation scope alias_name td.Table_desc.cols )
          | None -> error "table %S not found" name))
  | Ast.F_subquery (q, alias) ->
      let sub = child_scope scope in
      let tree, out = bind_query_internal t sub q in
      if not (Colref.Set.is_empty !(sub.corr)) then
        error "correlated FROM subqueries (LATERAL) are not supported";
      (tree, add_relation scope alias out)
  | Ast.F_join (l, jt, r, cond) -> (
      match jt with
      | Ast.J_right ->
          (* normalize RIGHT to LEFT by swapping inputs *)
          bind_from_item t scope (Ast.F_join (r, Ast.J_left, l, cond))
      | _ ->
          let ltree, scope = bind_from_item t scope l in
          let rtree, scope = bind_from_item t scope r in
          let kind =
            match jt with
            | Ast.J_inner | Ast.J_cross -> Expr.Inner
            | Ast.J_left -> Expr.Left_outer
            | Ast.J_full -> Expr.Full_outer
            | Ast.J_right -> assert false
          in
          let pending = ref [] in
          let cond' =
            match cond with
            | None -> Expr.Const (Datum.Bool true)
            | Some c ->
                bind_expr t
                  { scope; aggs = []; windows = []; pending; conjunct_ok = false }
                  c
          in
          if !pending <> [] then error "subqueries in ON conditions are not supported";
          (Ltree.make (Expr.L_join (kind, cond')) [ ltree; rtree ], scope))

(* --- SELECT core binding --- *)

and bind_select_core (t : t) (outer : scope) (core : Ast.select_core) :
    Ltree.t * Colref.t list * (Expr.scalar * Colref.t) list =
  let core =
    let items = List.map (fun it -> it.Ast.item_expr) core.Ast.items in
    let calls = List.concat_map calls_of (items @ Option.to_list core.Ast.having) in
    let fix =
      Ast.unslot_matched (twin_shapes calls calls @ twin_shapes items core.Ast.group_by)
    in
    {
      (map_items fix core) with
      Ast.group_by = List.map fix core.Ast.group_by;
      having = Option.map fix core.Ast.having;
    }
  in
  (* FROM *)
  let tree, scope =
    match core.Ast.from with
    | [] ->
        (* SELECT without FROM: single-row const table *)
        ( Ltree.leaf (Expr.L_const_table ([], [ [] ])),
          { entries = []; parent = outer.parent; corr = outer.corr } )
    | first :: rest ->
        let scope0 =
          { entries = []; parent = outer.parent; corr = outer.corr }
        in
        let tree0, scope0 = bind_from_item t scope0 first in
        List.fold_left
          (fun (tree, scope) item ->
            let rtree, scope = bind_from_item t scope item in
            ( Ltree.make
                (Expr.L_join (Expr.Inner, Expr.Const (Datum.Bool true)))
                [ tree; rtree ],
              scope ))
          (tree0, scope0) rest
  in
  (* WHERE *)
  let tree =
    match core.Ast.where with
    | None -> tree
    | Some w ->
        let pending = ref [] in
        let pred =
          bind_expr t { scope; aggs = []; windows = []; pending; conjunct_ok = true } w
        in
        let tree = attach_pending tree !pending in
        let conjuncts =
          List.filter
            (fun c -> c <> Expr.Const (Datum.Bool true))
            (Scalar_ops.conjuncts pred)
        in
        if conjuncts = [] then tree
        else Ltree.make (Expr.L_select (Scalar_ops.conjoin conjuncts)) [ tree ]
  in
  (* aggregate collection from SELECT items, HAVING *)
  let item_calls =
    List.concat_map (fun it -> calls_of it.Ast.item_expr) core.Ast.items
  in
  let agg_calls =
    distinct
      (List.filter_map
         (function Ast.E_agg call -> Some call | _ -> None)
         (item_calls @ List.concat_map calls_of (Option.to_list core.Ast.having)))
  in
  let has_aggregation = agg_calls <> [] || core.Ast.group_by <> [] in
  (* grouping expressions that are not plain columns (CASE buckets, aliases
     of computed items, positional references) are computed in a projection
     below the aggregate; SELECT items matching them are rewritten to the
     grouping column *)
  let group_substitutions : (Ast.expr * Colref.t) list ref = ref [] in
  let tree, agg_env =
    if not has_aggregation then (tree, [])
    else begin
      let resolve_group_item (e : Ast.expr) : [ `Col of Colref.t | `Expr of Ast.expr ] =
        match e with
        | Ast.E_col (q, name) -> (
            match resolve scope q name with
            | Some (c, false) -> `Col c
            | Some (_, true) -> error "GROUP BY cannot reference outer columns"
            | None -> (
                (* maybe an alias of a SELECT item *)
                match
                  List.find_opt
                    (fun it -> it.Ast.item_alias = Some name)
                    core.Ast.items
                with
                | Some it -> `Expr it.Ast.item_expr
                | None -> error "GROUP BY column %s not found" name))
        | Ast.E_int (n, _) when n >= 1 && n <= List.length core.Ast.items ->
            `Expr (List.nth core.Ast.items (n - 1)).Ast.item_expr
        | Ast.E_int (n, _) ->
            error "GROUP BY position %d is not in the select list (1..%d)" n
              (List.length core.Ast.items)
        | e -> `Expr e
      in
      let computed = ref [] in
      let group_cols =
        List.map
          (fun e ->
            match resolve_group_item e with
            | `Col c -> c
            | `Expr ast -> (
                match ast with
                | Ast.E_col (q, name) -> (
                    match resolve scope q name with
                    | Some (c, false) -> c
                    | _ -> error "GROUP BY column %s not found" name)
                | ast ->
                    let scalar =
                      bind_expr t
                        { scope; aggs = []; windows = []; pending = ref []; conjunct_ok = false }
                        ast
                    in
                    let g =
                      fresh t ~name:"group_key" ~ty:(Scalar_ops.type_of scalar)
                    in
                    computed := (g, scalar) :: !computed;
                    group_substitutions := (ast, g) :: !group_substitutions;
                    g))
          core.Ast.group_by
      in
      (* pre-projection computing the grouping expressions *)
      let tree =
        if !computed = [] then tree
        else
          let pass =
            List.map
              (fun c -> { Expr.proj_expr = Expr.Col c; proj_out = c })
              (all_columns scope)
          in
          let extra =
            List.rev_map
              (fun (g, scalar) -> { Expr.proj_expr = scalar; proj_out = g })
              !computed
          in
          Ltree.make (Expr.L_project (pass @ extra)) [ tree ]
      in
      (* lower each aggregate call; AVG(x) => SUM(x)/COUNT(x) *)
      let aggs = ref [] in
      let env_for_args = { scope; aggs = []; windows = []; pending = ref []; conjunct_ok = false } in
      let add_agg kind arg distinct ~name ~ty =
        let out = fresh t ~name ~ty in
        aggs :=
          !aggs
          @ [ { Expr.agg_kind = kind; agg_arg = arg; agg_distinct = distinct; agg_out = out } ];
        out
      in
      let agg_env =
        List.map
          (fun (call : Ast.agg_call) ->
            let arg = Option.map (bind_expr t env_for_args) call.Ast.agg_expr in
            let arg_ty =
              match arg with
              | Some a -> Scalar_ops.type_of a
              | None -> Dtype.Int
            in
            let scalar =
              match (call.Ast.agg_name, arg) with
              | "COUNT", None ->
                  Expr.Col (add_agg Expr.Count_star None false ~name:"count" ~ty:Dtype.Int)
              | "COUNT", Some a ->
                  Expr.Col
                    (add_agg Expr.Count (Some a) call.Ast.agg_dist ~name:"count"
                       ~ty:Dtype.Int)
              | "SUM", Some a ->
                  Expr.Col
                    (add_agg Expr.Sum (Some a) call.Ast.agg_dist ~name:"sum" ~ty:arg_ty)
              | "MIN", Some a ->
                  Expr.Col (add_agg Expr.Min (Some a) false ~name:"min" ~ty:arg_ty)
              | "MAX", Some a ->
                  Expr.Col (add_agg Expr.Max (Some a) false ~name:"max" ~ty:arg_ty)
              | "AVG", Some a ->
                  let s =
                    add_agg Expr.Sum (Some a) call.Ast.agg_dist ~name:"avg_sum"
                      ~ty:arg_ty
                  in
                  let c =
                    add_agg Expr.Count (Some a) call.Ast.agg_dist ~name:"avg_count"
                      ~ty:Dtype.Int
                  in
                  Expr.Arith (Expr.Div, Expr.Col s, Expr.Col c)
              | name, None -> error "%s requires an argument" name
              | name, _ -> error "unknown aggregate %s" name
            in
            (call, scalar))
          agg_calls
      in
      ( Ltree.make (Expr.L_gb_agg (Expr.One_phase, group_cols, !aggs)) [ tree ],
        agg_env )
    end
  in
  (* HAVING *)
  let tree =
    match core.Ast.having with
    | None -> tree
    | Some h ->
        let pending = ref [] in
        let pred = bind_expr t { scope; aggs = agg_env; windows = []; pending; conjunct_ok = true } h in
        let tree = attach_pending tree !pending in
        Ltree.make (Expr.L_select pred) [ tree ]
  in
  (* window functions: collect calls from the SELECT items, group them by
     (partition, order) spec, and stack one L_window per spec *)
  let window_calls =
    distinct (List.filter_map (function Ast.E_window w -> Some w | _ -> None) item_calls)
  in
  let tree, window_env =
    if window_calls = [] then (tree, [])
    else begin
      let env0 =
        { scope; aggs = agg_env; windows = []; pending = ref []; conjunct_ok = false }
      in
      let bind_col_expr what e =
        match bind_expr t env0 e with
        | Expr.Col c -> c
        | _ -> error "window %s supports plain columns only" what
      in
      let specs : ((Colref.t list * Sortspec.t) * Expr.wfunc list ref) list ref =
        ref []
      in
      let spec_funcs partition order =
        match
          List.find_opt
            (fun ((p, o), _) ->
              List.length p = List.length partition
              && List.for_all2 Colref.equal p partition
              && Sortspec.equal o order)
            !specs
        with
        | Some (_, funcs) -> funcs
        | None ->
            let funcs = ref [] in
            specs := !specs @ [ ((partition, order), funcs) ];
            funcs
      in
      let window_env =
        List.map
          (fun (call : Ast.window_call) ->
            let partition =
              List.map (bind_col_expr "PARTITION BY") call.Ast.win_partition
            in
            let order =
              List.map
                (fun (e, dir) ->
                  let c = bind_col_expr "ORDER BY" e in
                  match dir with
                  | `Asc -> Sortspec.asc c
                  | `Desc -> Sortspec.desc c)
                call.Ast.win_order
            in
            let funcs = spec_funcs partition order in
            let arg = Option.map (bind_expr t env0) call.Ast.win_expr in
            let arg_ty =
              match arg with Some a -> Scalar_ops.type_of a | None -> Dtype.Int
            in
            let add kind name ty =
              let out = fresh t ~name ~ty in
              funcs :=
                !funcs @ [ { Expr.wf_kind = kind; wf_arg = arg; wf_out = out } ];
              out
            in
            let scalar =
              match call.Ast.win_name with
              | "ROW_NUMBER" ->
                  Expr.Col (add Expr.W_row_number "row_number" Dtype.Int)
              | "RANK" ->
                  if Sortspec.is_empty order then
                    error "RANK() requires an ORDER BY in its window";
                  Expr.Col (add Expr.W_rank "rank" Dtype.Int)
              | "DENSE_RANK" ->
                  if Sortspec.is_empty order then
                    error "DENSE_RANK() requires an ORDER BY in its window";
                  Expr.Col (add Expr.W_dense_rank "dense_rank" Dtype.Int)
              | "COUNT" ->
                  Expr.Col
                    (add
                       (Expr.W_agg
                          (match arg with
                          | None -> Expr.Count_star
                          | Some _ -> Expr.Count))
                       "w_count" Dtype.Int)
              | "SUM" -> Expr.Col (add (Expr.W_agg Expr.Sum) "w_sum" arg_ty)
              | "MIN" -> Expr.Col (add (Expr.W_agg Expr.Min) "w_min" arg_ty)
              | "MAX" -> Expr.Col (add (Expr.W_agg Expr.Max) "w_max" arg_ty)
              | "AVG" ->
                  (* running average = running sum / running count *)
                  let s_out = add (Expr.W_agg Expr.Sum) "w_avg_sum" arg_ty in
                  let c_out = add (Expr.W_agg Expr.Count) "w_avg_count" Dtype.Int in
                  Expr.Arith (Expr.Div, Expr.Col s_out, Expr.Col c_out)
              | name -> error "unknown window function %s" name
            in
            (call, scalar))
          window_calls
      in
      let tree =
        List.fold_left
          (fun acc ((partition, order), funcs) ->
            Ltree.make (Expr.L_window (partition, order, !funcs)) [ acc ])
          tree !specs
      in
      (tree, window_env)
    end
  in
  (* SELECT items *)
  let items =
    List.concat_map
      (fun (item : Ast.select_item) ->
        match item.Ast.item_expr with
        | Ast.E_star ->
            List.map
              (fun c -> { Ast.item_expr = Ast.E_col (None, Colref.name c); item_alias = None })
              (all_columns scope)
            |> fun star_items ->
            if star_items = [] then error "SELECT * with empty FROM" else star_items
        | _ -> [ item ])
      core.Ast.items
  in
  let pending = ref [] in
  let bound_items =
    List.map
      (fun (item : Ast.select_item) ->
        let scalar =
          match
            List.find_opt
              (fun (ast, _) -> ast = item.Ast.item_expr)
              !group_substitutions
          with
          | Some (_, g) -> Expr.Col g
          | None ->
              bind_expr t
                { scope; aggs = agg_env; windows = window_env; pending;
                  conjunct_ok = false }
                item.Ast.item_expr
        in
        (scalar, item.Ast.item_alias))
      items
  in
  let tree = attach_pending tree !pending in
  let projs =
    List.map
      (fun (scalar, alias) ->
        match (scalar, alias) with
        | Expr.Col c, None -> { Expr.proj_expr = scalar; proj_out = c }
        | Expr.Col c, Some a when a = Colref.name c ->
            { Expr.proj_expr = scalar; proj_out = c }
        | _, alias ->
            let name = Option.value alias ~default:"column" in
            let out = fresh t ~name ~ty:(Scalar_ops.type_of scalar) in
            { Expr.proj_expr = scalar; proj_out = out })
      bound_items
  in
  let tree = Ltree.make (Expr.L_project projs) [ tree ] in
  let out_cols = List.map (fun p -> p.Expr.proj_out) projs in
  (* DISTINCT *)
  let tree =
    if core.Ast.distinct then
      Ltree.make (Expr.L_gb_agg (Expr.One_phase, out_cols, [])) [ tree ]
    else tree
  in
  let bindings =
    List.map2 (fun (scalar, _) p -> (scalar, p.Expr.proj_out)) bound_items projs
  in
  last_scope := Some scope;
  (tree, out_cols, bindings)

(* --- bodies and queries --- *)

and bind_body (t : t) (scope : scope) (body : Ast.body) :
    Ltree.t * Colref.t list * (Expr.scalar * Colref.t) list =
  match body with
  | Ast.Select core -> bind_select_core t scope core
  | Ast.Setop (kind, l, r) ->
      let ltree, lout, _ = bind_body t scope l in
      let rtree, rout, _ = bind_body t scope r in
      if List.length lout <> List.length rout then
        error "set operation inputs have different column counts";
      let out =
        List.map (fun c -> fresh t ~name:(Colref.name c) ~ty:(Colref.ty c)) lout
      in
      last_scope := None;
      (Ltree.make (Expr.L_set (kind, out)) [ ltree; rtree ], out, [])

and bind_query_internal (t : t) (scope : scope) (q : Ast.query) :
    Ltree.t * Colref.t list =
  (* CTE definitions are visible to the body and to later CTEs *)
  let saved_ctes = t.ctes in
  let local_ctes =
    List.map
      (fun (name, cq) ->
        let cte_scope = child_scope scope in
        let producer, out = bind_query_internal t cte_scope cq in
        if not (Colref.Set.is_empty !(cte_scope.corr)) then
          error "correlated CTEs are not supported";
        t.cte_counter <- t.cte_counter + 1;
        let info =
          {
            cte_id = t.cte_counter;
            cte_cols = out;
            cte_producer = producer;
            cte_used = false;
          }
        in
        t.ctes <- (name, info) :: t.ctes;
        info)
      q.Ast.ctes
  in
  let q =
    match q.Ast.body with
    | Ast.Select core ->
        let fix =
          Ast.unslot_matched
            (twin_shapes
               (List.map (fun it -> it.Ast.item_expr) core.Ast.items)
               (List.map fst q.Ast.order_by))
        in
        {
          q with
          Ast.body = Ast.Select (map_items fix core);
          order_by = List.map (fun (e, dir) -> (fix e, dir)) q.Ast.order_by;
        }
    | Ast.Setop _ -> q
  in
  let tree, out, bindings = bind_body t scope q.Ast.body in
  let order_scope = Option.value !last_scope ~default:scope in
  (* sorting / limit: resolve against output names, positions, or the bound
     expressions of the SELECT items (aliases included) *)
  let resolve_order_col (e : Ast.expr) : Colref.t =
    match e with
    | Ast.E_int (n, _) when n >= 1 && n <= List.length out -> List.nth out (n - 1)
    | _ -> (
        let by_name =
          match e with
          | Ast.E_col (_, name) ->
              List.find_opt (fun c -> Colref.name c = name) out
          | _ -> None
        in
        match by_name with
        | Some c -> c
        | None -> (
            (* bind the expression and match it against an output item *)
            let bound =
              try
                Some
                  (bind_expr t
                     {
                       scope = order_scope;
                       aggs = [];
                       windows = [];
                       pending = ref [];
                       conjunct_ok = false;
                     }
                     e)
              with _ -> None
            in
            match bound with
            | Some scalar -> (
                match
                  List.find_opt
                    (fun (s, _) -> Scalar_ops.equal s scalar)
                    bindings
                with
                | Some (_, c) -> c
                | None -> (
                    match scalar with
                    | Expr.Col c when List.exists (Colref.equal c) out -> c
                    | _ ->
                        error "ORDER BY expression must appear in the output"))
            | None -> error "ORDER BY expression must appear in the output"))
  in
  let sort =
    List.map
      (fun (e, dir) ->
        let col = resolve_order_col e in
        match dir with `Asc -> Sortspec.asc col | `Desc -> Sortspec.desc col)
      q.Ast.order_by
  in
  let tree =
    match (q.Ast.limit, q.Ast.offset) with
    | None, None -> tree
    | limit, offset ->
        Ltree.make
          (Expr.L_limit
             (sort, Option.value offset ~default:0, limit, q.Ast.limit_slots))
          [ tree ]
  in
  (* wrap used CTEs in anchors, innermost = first defined *)
  let tree =
    List.fold_left
      (fun acc info ->
        if info.cte_used then
          Ltree.make
            (Expr.L_cte_anchor info.cte_id)
            [
              Ltree.make (Expr.L_cte_producer info.cte_id) [ info.cte_producer ];
              acc;
            ]
        else acc)
      tree (List.rev local_ctes)
  in
  t.ctes <- saved_ctes;
  last_sort := sort;
  (tree, out)

(* Bind a parsed query into a DXL query message. *)
let bind (t : t) (q : Ast.query) : Dxl.Dxl_query.t =
  let q = Rollup.expand_query q in
  let scope = empty_scope () in
  let tree, out = bind_query_internal t scope q in
  {
    Dxl.Dxl_query.output = out;
    order = !last_sort;
    dist = Props.Req_singleton;
    tree;
  }

(* SQL text -> DXL query (parser + binder, i.e. the full front-end). *)
let bind_sql (accessor : Catalog.Accessor.t) (sql : string) : Dxl.Dxl_query.t =
  let ast = Obs.Span.with_ ~name:"parse" (fun () -> Parser.parse sql) in
  Obs.Span.with_ ~name:"bind" (fun () -> bind (create accessor) ast)
