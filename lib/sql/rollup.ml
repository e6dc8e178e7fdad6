(* GROUP BY ROLLUP / CUBE expansion.

   ROLLUP (e1, ..., en) computes one aggregate per prefix of the list —
   (e1..en), (e1..e(n-1)), ..., () — and CUBE one per subset, with NULL
   standing in for every rolled-away expression. GPDB/Orca plan grouping
   sets as a shared input aggregated once per set and appended; we realize
   the same semantics as an AST-level rewrite into a UNION ALL of plain
   GROUP BY arms, so the Orca pipeline, the legacy Planner and the naive
   oracle all inherit grouping sets from one place. The finest grouping set
   comes first, which also gives the set-operation its column types. *)

(* Replace every occurrence of a rolled-away grouping expression with NULL.
   The AST is pure data, so equality identifies occurrences; a rolled-away
   expression nested inside a bigger item (e.g. [d_year + 1]) becomes NULL
   there too, and SQL NULL propagation does the rest. Aggregate arguments
   keep the original expression: aggregates are computed over the arm's
   groups, not over the rolled-away columns. *)
let null_out (rolled : Ast.expr list) : Ast.expr -> Ast.expr =
  Ast.map (fun e ->
      if List.mem e rolled then Some Ast.E_null
      else match e with Ast.E_agg _ | Ast.E_window _ -> Some e | _ -> None)

(* Resolve GROUPING(e) calls: 1 when [e] is rolled away in this arm, 0 when
   it is kept. Runs before [null_out] so the argument is still intact. *)
let resolve_grouping (rolled : Ast.expr list) : Ast.expr -> Ast.expr =
  Ast.map (function
    | Ast.E_func ("GROUPING", [ arg ]) ->
        Some (Ast.E_int ((if List.mem arg rolled then 1 else 0), 0))
    | (Ast.E_in_query _ | Ast.E_agg _ | Ast.E_window _) as e -> Some e
    | _ -> None)

(* One UNION ALL arm for the grouping set selected by [mask] (bit i set =
   grouping expression i kept): resolve GROUPING() calls, then NULL the
   rolled-away expressions out of the select list and HAVING. *)
let arm (core : Ast.select_core) (mask : int) : Ast.select_core =
  let kept = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) core.Ast.group_by in
  let rolled =
    (* an expression listed twice (ROLLUP (a, a)) stays live as long as any
       copy is kept -- never NULL out something the arm still groups by *)
    List.filteri (fun i _ -> mask land (1 lsl i) = 0) core.Ast.group_by
    |> List.filter (fun r -> not (List.mem r kept))
  in
  let fix e = null_out rolled (resolve_grouping rolled e) in
  {
    core with
    Ast.items =
      List.map
        (fun it -> { it with Ast.item_expr = fix it.Ast.item_expr })
        core.Ast.items;
    group_by = kept;
    group_mode = Ast.G_plain;
    having = Option.map fix core.Ast.having;
  }

(* The grouping-set masks, finest set first (it determines the set-op
   column names and types). ROLLUP: each prefix. CUBE: each subset, in
   decreasing popcount so coarser sets come later. *)
let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let masks (mode : Ast.group_mode) (n : int) : int list =
  let full = (1 lsl n) - 1 in
  match mode with
  | Ast.G_plain -> [ full ]
  | Ast.G_rollup -> List.init (n + 1) (fun i -> (1 lsl (n - i)) - 1)
  | Ast.G_cube ->
      List.init (full + 1) (fun m -> m)
      |> List.stable_sort (fun a b -> compare (popcount b) (popcount a))
  | Ast.G_sets ms ->
      (* widest set first so it fixes the union's column types; duplicate
         sets are legal SQL and kept (each contributes its rows) *)
      List.stable_sort (fun a b -> compare (popcount b) (popcount a)) ms

let expand_core (core : Ast.select_core) : Ast.body =
  (* the arms match the select list against the grouping expressions, so
     both lose their literals' slots *)
  let fix = Ast.unslot_matched (List.map Ast.shape core.Ast.group_by) in
  let core =
    {
      core with
      Ast.items =
        List.map (fun it -> { it with Ast.item_expr = fix it.Ast.item_expr }) core.Ast.items;
      group_by = List.map fix core.Ast.group_by;
      having = Option.map fix core.Ast.having;
    }
  in
  let n = List.length core.Ast.group_by in
  match masks core.Ast.group_mode n with
  | [] -> Ast.Select (arm core ((1 lsl n) - 1))
  | [ m ] -> Ast.Select (arm core m)
  | first :: rest ->
      List.fold_left
        (fun acc m -> Ast.Setop (Ir.Expr.Union_all, acc, Ast.Select (arm core m)))
        (Ast.Select (arm core first))
        rest

let rec expand_body (b : Ast.body) : Ast.body =
  match b with
  | Ast.Select core ->
      let core = expand_in_core core in
      if core.Ast.group_mode <> Ast.G_plain && core.Ast.group_by <> [] then
        expand_core core
      else Ast.Select { core with Ast.group_mode = Ast.G_plain }
  | Ast.Setop (k, l, r) -> Ast.Setop (k, expand_body l, expand_body r)

(* Recurse into FROM subqueries and subquery expressions so nested ROLLUPs
   expand too. *)
and expand_in_core (core : Ast.select_core) : Ast.select_core =
  let rec in_expr e =
    Ast.map
      (function
        | Ast.E_in_query (a, q, neg) ->
            Some (Ast.E_in_query (in_expr a, expand_query q, neg))
        | Ast.E_exists (q, neg) -> Some (Ast.E_exists (expand_query q, neg))
        | Ast.E_scalar_subquery q -> Some (Ast.E_scalar_subquery (expand_query q))
        | (Ast.E_agg _ | Ast.E_window _) as e -> Some e
        | _ -> None)
      e
  in
  let rec in_from (f : Ast.from_item) : Ast.from_item =
    match f with
    | Ast.F_table _ -> f
    | Ast.F_subquery (q, alias) -> Ast.F_subquery (expand_query q, alias)
    | Ast.F_join (l, jt, r, cond) ->
        Ast.F_join (in_from l, jt, in_from r, Option.map in_expr cond)
  in
  {
    core with
    Ast.items =
      List.map
        (fun it -> { it with Ast.item_expr = in_expr it.Ast.item_expr })
        core.Ast.items;
    from = List.map in_from core.Ast.from;
    where = Option.map in_expr core.Ast.where;
    having = Option.map in_expr core.Ast.having;
  }

and expand_query (q : Ast.query) : Ast.query =
  {
    q with
    Ast.ctes = List.map (fun (name, cq) -> (name, expand_query cq)) q.Ast.ctes;
    body = expand_body q.Ast.body;
  }
