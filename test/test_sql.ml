open Ir

(* Tests for the SQL front-end: lexer, parser, binder, feature detection. *)

let test_lexer_basic () =
  let toks = Sqlfront.Lexer.tokenize "SELECT a, 'it''s' FROM t1 WHERE x >= 1.5 -- c" in
  let open Sqlfront.Token in
  Alcotest.(check bool) "shape" true
    (toks
    = [
        KEYWORD "SELECT"; IDENT "a"; SYMBOL ","; STRING "it's"; KEYWORD "FROM";
        IDENT "t1"; KEYWORD "WHERE"; IDENT "x"; SYMBOL ">="; FLOAT 1.5; EOF;
      ])

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (try
       ignore (Sqlfront.Lexer.tokenize "SELECT @");
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Parse_error, _) -> true);
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (Sqlfront.Lexer.tokenize "SELECT 'oops");
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Parse_error, _) -> true)

let parse = Sqlfront.Parser.parse

let test_parser_precedence () =
  let q = parse "SELECT a + b * 2 FROM t1 WHERE a = 1 OR b = 2 AND a < 3" in
  match q.Sqlfront.Ast.body with
  | Sqlfront.Ast.Select core -> (
      (match (List.hd core.Sqlfront.Ast.items).Sqlfront.Ast.item_expr with
      | Sqlfront.Ast.E_arith (Expr.Add, _, Sqlfront.Ast.E_arith (Expr.Mul, _, _)) -> ()
      | _ -> Alcotest.fail "mul binds tighter than add");
      match core.Sqlfront.Ast.where with
      | Some (Sqlfront.Ast.E_or (_, Sqlfront.Ast.E_and (_, _))) -> ()
      | _ -> Alcotest.fail "AND binds tighter than OR")
  | _ -> Alcotest.fail "expected select"

let test_parser_joins () =
  let q =
    parse
      "SELECT * FROM t1 JOIN t2 ON t1.a = t2.b LEFT OUTER JOIN t2 x ON x.a = t1.a"
  in
  match q.Sqlfront.Ast.body with
  | Sqlfront.Ast.Select { from = [ Sqlfront.Ast.F_join (inner, Sqlfront.Ast.J_left, _, _) ]; _ } -> (
      match inner with
      | Sqlfront.Ast.F_join (_, Sqlfront.Ast.J_inner, _, Some _) -> ()
      | _ -> Alcotest.fail "inner join first")
  | _ -> Alcotest.fail "expected left join of inner join"

let test_parser_setops_ctes () =
  let q =
    parse
      "WITH w AS (SELECT a FROM t1) SELECT a FROM w UNION ALL SELECT b FROM t2 \
       ORDER BY 1 LIMIT 3 OFFSET 1"
  in
  Alcotest.(check int) "one cte" 1 (List.length q.Sqlfront.Ast.ctes);
  (match q.Sqlfront.Ast.body with
  | Sqlfront.Ast.Setop (Expr.Union_all, _, _) -> ()
  | _ -> Alcotest.fail "expected union all");
  Alcotest.(check (option int)) "limit" (Some 3) q.Sqlfront.Ast.limit;
  Alcotest.(check (option int)) "offset" (Some 1) q.Sqlfront.Ast.offset

let test_parser_subqueries () =
  let q =
    parse
      "SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t2) AND a IN (SELECT b \
       FROM t2) AND b > (SELECT max(a) FROM t2) AND a NOT IN (1, 2)"
  in
  match q.Sqlfront.Ast.body with
  | Sqlfront.Ast.Select { where = Some w; _ } ->
      let rec count e =
        match e with
        | Sqlfront.Ast.E_and (a, b) -> count a + count b
        | Sqlfront.Ast.E_exists _ -> 1
        | Sqlfront.Ast.E_in_query _ -> 1
        | Sqlfront.Ast.E_cmp (_, _, Sqlfront.Ast.E_scalar_subquery _) -> 1
        | _ -> 0
      in
      Alcotest.(check int) "three subqueries" 3 (count w)
  | _ -> Alcotest.fail "expected select"

let test_parser_case_between () =
  let q =
    parse
      "SELECT CASE WHEN a BETWEEN 1 AND 2 THEN 'x' ELSE 'y' END AS c FROM t1"
  in
  match q.Sqlfront.Ast.body with
  | Sqlfront.Ast.Select { items = [ { item_expr = Sqlfront.Ast.E_case ([ (Sqlfront.Ast.E_between _, _) ], Some _); item_alias = Some "c" } ]; _ } ->
      ()
  | _ -> Alcotest.fail "expected case/between"

let test_parser_trailing_garbage () =
  Alcotest.(check bool) "rejects" true
    (try
       ignore (parse "SELECT a FROM t1 banana splat");
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Parse_error, _) -> true)

(* --- binder --- *)

let bind sql =
  let accessor = Fixtures.small_accessor () in
  Sqlfront.Binder.bind_sql accessor sql

let test_bind_star_expansion () =
  let q = bind "SELECT * FROM t1" in
  Alcotest.(check int) "two columns" 2 (List.length q.Dxl.Dxl_query.output);
  Alcotest.(check (list string)) "names" [ "a"; "b" ]
    (List.map Colref.name q.Dxl.Dxl_query.output)

let test_bind_self_join_aliases () =
  let q = bind "SELECT x.a, y.a FROM t1 x, t1 y WHERE x.a = y.b" in
  match q.Dxl.Dxl_query.output with
  | [ c1; c2 ] ->
      Alcotest.(check bool) "distinct colrefs" true (Colref.id c1 <> Colref.id c2)
  | _ -> Alcotest.fail "two outputs expected"

let test_bind_ambiguous_alias () =
  Alcotest.(check bool) "unknown column" true
    (try
       ignore (bind "SELECT zzz FROM t1");
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Bind_error, _) -> true);
  Alcotest.(check bool) "unknown table" true
    (try
       ignore (bind "SELECT a FROM not_a_table");
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Bind_error, _) -> true)

let test_bind_group_by_position () =
  let q = bind "SELECT b, count(*) AS c FROM t1 GROUP BY 1" in
  Alcotest.(check int) "in-range position binds" 2
    (List.length q.Dxl.Dxl_query.output);
  List.iter
    (fun sql ->
      Alcotest.(check bool) sql true
        (try
           ignore (bind sql);
           false
         with Gpos.Gpos_error.Error (Gpos.Gpos_error.Bind_error, _) -> true))
    [ "SELECT a FROM t1 GROUP BY 99"; "SELECT a FROM t1 GROUP BY 0" ]

let test_bind_avg_rewrite () =
  let q = bind "SELECT avg(a) AS m FROM t1" in
  (* AVG decomposes into SUM/COUNT at bind time *)
  let has_div = ref false and agg_kinds = ref [] in
  let rec walk (t : Ltree.t) =
    (match t.Ltree.op with
    | Expr.L_project projs ->
        List.iter
          (fun p ->
            match p.Expr.proj_expr with
            | Expr.Arith (Expr.Div, _, _) -> has_div := true
            | _ -> ())
          projs
    | Expr.L_gb_agg (_, _, aggs) ->
        agg_kinds := List.map (fun a -> a.Expr.agg_kind) aggs @ !agg_kinds
    | _ -> ());
    List.iter walk t.Ltree.children
  in
  walk q.Dxl.Dxl_query.tree;
  Alcotest.(check bool) "division in projection" true !has_div;
  Alcotest.(check bool) "sum and count" true
    (List.mem Expr.Sum !agg_kinds && List.mem Expr.Count !agg_kinds)

let test_bind_group_by_validation () =
  Alcotest.(check bool) "aggregate in WHERE rejected" true
    (try
       ignore (bind "SELECT a FROM t1 WHERE sum(b) > 3");
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Bind_error, _) -> true)

let test_bind_exists_under_or_rejected () =
  Alcotest.(check bool) "EXISTS under OR rejected" true
    (try
       ignore
         (bind
            "SELECT a FROM t1 WHERE a = 1 OR EXISTS (SELECT 1 FROM t2 WHERE t2.b = t1.a)");
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Bind_error, _) -> true)

let test_bind_order_by_alias_and_position () =
  let q = bind "SELECT a AS alpha, b FROM t1 ORDER BY alpha DESC, 2" in
  match q.Dxl.Dxl_query.order with
  | [ o1; o2 ] ->
      Alcotest.(check bool) "desc on alias" true (o1.Sortspec.dir = Sortspec.Desc);
      Alcotest.(check string) "position 2 is b" "b" (Colref.name o2.Sortspec.col)
  | _ -> Alcotest.fail "two sort keys"

let test_bind_correlation_tracking () =
  let q =
    bind "SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.b = t1.a)"
  in
  let corr = ref [] in
  let rec walk (t : Ltree.t) =
    (match t.Ltree.op with
    | Expr.L_apply (_, cols) -> corr := cols @ !corr
    | _ -> ());
    List.iter walk t.Ltree.children
  in
  walk q.Dxl.Dxl_query.tree;
  Alcotest.(check int) "one correlation column" 1 (List.length !corr);
  Alcotest.(check string) "is t1.a" "a" (Colref.name (List.hd !corr))

let test_bind_validates () =
  (* every bound tree passes column-visibility validation *)
  List.iter
    (fun sql -> Ltree.validate (bind sql).Dxl.Dxl_query.tree)
    [
      "SELECT * FROM t1";
      "SELECT t1.a, count(*) AS c FROM t1, t2 WHERE t1.a = t2.b GROUP BY t1.a";
      "WITH w AS (SELECT a, count(*) AS c FROM t1 GROUP BY a) SELECT w1.a FROM w w1, w w2 WHERE w1.a = w2.a";
      "SELECT a FROM t1 WHERE b IN (SELECT b FROM t2 WHERE t2.a = t1.a)";
      "SELECT a FROM t1 UNION SELECT b FROM t2";
      "SELECT DISTINCT a FROM t1 LEFT JOIN t2 ON t1.a = t2.b WHERE t2.a IS NULL";
    ]

(* --- feature detection --- *)

let test_features () =
  let fs sql = Tpcds.Features.of_sql sql in
  Alcotest.(check bool) "with" true
    (List.mem Tpcds.Features.F_with
       (fs "WITH w AS (SELECT a FROM t1) SELECT a FROM w"));
  Alcotest.(check bool) "intersect" true
    (List.mem Tpcds.Features.F_intersect
       (fs "SELECT a FROM t1 INTERSECT SELECT b FROM t2"));
  Alcotest.(check bool) "order-no-limit" true
    (List.mem Tpcds.Features.F_order_no_limit (fs "SELECT a FROM t1 ORDER BY a"));
  Alcotest.(check bool) "limit clears it" false
    (List.mem Tpcds.Features.F_order_no_limit
       (fs "SELECT a FROM t1 ORDER BY a LIMIT 1"));
  Alcotest.(check bool) "non-equi join" true
    (List.mem Tpcds.Features.F_non_equi_join
       (fs "SELECT * FROM t1 JOIN t2 ON t1.a < t2.b"));
  Alcotest.(check bool) "equi join is not flagged" false
    (List.mem Tpcds.Features.F_non_equi_join
       (fs "SELECT * FROM t1 JOIN t2 ON t1.a = t2.b AND t1.b < t2.a"))

(* --- GROUP BY ROLLUP --- *)

let test_rollup_parse_and_expand () =
  let ast =
    Sqlfront.Parser.parse
      "SELECT a, b, count(*) AS c FROM t1 GROUP BY ROLLUP (a, b)"
  in
  (match ast.Sqlfront.Ast.body with
  | Sqlfront.Ast.Select core ->
      Alcotest.(check bool) "rollup flag" true
        (core.Sqlfront.Ast.group_mode = Sqlfront.Ast.G_rollup);
      Alcotest.(check int) "two rollup exprs" 2
        (List.length core.Sqlfront.Ast.group_by)
  | _ -> Alcotest.fail "expected select body");
  (* expansion: three UNION ALL arms, finest grouping set leftmost *)
  let expanded = Sqlfront.Rollup.expand_query ast in
  let rec arms = function
    | Sqlfront.Ast.Select core -> [ core ]
    | Sqlfront.Ast.Setop (Ir.Expr.Union_all, l, r) -> arms l @ arms r
    | Sqlfront.Ast.Setop _ -> Alcotest.fail "expected UNION ALL"
  in
  let cores = arms expanded.Sqlfront.Ast.body in
  Alcotest.(check int) "three grouping sets" 3 (List.length cores);
  Alcotest.(check (list int)) "prefix group lists" [ 2; 1; 0 ]
    (List.map
       (fun (c : Sqlfront.Ast.select_core) -> List.length c.Sqlfront.Ast.group_by)
       cores);
  List.iter
    (fun (c : Sqlfront.Ast.select_core) ->
      Alcotest.(check bool) "flag cleared" true
        (c.Sqlfront.Ast.group_mode = Sqlfront.Ast.G_plain))
    cores;
  (* the grand-total arm's select list NULLs out both grouping columns *)
  let total = List.nth cores 2 in
  (match (List.nth total.Sqlfront.Ast.items 0).Sqlfront.Ast.item_expr with
  | Sqlfront.Ast.E_null -> ()
  | _ -> Alcotest.fail "rolled-up column should be NULL");
  (* a plain GROUP BY is untouched *)
  let plain =
    Sqlfront.Rollup.expand_query
      (Sqlfront.Parser.parse "SELECT a, count(*) AS c FROM t1 GROUP BY a")
  in
  match plain.Sqlfront.Ast.body with
  | Sqlfront.Ast.Select _ -> ()
  | _ -> Alcotest.fail "plain GROUP BY must not expand"

let test_rollup_semantics () =
  (* rollup rows = the union of the plain aggregate, per-prefix subtotals and
     the grand total; checked against a hand-written union and against the
     naive oracle *)
  let rollup_sql =
    "SELECT a, b, count(*) AS c, sum(b) AS s FROM t1 WHERE a < 6 GROUP BY \
     ROLLUP (a, b) ORDER BY a, b, c LIMIT 500"
  in
  let manual_sql =
    "SELECT a, b, count(*) AS c, sum(b) AS s FROM t1 WHERE a < 6 GROUP BY a, \
     b UNION ALL SELECT a, NULL, count(*) AS c, sum(b) AS s FROM t1 WHERE a \
     < 6 GROUP BY a UNION ALL SELECT NULL, NULL, count(*) AS c, sum(b) AS s \
     FROM t1 WHERE a < 6 ORDER BY a, b, c LIMIT 500"
  in
  let _, _, rollup_rows, _ = Fixtures.run_orca_sql rollup_sql in
  let _, _, manual_rows, _ = Fixtures.run_orca_sql manual_sql in
  Alcotest.(check bool) "rollup = hand-written union" true
    (Fixtures.rows_equal rollup_rows manual_rows);
  Alcotest.(check bool) "rollup matches naive" true
    (Fixtures.rows_equal rollup_rows (Fixtures.run_naive_sql rollup_sql));
  let _, planner_rows, _ = Fixtures.run_planner_sql rollup_sql in
  Alcotest.(check bool) "rollup matches planner" true
    (Fixtures.rows_equal rollup_rows planner_rows);
  (* feature detection is mechanical *)
  Alcotest.(check bool) "F_rollup detected" true
    (List.mem Tpcds.Features.F_rollup (Tpcds.Features.of_sql rollup_sql));
  Alcotest.(check bool) "no F_rollup on the manual union" false
    (List.mem Tpcds.Features.F_rollup (Tpcds.Features.of_sql manual_sql))

let test_rollup_grouping () =
  (* GROUPING(e) = 1 exactly on the rows where [e] was rolled away; the
     lochierarchy idiom of real TPC-DS q36/q70/q86 *)
  let sql =
    "SELECT a, b, grouping(a) + grouping(b) AS lochierarchy, count(*) AS c \
     FROM t1 WHERE a < 4 GROUP BY ROLLUP (a, b) ORDER BY lochierarchy DESC, \
     a, b LIMIT 400"
  in
  let _, _, rows, _ = Fixtures.run_orca_sql sql in
  Alcotest.(check bool) "matches naive" true
    (Fixtures.rows_equal rows (Fixtures.run_naive_sql sql));
  (* grand total: lochierarchy=2, both keys NULL; exactly one such row *)
  let totals =
    List.filter (fun r -> r.(2) = Ir.Datum.Int 2) rows
  in
  Alcotest.(check int) "one grand-total row" 1 (List.length totals);
  let t = List.hd totals in
  Alcotest.(check bool) "grand total keys are NULL" true
    (Ir.Datum.is_null t.(0) && Ir.Datum.is_null t.(1));
  (* level-1 rows: a kept, b rolled away *)
  List.iter
    (fun r ->
      if r.(2) = Ir.Datum.Int 1 then
        Alcotest.(check bool) "subtotal: a real, b NULL" true
          ((not (Ir.Datum.is_null r.(0))) && Ir.Datum.is_null r.(1));
      if r.(2) = Ir.Datum.Int 0 then
        Alcotest.(check bool) "detail: both real" true
          ((not (Ir.Datum.is_null r.(0))) && not (Ir.Datum.is_null r.(1))))
    rows;
  (* the detail counts sum to the grand total *)
  let sum_detail =
    List.fold_left
      (fun acc r ->
        match (r.(2), r.(3)) with
        | Ir.Datum.Int 0, Ir.Datum.Int c -> acc + c
        | _ -> acc)
      0 rows
  in
  Alcotest.(check bool) "details sum to total" true
    (t.(3) = Ir.Datum.Int sum_detail)

let test_rollup_duplicate_expr () =
  (* ROLLUP (a, a): the duplicated expression stays live while any copy is
     kept; grouping sets degenerate to (a), (a), () *)
  let dup_sql =
    "SELECT a, count(*) AS c FROM t1 WHERE a < 5 GROUP BY ROLLUP (a, a) \
     ORDER BY a, c LIMIT 300"
  in
  let manual_sql =
    "SELECT a, count(*) AS c FROM t1 WHERE a < 5 GROUP BY a UNION ALL \
     SELECT a, count(*) AS c FROM t1 WHERE a < 5 GROUP BY a UNION ALL \
     SELECT NULL, count(*) AS c FROM t1 WHERE a < 5 ORDER BY a, c LIMIT 300"
  in
  let _, _, dup_rows, _ = Fixtures.run_orca_sql dup_sql in
  let _, _, manual_rows, _ = Fixtures.run_orca_sql manual_sql in
  Alcotest.(check bool) "duplicate rollup expr handled" true
    (Fixtures.rows_equal dup_rows manual_rows);
  Alcotest.(check bool) "matches naive" true
    (Fixtures.rows_equal dup_rows (Fixtures.run_naive_sql dup_sql))

let test_cube_semantics () =
  (* CUBE (a, b) = rollup's grouping sets plus the (b)-only subtotal *)
  let cube_sql =
    "SELECT a, b, count(*) AS c FROM t1 WHERE a < 5 GROUP BY CUBE (a, b) \
     ORDER BY a, b, c LIMIT 600"
  in
  let manual_sql =
    "SELECT a, b, count(*) AS c FROM t1 WHERE a < 5 GROUP BY a, b UNION ALL \
     SELECT a, NULL, count(*) AS c FROM t1 WHERE a < 5 GROUP BY a UNION ALL \
     SELECT NULL, b, count(*) AS c FROM t1 WHERE a < 5 GROUP BY b UNION ALL \
     SELECT NULL, NULL, count(*) AS c FROM t1 WHERE a < 5 ORDER BY a, b, c \
     LIMIT 600"
  in
  let _, _, cube_rows, _ = Fixtures.run_orca_sql cube_sql in
  let _, _, manual_rows, _ = Fixtures.run_orca_sql manual_sql in
  Alcotest.(check bool) "cube = hand-written union of 4 sets" true
    (Fixtures.rows_equal cube_rows manual_rows);
  Alcotest.(check bool) "cube matches naive" true
    (Fixtures.rows_equal cube_rows (Fixtures.run_naive_sql cube_sql));
  let _, planner_rows, _ = Fixtures.run_planner_sql cube_sql in
  Alcotest.(check bool) "cube matches planner" true
    (Fixtures.rows_equal cube_rows planner_rows);
  Alcotest.(check bool) "detected as grouping-sets feature" true
    (List.mem Tpcds.Features.F_rollup (Tpcds.Features.of_sql cube_sql))

let test_grouping_sets_semantics () =
  (* explicit GROUPING SETS: exactly the named sets, no more *)
  let gs_sql =
    "SELECT a, b, count(*) AS c FROM t1 WHERE a < 5 GROUP BY GROUPING SETS \
     ((a, b), (b), ()) ORDER BY a, b, c LIMIT 600"
  in
  let manual_sql =
    "SELECT a, b, count(*) AS c FROM t1 WHERE a < 5 GROUP BY a, b UNION ALL \
     SELECT NULL, b, count(*) AS c FROM t1 WHERE a < 5 GROUP BY b UNION ALL \
     SELECT NULL, NULL, count(*) AS c FROM t1 WHERE a < 5 ORDER BY a, b, c \
     LIMIT 600"
  in
  let _, _, gs_rows, _ = Fixtures.run_orca_sql gs_sql in
  let _, _, manual_rows, _ = Fixtures.run_orca_sql manual_sql in
  Alcotest.(check bool) "grouping sets = hand-written union" true
    (Fixtures.rows_equal gs_rows manual_rows);
  Alcotest.(check bool) "matches naive" true
    (Fixtures.rows_equal gs_rows (Fixtures.run_naive_sql gs_sql));
  (* a bare expression is a one-element set *)
  let bare_sql =
    "SELECT a, count(*) AS c FROM t1 WHERE a < 5 GROUP BY GROUPING SETS (a) \
     ORDER BY a, c"
  in
  let plain_sql =
    "SELECT a, count(*) AS c FROM t1 WHERE a < 5 GROUP BY a ORDER BY a, c"
  in
  let _, _, bare_rows, _ = Fixtures.run_orca_sql bare_sql in
  let _, _, plain_rows, _ = Fixtures.run_orca_sql plain_sql in
  Alcotest.(check bool) "bare set = plain group by" true
    (Fixtures.rows_equal bare_rows plain_rows)

let suite =
  [
    Alcotest.test_case "lexer basic" `Quick test_lexer_basic;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser joins" `Quick test_parser_joins;
    Alcotest.test_case "parser setops/ctes" `Quick test_parser_setops_ctes;
    Alcotest.test_case "parser subqueries" `Quick test_parser_subqueries;
    Alcotest.test_case "parser case/between" `Quick test_parser_case_between;
    Alcotest.test_case "parser trailing garbage" `Quick test_parser_trailing_garbage;
    Alcotest.test_case "bind star" `Quick test_bind_star_expansion;
    Alcotest.test_case "bind self join" `Quick test_bind_self_join_aliases;
    Alcotest.test_case "bind errors" `Quick test_bind_ambiguous_alias;
    Alcotest.test_case "GROUP BY position out of range" `Quick
      test_bind_group_by_position;
    Alcotest.test_case "bind avg rewrite" `Quick test_bind_avg_rewrite;
    Alcotest.test_case "bind agg in where" `Quick test_bind_group_by_validation;
    Alcotest.test_case "bind exists under or" `Quick test_bind_exists_under_or_rejected;
    Alcotest.test_case "bind order by alias" `Quick test_bind_order_by_alias_and_position;
    Alcotest.test_case "bind correlation" `Quick test_bind_correlation_tracking;
    Alcotest.test_case "bind validates" `Quick test_bind_validates;
    Alcotest.test_case "feature detection" `Quick test_features;
    Alcotest.test_case "rollup parse+expand" `Quick test_rollup_parse_and_expand;
    Alcotest.test_case "rollup semantics" `Quick test_rollup_semantics;
    Alcotest.test_case "rollup grouping()" `Quick test_rollup_grouping;
    Alcotest.test_case "rollup duplicate expr" `Quick test_rollup_duplicate_expr;
    Alcotest.test_case "cube semantics" `Quick test_cube_semantics;
    Alcotest.test_case "grouping sets" `Quick test_grouping_sets_semantics;
  ]
