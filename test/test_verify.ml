open Ir

(* The static analyzers (lib/verify): semantic plan linting, Memo winner
   linkage consistency, DXL round-trip — clean on everything the optimizer
   produces, and loud on deliberately corrupted inputs. *)

let errors = Verify.Analyzer.error_count
let report_str = Verify.Diagnostic.report_to_string

let optimize_verified sql =
  let accessor = Fixtures.small_accessor () in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  let config = Orca.Orca_config.with_verify (Lazy.force Fixtures.orca_config) in
  Orca.Optimizer.optimize ~config accessor query

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Splice out the first Motion matching [pick] (depth-first). Motions
   preserve their child's schema, so the surgery keeps the tree well-formed
   structurally — only the distribution semantics break. *)
let rec drop_motion ~pick (p : Expr.plan) : Expr.plan * bool =
  match (p.Expr.pop, p.Expr.pchildren) with
  | Expr.P_motion m, [ c ] when pick m -> (c, true)
  | _ ->
      let dropped, rev_children =
        List.fold_left
          (fun (done_, acc) c ->
            if done_ then (done_, c :: acc)
            else
              let c', d = drop_motion ~pick c in
              (d, c' :: acc))
          (false, []) p.Expr.pchildren
      in
      ({ p with Expr.pchildren = List.rev rev_children }, dropped)

let is_dist_motion = function
  | Expr.Redistribute _ | Expr.Broadcast -> true
  | _ -> false

let is_gather = function
  | Expr.Gather | Expr.Gather_merge _ -> true
  | _ -> false

(* --- optimizer wiring --- *)

let test_wiring () =
  let report =
    optimize_verified "SELECT a, sum(b) FROM t1 GROUP BY a ORDER BY a"
  in
  if report.Orca.Optimizer.diagnostics <> [] then
    Alcotest.failf "expected a clean plan, got:\n%s"
      (report_str report.Orca.Optimizer.diagnostics)

let test_default_config_skips_analyzers () =
  let _, report, _, _ = Fixtures.run_orca_sql "SELECT a FROM t1" in
  Alcotest.(check int)
    "no diagnostics without the verify flag" 0
    (List.length report.Orca.Optimizer.diagnostics)

let test_small_queries_clean () =
  List.iter
    (fun sql ->
      let report = optimize_verified sql in
      if report.Orca.Optimizer.diagnostics <> [] then
        Alcotest.failf "%s:\n%s" sql (report_str report.Orca.Optimizer.diagnostics))
    [
      "SELECT a, b FROM t1 WHERE b > 10";
      "SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.b = t2.a ORDER BY t1.a";
      "SELECT a, count(*) FROM t2 GROUP BY a";
      "SELECT sum(b) FROM t1";
      "SELECT a, b FROM t1 ORDER BY b LIMIT 7";
      "SELECT DISTINCT a FROM t1 UNION SELECT DISTINCT a FROM t2";
    ]

(* --- corrupted plans --- *)

(* Dropping a Redistribute/Broadcast below a join leaves its inputs
   misaligned: the analyzer must name the join node. *)
let test_dropped_motion_detected () =
  let report =
    optimize_verified
      "SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.b = t2.a ORDER BY t1.a"
  in
  Alcotest.(check int)
    "pristine plan is clean" 0
    (errors report.Orca.Optimizer.diagnostics);
  let corrupted, dropped =
    drop_motion ~pick:is_dist_motion report.Orca.Optimizer.plan
  in
  Alcotest.(check bool) "plan contains a distribution motion" true dropped;
  let diags =
    Verify.Plan_check.check ~req:report.Orca.Optimizer.root_req corrupted
  in
  let missing =
    List.filter
      (fun (d : Verify.Diagnostic.t) ->
        d.Verify.Diagnostic.rule = Verify.Plan_check.rule_missing
        && d.Verify.Diagnostic.severity = Verify.Diagnostic.Error)
      diags
  in
  if missing = [] then
    Alcotest.failf "no missing-enforcer diagnostic; analyzer said:\n%s"
      (report_str diags);
  List.iter
    (fun (d : Verify.Diagnostic.t) ->
      Alcotest.(check bool)
        "diagnostic names a node path" true
        (contains ~sub:"root" d.Verify.Diagnostic.path))
    missing

(* Dropping the root Gather leaves a parallel result for a query that must
   deliver to the master. *)
let test_dropped_gather_detected () =
  let report =
    optimize_verified "SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a ORDER BY t1.a"
  in
  let corrupted, dropped =
    drop_motion ~pick:is_gather report.Orca.Optimizer.plan
  in
  Alcotest.(check bool) "plan contains a gather" true dropped;
  let diags =
    Verify.Plan_check.check ~req:report.Orca.Optimizer.root_req corrupted
  in
  Alcotest.(check bool)
    "root-requirement violation reported" true
    (List.exists
       (fun (d : Verify.Diagnostic.t) ->
         d.Verify.Diagnostic.rule = Verify.Plan_check.rule_root)
       diags)

(* --- corrupted Memo --- *)

let test_memo_corruptions () =
  let report = optimize_verified "SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a" in
  let memo = report.Orca.Optimizer.memo in
  let pristine = Verify.Memo_check.check memo in
  Alcotest.(check int) "optimized memo is clean" 0 (errors pristine);
  let root = Memolib.Memo.root memo in
  let rcx =
    match Memolib.Memo.find_context memo root report.Orca.Optimizer.root_req with
    | Some cx -> cx
    | None -> Alcotest.fail "root context missing"
  in
  let best =
    match rcx.Memolib.Memo.cx_best with
    | Some b -> b
    | None -> Alcotest.fail "root winner missing"
  in
  let has_rule rule diags =
    List.exists
      (fun (d : Verify.Diagnostic.t) -> d.Verify.Diagnostic.rule = rule)
      diags
  in
  (* 1. clear a child winner the root's linkage depends on *)
  (match
     (best.Memolib.Memo.a_gexpr.Memolib.Memo.ge_children,
      best.Memolib.Memo.a_child_reqs)
   with
  | child :: _, creq :: _ ->
      let cgid = Memolib.Memo.find memo child in
      let ccx =
        match Memolib.Memo.find_context memo cgid creq with
        | Some cx -> cx
        | None -> Alcotest.fail "child context missing"
      in
      let saved = ccx.Memolib.Memo.cx_best in
      ccx.Memolib.Memo.cx_best <- None;
      let diags = Verify.Memo_check.check memo in
      ccx.Memolib.Memo.cx_best <- saved;
      Alcotest.(check bool)
        "cleared child winner -> missing-winner" true
        (has_rule Verify.Memo_check.rule_missing_winner diags)
  | _ -> Alcotest.fail "root winner has no children to corrupt");
  (* 2. crown the costliest alternative, so a cheaper one exists *)
  let costliest =
    List.fold_left
      (fun (a : Memolib.Memo.alternative) (b : Memolib.Memo.alternative) ->
        if b.Memolib.Memo.a_cost > a.Memolib.Memo.a_cost then b else a)
      best
      (Memolib.Memo.alternatives memo root rcx)
  in
  rcx.Memolib.Memo.cx_best <- Some costliest;
  let diags = Verify.Memo_check.check memo in
  rcx.Memolib.Memo.cx_best <- Some best;
  Alcotest.(check bool)
    "cheaper alternative -> non-minimal-winner" true
    (has_rule Verify.Memo_check.rule_non_minimal diags);
  (* 3. winner claiming properties that violate its request *)
  let lying =
    {
      best with
      Memolib.Memo.a_derived =
        { Props.ddist = Props.D_random; dorder = Sortspec.empty };
    }
  in
  rcx.Memolib.Memo.cx_best <- Some lying;
  let diags = Verify.Memo_check.check memo in
  rcx.Memolib.Memo.cx_best <- Some best;
  Alcotest.(check bool)
    "misreported properties -> winner-violates-request" true
    (has_rule Verify.Memo_check.rule_unsatisfied diags)

(* --- DXL round trip --- *)

let test_roundtrip_clean () =
  let report =
    optimize_verified
      "SELECT t1.a, sum(t2.b) FROM t1 JOIN t2 ON t1.a = t2.a GROUP BY t1.a"
  in
  let diags = Verify.Analyzer.lint_roundtrip report.Orca.Optimizer.plan in
  if diags <> [] then
    Alcotest.failf "round trip not clean:\n%s" (report_str diags)

(* --- property-annotated EXPLAIN --- *)

let test_show_props_rendering () =
  let report =
    optimize_verified "SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a ORDER BY t1.a"
  in
  let plain = Plan_ops.to_string report.Orca.Optimizer.plan in
  let annotated =
    Plan_ops.to_string ~show_props:true report.Orca.Optimizer.plan
  in
  Alcotest.(check bool) "plain output has no props" false (contains ~sub:"{" plain);
  Alcotest.(check bool)
    "annotated output shows the gathered root" true
    (contains ~sub:"Singleton" annotated);
  Alcotest.(check bool)
    "annotated output shows hashed scans" true
    (contains ~sub:"Hashed(" annotated);
  let derived = Plan_ops.derive_props report.Orca.Optimizer.plan in
  Alcotest.(check bool)
    "root delivers the query's requirement" true
    (Props.satisfies derived report.Orca.Optimizer.root_req)

(* --- the whole TPC-DS workload --- *)

let test_tpcds_suite_clean () =
  let config =
    Orca.Orca_config.with_verify
      (Orca.Orca_config.with_segments Orca.Orca_config.default Fixtures.nsegs)
  in
  List.iter
    (fun (q : Tpcds.Queries.def) ->
      let accessor = Fixtures.tpcds_accessor () in
      let query = Sqlfront.Binder.bind_sql accessor q.Tpcds.Queries.sql in
      let report = Orca.Optimizer.optimize ~config accessor query in
      if errors report.Orca.Optimizer.diagnostics > 0 then
        Alcotest.failf "q%d has analyzer errors:\n%s" q.Tpcds.Queries.qid
          (report_str report.Orca.Optimizer.diagnostics))
    (Lazy.force Tpcds.Queries.all)

let suite =
  [
    Alcotest.test_case "optimizer wiring populates diagnostics" `Quick
      test_wiring;
    Alcotest.test_case "default config skips the analyzers" `Quick
      test_default_config_skips_analyzers;
    Alcotest.test_case "small queries lint clean" `Quick
      test_small_queries_clean;
    Alcotest.test_case "dropped Motion -> missing-enforcer" `Quick
      test_dropped_motion_detected;
    Alcotest.test_case "dropped Gather -> root-requirement" `Quick
      test_dropped_gather_detected;
    Alcotest.test_case "Memo corruptions are reported" `Quick
      test_memo_corruptions;
    Alcotest.test_case "DXL round trip is clean" `Quick test_roundtrip_clean;
    Alcotest.test_case "show_props rendering" `Quick test_show_props_rendering;
    Alcotest.test_case "all TPC-DS queries lint clean" `Slow
      test_tpcds_suite_clean;
  ]
