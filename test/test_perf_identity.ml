open Ir

(* The hot-path speedups (operator interning, stats memoization, rule
   pre-filters, winner reuse — lib/core/orca_config.mli §"Hot-path
   speedups") must be invisible in every output: same chosen plan, same
   cost, same Memo growth, same static-analyzer findings, with the four
   caches on or off. These tests pin that contract; the opt-speed
   benchmark (bench/main.ml) re-proves it over all 111 TPC-DS queries on
   every perf-gate run. *)

(* --- rule pre-filter bitmaps ------------------------------------------- *)

let all_tags = List.init Logical_ops.nshapes (fun i -> i)

let test_shape_tags_dense () =
  (* every shape maps to a distinct tag in [0, nshapes) *)
  let shapes =
    [
      Logical_ops.S_get;
      Logical_ops.S_select;
      Logical_ops.S_project;
      Logical_ops.S_join;
      Logical_ops.S_gb_agg;
      Logical_ops.S_window;
      Logical_ops.S_limit;
      Logical_ops.S_apply;
      Logical_ops.S_cte_producer;
      Logical_ops.S_cte_anchor;
      Logical_ops.S_cte_consumer;
      Logical_ops.S_set;
      Logical_ops.S_const_table;
    ]
  in
  Alcotest.(check int) "shape list covers nshapes" Logical_ops.nshapes
    (List.length shapes);
  let tags = List.map Logical_ops.shape_tag shapes in
  Alcotest.(check (list int)) "tags dense and unique"
    all_tags
    (List.sort compare tags)

let test_shape_masks () =
  Alcotest.(check int) "empty mask" 0 (Logical_ops.shape_mask []);
  Alcotest.(check int) "mask of every shape = all_shapes_mask"
    Logical_ops.all_shapes_mask
    (Logical_ops.shape_mask
       [
         Logical_ops.S_get;
         Logical_ops.S_select;
         Logical_ops.S_project;
         Logical_ops.S_join;
         Logical_ops.S_gb_agg;
         Logical_ops.S_window;
         Logical_ops.S_limit;
         Logical_ops.S_apply;
         Logical_ops.S_cte_producer;
         Logical_ops.S_cte_anchor;
         Logical_ops.S_cte_consumer;
         Logical_ops.S_set;
         Logical_ops.S_const_table;
       ]);
  (* a single-shape mask has exactly that bit *)
  let m = Logical_ops.shape_mask [ Logical_ops.S_join ] in
  Alcotest.(check int) "single-shape mask"
    (1 lsl Logical_ops.shape_tag Logical_ops.S_join)
    m

let find_rule name =
  match Xform.Ruleset.find_by_name Xform.Ruleset.default name with
  | Some r -> r
  | None -> Alcotest.failf "rule %s not in the default ruleset" name

let test_rule_prefilter_bitmaps () =
  (* a shape-restricted rule accepts exactly its declared shapes *)
  let join_rule = find_rule "JoinCommutativity" in
  let join_tag = Logical_ops.shape_tag Logical_ops.S_join in
  Alcotest.(check bool) "join rule applicable on S_join" true
    (Xform.Rule.applicable_tag join_rule join_tag);
  List.iter
    (fun tag ->
      if tag <> join_tag then
        Alcotest.(check bool)
          (Printf.sprintf "JoinCommutativity filtered on tag %d" tag)
          false
          (Xform.Rule.applicable_tag join_rule tag))
    all_tags;
  (* [applicable] is [applicable_tag] on the operator's shape *)
  let join_op = Expr.L_join (Expr.Inner, Expr.Const (Datum.Bool true)) in
  let limit_op = Expr.L_limit (Sortspec.empty, 0, None, Expr.no_limit_slots) in
  Alcotest.(check bool) "applicable on a join op" true
    (Xform.Rule.applicable join_rule join_op);
  Alcotest.(check bool) "not applicable on a limit op" false
    (Xform.Rule.applicable join_rule limit_op);
  let limit_rule = find_rule "Limit2Limit" in
  Alcotest.(check bool) "limit rule applicable on limit op" true
    (Xform.Rule.applicable limit_rule limit_op);
  Alcotest.(check bool) "limit rule filtered on join op" false
    (Xform.Rule.applicable limit_rule join_op)

let test_unrestricted_rule_mask () =
  (* a rule made without ~shapes pre-filters nothing *)
  let r =
    Xform.Rule.make ~name:"TestEverywhere" ~kind:Xform.Rule.Exploration
      (fun _ _ _ -> [])
  in
  Alcotest.(check int) "mask is all_shapes_mask" Logical_ops.all_shapes_mask
    r.Xform.Rule.mask;
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (Printf.sprintf "applicable on tag %d" tag)
        true
        (Xform.Rule.applicable_tag r tag))
    all_tags

let test_every_default_rule_mask_nonempty () =
  (* a rule whose mask admits no shape could never fire — a declaration
     bug the bitmap machinery would silently hide *)
  List.iter
    (fun (r : Xform.Rule.t) ->
      Alcotest.(check bool)
        (r.Xform.Rule.name ^ " mask admits at least one shape")
        true
        (List.exists (Xform.Rule.applicable_tag r) all_tags))
    (Xform.Ruleset.rules Xform.Ruleset.default)

(* --- identity: speedups on vs off -------------------------------------- *)

(* fingerprint of everything the speedups must not change *)
let fingerprint (report : Orca.Optimizer.report) =
  ( Dxl.Dxl_plan.to_string report.Orca.Optimizer.plan,
    report.Orca.Optimizer.plan.Expr.pcost,
    report.Orca.Optimizer.groups,
    report.Orca.Optimizer.gexprs,
    List.map Verify.Diagnostic.to_string report.Orca.Optimizer.diagnostics )

let optimize_small ~config sql =
  let accessor = Fixtures.small_accessor () in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  Orca.Optimizer.optimize ~config accessor query

let small_config = lazy (Orca.Orca_config.with_verify (Lazy.force Fixtures.orca_config))

let check_identical_small label sql config_off =
  let on = fingerprint (optimize_small ~config:(Lazy.force small_config) sql) in
  let off = fingerprint (optimize_small ~config:config_off sql) in
  let dxl_on, cost_on, groups_on, gexprs_on, diags_on = on in
  let dxl_off, cost_off, groups_off, gexprs_off, diags_off = off in
  Alcotest.(check string) (label ^ ": plan DXL") dxl_on dxl_off;
  Alcotest.(check (float 0.0)) (label ^ ": cost") cost_on cost_off;
  Alcotest.(check int) (label ^ ": memo groups") groups_on groups_off;
  Alcotest.(check int) (label ^ ": memo gexprs") gexprs_on gexprs_off;
  Alcotest.(check (list string)) (label ^ ": verify findings") diags_on diags_off

let small_queries =
  [
    "SELECT a, b FROM t1 WHERE a < 40 ORDER BY a, b LIMIT 50";
    "SELECT t1.a, t1.b, t2.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY 1, 2, 3 \
     LIMIT 100";
    "SELECT b, count(*) AS c, sum(a) AS s FROM t1 GROUP BY b ORDER BY b";
    "SELECT t1.a, count(*) AS c FROM t1, t2 WHERE t1.a = t2.b AND t2.a < 150 \
     GROUP BY t1.a ORDER BY t1.a LIMIT 20";
    "SELECT a, b, row_number() OVER (PARTITION BY a ORDER BY b) AS r FROM t1 \
     ORDER BY a, b LIMIT 80";
  ]

let test_identity_all_off () =
  let base = Lazy.force small_config in
  let off = Orca.Orca_config.without_speedups base in
  List.iter (fun sql -> check_identical_small "all off" sql off) small_queries

(* qcheck: speedups on and off, on random queries over the small schema,
   produce the identical plan/cost/Memo/lint fingerprint *)
let rand_query (seed : int) : string =
  let rng = Gpos.Prng.create (seed + 31_000) in
  let joined = Gpos.Prng.bool rng in
  let grouped = Gpos.Prng.bool rng in
  let pred table =
    let col = if Gpos.Prng.bool rng then table ^ ".a" else table ^ ".b" in
    Printf.sprintf "%s < %d" col (5 + Gpos.Prng.int rng 250)
  in
  if joined then
    Printf.sprintf
      "SELECT t1.a, t1.b FROM t1, t2 WHERE t1.a = t2.b AND %s ORDER BY 1, 2 \
       LIMIT 100"
      (pred "t2")
  else if grouped then
    Printf.sprintf
      "SELECT b, count(*) AS c, max(a) AS m FROM t1 WHERE %s GROUP BY b \
       ORDER BY b LIMIT 50"
      (pred "t1")
  else
    Printf.sprintf "SELECT a, b FROM t1 WHERE %s ORDER BY a, b LIMIT 100"
      (pred "t1")

let prop_identity_flag_subsets =
  QCheck.Test.make ~count:24
    ~name:"plan/cost/lint identical under any speedup-flag subset"
    QCheck.small_nat
    (fun seed ->
      let sql = rand_query seed in
      let base = Lazy.force small_config in
      let reference =
        fingerprint
          (optimize_small
             ~config:(Orca.Orca_config.without_speedups base)
             sql)
      in
      fingerprint (optimize_small ~config:base sql) = reference)

(* TPC-DS spot check: a slice of the real workload through the full
   pipeline, verify lint included. The complete 111-query identity proof
   runs in bench opt-speed (CI perf-gate). *)
let test_identity_tpcds_slice () =
  let env = Lazy.force Fixtures.tpcds_env in
  let base =
    Orca.Orca_config.with_verify
      (Orca.Orca_config.with_segments Orca.Orca_config.default 8)
  in
  let off = Orca.Orca_config.without_speedups base in
  let optimize config (q : Tpcds.Queries.def) =
    let accessor =
      Catalog.Accessor.create ~provider:env.Engines.Engine.provider
        ~cache:env.Engines.Engine.cache ()
    in
    let query = Sqlfront.Binder.bind_sql accessor q.Tpcds.Queries.sql in
    Orca.Optimizer.optimize ~config accessor query
  in
  List.iter
    (fun (q : Tpcds.Queries.def) ->
      if q.Tpcds.Queries.qid mod 9 = 0 then
        let label = Printf.sprintf "q%d" q.Tpcds.Queries.qid in
        let dxl_on, cost_on, groups_on, gexprs_on, diags_on =
          fingerprint (optimize base q)
        in
        let dxl_off, cost_off, groups_off, gexprs_off, diags_off =
          fingerprint (optimize off q)
        in
        Alcotest.(check string) (label ^ ": plan DXL") dxl_on dxl_off;
        Alcotest.(check (float 0.0)) (label ^ ": cost") cost_on cost_off;
        Alcotest.(check int) (label ^ ": memo groups") groups_on groups_off;
        Alcotest.(check int) (label ^ ": memo gexprs") gexprs_on gexprs_off;
        Alcotest.(check (list string))
          (label ^ ": verify findings")
          diags_on diags_off)
    (Lazy.force Tpcds.Queries.all)

(* executed rows agree too: the speedups must not perturb anything the
   executor consumes *)
let test_identity_rows () =
  let s = Lazy.force Fixtures.small in
  let base = Lazy.force small_config in
  let off = Orca.Orca_config.without_speedups base in
  List.iter
    (fun sql ->
      let run config =
        let report = optimize_small ~config sql in
        fst (Exec.Executor.run s.Fixtures.cluster report.Orca.Optimizer.plan)
      in
      Alcotest.(check bool) "rows identical" true
        (Fixtures.rows_equal (run base) (run off)))
    small_queries

let suite =
  [
    Alcotest.test_case "shape tags dense" `Quick test_shape_tags_dense;
    Alcotest.test_case "shape masks" `Quick test_shape_masks;
    Alcotest.test_case "rule pre-filter bitmaps" `Quick
      test_rule_prefilter_bitmaps;
    Alcotest.test_case "unrestricted rule mask" `Quick
      test_unrestricted_rule_mask;
    Alcotest.test_case "default rules have live masks" `Quick
      test_every_default_rule_mask_nonempty;
    Alcotest.test_case "identity: all speedups off" `Quick
      test_identity_all_off;
    QCheck_alcotest.to_alcotest prop_identity_flag_subsets;
    Alcotest.test_case "identity: TPC-DS slice with lint" `Slow
      test_identity_tpcds_slice;
    Alcotest.test_case "identity: executed rows" `Quick test_identity_rows;
  ]
