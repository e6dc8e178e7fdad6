open Ir

(* Tests for the verifiability tools: AMPERe capture/replay (§6.1) and TAQO
   (§6.2). *)

let capture_dump () =
  let s = Lazy.force Fixtures.small in
  let recording, _ = Catalog.Provider.recording s.Fixtures.provider in
  let accessor =
    Catalog.Accessor.create ~provider:recording
      ~cache:(Catalog.Md_cache.create ()) ()
  in
  let sql =
    "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b AND t2.a < 100 ORDER BY t1.a LIMIT 4"
  in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  let report =
    Orca.Optimizer.optimize ~config:(Lazy.force Fixtures.orca_config) accessor query
  in
  ( Orca.Ampere.capture ~expected_plan:report.Orca.Optimizer.plan accessor
      query,
    report )

let test_dump_roundtrip () =
  let dump, _ = capture_dump () in
  let text = Orca.Ampere.to_string dump in
  let dump' = Orca.Ampere.of_string text in
  Alcotest.(check int) "metadata objects survive"
    (List.length dump.Orca.Ampere.metadata)
    (List.length dump'.Orca.Ampere.metadata);
  Alcotest.(check bool) "expected plan survives" true
    (Option.is_some dump'.Orca.Ampere.expected_plan);
  Alcotest.(check string) "serialization stable" text (Orca.Ampere.to_string dump')

let test_dump_captures_minimal_metadata () =
  let dump, _ = capture_dump () in
  (* exactly the two touched relations + their stats, nothing else *)
  Alcotest.(check int) "4 objects" 4 (List.length dump.Orca.Ampere.metadata)

let test_replay_reproduces_plan () =
  let dump, report = capture_dump () in
  let text = Orca.Ampere.to_string dump in
  let dump' = Orca.Ampere.of_string text in
  (* replay with no backend: the file-based provider serves the metadata *)
  let replayed = Orca.Ampere.replay ~config:(Lazy.force Fixtures.orca_config) dump' in
  Alcotest.(check string) "identical plan"
    (Dxl.Dxl_plan.to_string report.Orca.Optimizer.plan)
    (Dxl.Dxl_plan.to_string replayed.Orca.Optimizer.plan);
  (* verify() agrees *)
  (match Orca.Ampere.verify ~config:(Lazy.force Fixtures.orca_config) dump' with
  | Orca.Ampere.Replay_match -> ()
  | Orca.Ampere.Replay_plan_diff d -> Alcotest.failf "plan diff: %s" d
  | Orca.Ampere.Replay_failed m -> Alcotest.failf "replay failed: %s" m)

let test_replay_detects_plan_change () =
  let dump, _ = capture_dump () in
  (* simulate a cost-model change by replaying with a different model *)
  let model =
    { Cost.Cost_model.default with Cost.Cost_model.net_tuple_cost = 500.0 }
  in
  let config = { (Lazy.force Fixtures.orca_config) with Orca.Orca_config.model } in
  match Orca.Ampere.verify ~config dump with
  | Orca.Ampere.Replay_match | Orca.Ampere.Replay_plan_diff _ -> ()
  | Orca.Ampere.Replay_failed m -> Alcotest.failf "replay failed: %s" m

let test_dump_with_stacktrace () =
  let accessor = Fixtures.small_accessor () in
  let query = Sqlfront.Binder.bind_sql accessor "SELECT a FROM t1" in
  let dump =
    Orca.Ampere.capture_exn accessor query (Failure "synthetic crash")
      "frame1\nframe2"
  in
  let dump' = Orca.Ampere.of_string (Orca.Ampere.to_string dump) in
  match dump'.Orca.Ampere.stacktrace with
  | Some st ->
      Alcotest.(check bool) "stack preserved" true
        (String.length st > 0)
  | None -> Alcotest.fail "stacktrace lost"

let test_auto_capture_on_failure () =
  (* a correlated query under a decorrelation-free config is unsupported;
     optimize_with_capture must return a replayable dump, not crash *)
  let accessor = Fixtures.small_accessor () in
  let sql =
    "SELECT a FROM t1 WHERE b > (SELECT avg(t2.b) FROM t2 WHERE t2.a = t1.a)"
  in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  let config =
    Orca.Orca_config.without_decorrelation (Lazy.force Fixtures.orca_config)
  in
  (match Orca.Ampere.optimize_with_capture ~config accessor query with
  | Ok _ -> Alcotest.fail "expected the optimization to fail"
  | Error dump ->
      (match dump.Orca.Ampere.stacktrace with
      | Some st ->
          Alcotest.(check bool) "error message embedded" true
            (String.length st > 0)
      | None -> Alcotest.fail "no stacktrace in auto-captured dump");
      Alcotest.(check bool) "metadata working set embedded" true
        (dump.Orca.Ampere.metadata <> []);
      (* the dump round-trips through DXL *)
      let dump' = Orca.Ampere.of_string (Orca.Ampere.to_string dump) in
      Alcotest.(check int) "metadata survives" 
        (List.length dump.Orca.Ampere.metadata)
        (List.length dump'.Orca.Ampere.metadata));
  (* and a healthy optimization passes through untouched *)
  let accessor2 = Fixtures.small_accessor () in
  let q2 = Sqlfront.Binder.bind_sql accessor2 "SELECT a FROM t1 LIMIT 1" in
  match
    Orca.Ampere.optimize_with_capture
      ~config:(Lazy.force Fixtures.orca_config) accessor2 q2
  with
  | Ok report ->
      Alcotest.(check bool) "plan produced" true
        (Ir.Plan_ops.validate report.Orca.Optimizer.plan > 0)
  | Error _ -> Alcotest.fail "healthy optimization must not dump"

let test_dump_file_io () =
  let dump, _ = capture_dump () in
  let path = Filename.temp_file "ampere" ".xml" in
  Orca.Ampere.save dump path;
  let dump' = Orca.Ampere.load path in
  Sys.remove path;
  Alcotest.(check string) "file roundtrip" (Orca.Ampere.to_string dump)
    (Orca.Ampere.to_string dump')

(* --- TAQO --- *)

let taqo_report () =
  let _, report, _, _ =
    Fixtures.run_orca_sql
      "SELECT t1.a, count(*) AS c FROM t1, t2 WHERE t1.a = t2.b GROUP BY t1.a \
       ORDER BY t1.a LIMIT 10"
  in
  report

let test_sampled_plans_valid_and_equivalent () =
  let report = taqo_report () in
  let s = Lazy.force Fixtures.small in
  let plans = Orca.Taqo.sample_plans ~n:10 report in
  Alcotest.(check bool) "several distinct plans" true (List.length plans >= 3);
  let reference, _ = Exec.Executor.run s.Fixtures.cluster (List.hd plans) in
  List.iter
    (fun plan ->
      ignore (Plan_ops.validate plan);
      let rows, _ = Exec.Executor.run s.Fixtures.cluster plan in
      (* every plan in the space must compute the same result *)
      Alcotest.(check bool) "equivalent result" true
        (Fixtures.rows_equal rows reference))
    plans

let test_sampled_costs_vary () =
  let report = taqo_report () in
  let plans = Orca.Taqo.sample_plans ~n:10 report in
  let costs = List.map (fun (p : Expr.plan) -> p.Expr.pcost) plans in
  let distinct = List.sort_uniq compare costs in
  Alcotest.(check bool) "estimated costs differ across plans" true
    (List.length distinct >= 2)

let test_taqo_outcome () =
  let report = taqo_report () in
  let s = Lazy.force Fixtures.small in
  let outcome =
    Orca.Taqo.run ~n:10 report ~execute:(fun p ->
        let _, m = Exec.Executor.run s.Fixtures.cluster p in
        m.Exec.Metrics.sim_seconds)
  in
  Alcotest.(check bool) "score in range" true
    (outcome.Orca.Taqo.score >= -1.0 && outcome.Orca.Taqo.score <= 1.0);
  Alcotest.(check bool) "space counted" true (outcome.Orca.Taqo.plans_in_space >= 1.0);
  Alcotest.(check bool) "chosen plan rank computed" true
    (outcome.Orca.Taqo.best_rank >= 1)

let test_correlation_score_perfect_and_inverted () =
  let mk est actual =
    {
      Orca.Taqo.plan =
        Plan_ops.node (Expr.P_const_table ([], [])) [] ~est_rows:0.0 ~cost:est;
      estimated = est;
      actual;
    }
  in
  let perfect = List.init 6 (fun i -> mk (float_of_int i) (float_of_int i *. 2.0)) in
  Alcotest.(check bool) "perfect ordering -> 1" true
    (Orca.Taqo.correlation_score perfect > 0.99);
  let inverted =
    List.init 6 (fun i -> mk (float_of_int i) (float_of_int (10 - i)))
  in
  Alcotest.(check bool) "inverted ordering -> -1" true
    (Orca.Taqo.correlation_score inverted < -0.99)

(* TAQO's sampling scan walks each context's alternatives in list order,
   so any drift in the order or the costs of the derived lists moves the
   sample: pin q75's sampled plans and its plan count. *)
let test_taqo_q75_pinned () =
  let plans, count = Alt_digest.taqo_q75 ~accessor:Fixtures.tpcds_accessor in
  Alcotest.(check (list string)) "q75 sampled plan DXL digests"
    Alt_digests_fixture.taqo_q75_plans plans;
  Alcotest.(check (float 0.0)) "q75 plan count"
    Alt_digests_fixture.taqo_q75_count count

let suite =
  [
    Alcotest.test_case "dump roundtrip" `Quick test_dump_roundtrip;
    Alcotest.test_case "minimal metadata" `Quick test_dump_captures_minimal_metadata;
    Alcotest.test_case "replay reproduces plan" `Quick test_replay_reproduces_plan;
    Alcotest.test_case "replay detects changes" `Quick test_replay_detects_plan_change;
    Alcotest.test_case "stacktrace capture" `Quick test_dump_with_stacktrace;
    Alcotest.test_case "auto capture on failure" `Quick
      test_auto_capture_on_failure;
    Alcotest.test_case "dump file io" `Quick test_dump_file_io;
    Alcotest.test_case "sampled plans equivalent" `Slow test_sampled_plans_valid_and_equivalent;
    Alcotest.test_case "sampled costs vary" `Quick test_sampled_costs_vary;
    Alcotest.test_case "taqo outcome" `Quick test_taqo_outcome;
    Alcotest.test_case "taqo q75 sample pinned" `Quick test_taqo_q75_pinned;
    Alcotest.test_case "correlation score" `Quick test_correlation_score_perfect_and_inverted;
  ]
