(* lib/obs: span sessions, the Chrome trace exporter (golden-filed under the
   deterministic clock), report merging, and the end-to-end guarantees — rule
   counters consistent with the engine's totals, and a fully silent
   subsystem when observability is off. *)

open Fixtures

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- span tracing under the deterministic clock --- *)

(* Each [Gpos.Clock.now] call advances the fake clock by 1ms: begin_session
   reads once (t0 = 0.0), then each span reads at entry and exit, giving
   byte-stable timestamps for the golden file. *)
let test_span_golden () =
  let (), events =
    Gpos.Clock.with_fake ~start:0.0 ~step:0.001 (fun () ->
        Obs.Span.collect (fun () ->
            Obs.Span.with_ ~name:"a" (fun () ->
                Obs.Span.with_ ~name:"b"
                  ~attrs:[ ("rule", "Join2HashJoin") ]
                  (fun () -> ()))))
  in
  let tid = (Domain.self () :> int) in
  let expected =
    Printf.sprintf
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
       {\"name\":\"a\",\"cat\":\"orca\",\"ph\":\"X\",\"ts\":1000.0,\"dur\":3000.0,\"pid\":1,\"tid\":%d,\"args\":{\"path\":\"a\"}},\n\
       {\"name\":\"b\",\"cat\":\"orca\",\"ph\":\"X\",\"ts\":2000.0,\"dur\":1000.0,\"pid\":1,\"tid\":%d,\"args\":{\"path\":\"a/b\",\"rule\":\"Join2HashJoin\"}}\n\
       ]}\n"
      tid tid
  in
  Alcotest.(check string)
    "golden chrome trace" expected
    (Obs.Trace_export.to_chrome_json events)

let test_span_nesting () =
  let (), events =
    Obs.Span.collect (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"mid" (fun () ->
                Obs.Span.with_ ~name:"inner" (fun () -> ()));
            Obs.Span.with_ ~name:"mid2" (fun () -> ())))
  in
  let paths = List.map (fun e -> e.Obs.Span.sp_path) events in
  Alcotest.(check (list string))
    "paths"
    [ "outer"; "outer/mid"; "outer/mid/inner"; "outer/mid2" ]
    (List.sort compare paths);
  (* an exception inside a span still records it *)
  let result =
    Obs.Span.collect (fun () ->
        try Obs.Span.with_ ~name:"boom" (fun () -> failwith "x")
        with Failure _ -> ())
  in
  Alcotest.(check int) "exception span recorded" 1 (List.length (snd result))

(* A nested collect yields no events of its own: the outer session owns
   everything recorded inside it. *)
let test_span_session_ownership () =
  let (outer_inner, _), events =
    Obs.Span.collect (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.collect (fun () ->
                Obs.Span.with_ ~name:"stolen" (fun () -> 42))))
  in
  Alcotest.(check int) "inner result" 42 outer_inner;
  Alcotest.(check (list string))
    "outer session holds both spans" [ "outer"; "outer/stolen" ]
    (List.sort compare (List.map (fun e -> e.Obs.Span.sp_path) events))

(* --- consistency checking --- *)

let mk_event ?(depth = 0) ~path ~start ~dur () =
  {
    Obs.Span.sp_name = path;
    sp_path = path;
    sp_depth = depth;
    sp_start_us = start;
    sp_dur_us = dur;
    sp_domain = 0;
    sp_attrs = [];
  }

let test_consistency_check () =
  let ok =
    [
      mk_event ~path:"p" ~start:0.0 ~dur:1000.0 ();
      mk_event ~depth:1 ~path:"p/a" ~start:0.0 ~dur:400.0 ();
      mk_event ~depth:1 ~path:"p/b" ~start:400.0 ~dur:500.0 ();
    ]
  in
  Alcotest.(check int)
    "children within parent" 0
    (List.length (Obs.Trace_export.check_consistency ok));
  let bad =
    [
      mk_event ~path:"p" ~start:0.0 ~dur:1000.0 ();
      mk_event ~depth:1 ~path:"p/a" ~start:0.0 ~dur:900.0 ();
      mk_event ~depth:1 ~path:"p/b" ~start:0.0 ~dur:900.0 ();
    ]
  in
  match Obs.Trace_export.check_consistency bad with
  | [ v ] ->
      Alcotest.(check string) "violating parent" "p" v.Obs.Trace_export.v_path;
      Alcotest.(check (float 1e-6))
        "children sum" 1800.0 v.Obs.Trace_export.v_children_us
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* --- report assembly and merging --- *)

let obs_config = lazy (Orca.Orca_config.with_obs (Lazy.force orca_config))

let run_obs_sql sql =
  let accessor = small_accessor () in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  Orca.Optimizer.optimize ~config:(Lazy.force obs_config) accessor query

let join_sql = "SELECT t1.a FROM t1, t2 WHERE t1.b = t2.a ORDER BY t1.a LIMIT 10"

(* The per-rule firing counts must agree with the engine's own xform total,
   and the scheduler snapshots with the report's job counters. *)
let test_rule_counters_consistent () =
  let report = run_obs_sql join_sql in
  let obs =
    match report.Orca.Optimizer.obs with
    | Some r -> r
    | None -> Alcotest.fail "obs report missing with with_obs config"
  in
  let fired =
    List.fold_left (fun a r -> a + r.Obs.Report.r_fired) 0 obs.Obs.Report.rules
  in
  Alcotest.(check int)
    "sum(rule fired) = report.xforms" report.Orca.Optimizer.xforms fired;
  let jobs_created =
    List.fold_left
      (fun a (_, s) -> a + s.Gpos.Scheduler.p_jobs_created)
      0 obs.Obs.Report.scheds
  in
  Alcotest.(check int)
    "sum(sched created) = report.jobs_created" report.Orca.Optimizer.jobs_created
    jobs_created;
  let jobs_run =
    List.fold_left
      (fun a (_, s) -> a + s.Gpos.Scheduler.p_jobs_run)
      0 obs.Obs.Report.scheds
  in
  Alcotest.(check int)
    "sum(sched run) = report.jobs_run" report.Orca.Optimizer.jobs_run jobs_run;
  Alcotest.(check int)
    "alternatives costed" report.Orca.Optimizer.contexts
    obs.Obs.Report.memo.Obs.Report.m_ctx_created;
  Alcotest.(check bool)
    "memo growth matches report" true
    (obs.Obs.Report.memo.Obs.Report.m_groups = report.Orca.Optimizer.groups
    && obs.Obs.Report.memo.Obs.Report.m_gexprs = report.Orca.Optimizer.gexprs);
  Alcotest.(check bool)
    "cost model invoked" true
    (obs.Obs.Report.search.Obs.Report.c_op_costings > 0);
  (* rendering shows the totals row and the memo line *)
  let s = Obs.Report.to_string obs in
  Alcotest.(check bool) "render has rules" true
    (contains ~affix:"(all rules)" s);
  Alcotest.(check bool) "render has memo" true
    (contains ~affix:"duplicate rate" s)

(* With observability off (the default config), no report is assembled and
   the span subsystem records nothing at all. *)
let test_obs_off_is_silent () =
  let before = Atomic.get Obs.Span.recorded_total in
  let _, report, _, _ = run_orca_sql join_sql in
  Alcotest.(check bool) "no obs report" true (report.Orca.Optimizer.obs = None);
  Alcotest.(check bool) "no session active" false (Obs.Span.active ());
  Alcotest.(check int)
    "no span ever recorded" before
    (Atomic.get Obs.Span.recorded_total)

(* Optimizing under an outer session leaves the spans with the owner and
   still produces the counter report. *)
let test_session_owner_gets_optimizer_spans () =
  let report, events = Obs.Span.collect (fun () -> run_obs_sql join_sql) in
  (match report.Orca.Optimizer.obs with
  | Some r ->
      Alcotest.(check (list string))
        "no spans on the report" []
        (List.map (fun e -> e.Obs.Span.sp_path) r.Obs.Report.spans)
  | None -> Alcotest.fail "obs report missing");
  let paths = List.map (fun e -> e.Obs.Span.sp_path) events in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("span " ^ expected) true (List.mem expected paths))
    [
      "optimize";
      "optimize/preprocess";
      "optimize/stage:full";
      "optimize/stage:full/explore";
      "optimize/stage:full/costing";
      "optimize/stage:full/extract";
    ];
  Alcotest.(check int)
    "span accounting consistent" 0
    (List.length (Obs.Trace_export.check_consistency events))

let test_report_merge () =
  let r1 =
    match (run_obs_sql join_sql).Orca.Optimizer.obs with
    | Some r -> r
    | None -> Alcotest.fail "obs missing"
  in
  let r2 =
    match (run_obs_sql "SELECT a FROM t1 WHERE b > 5 ORDER BY a").Orca.Optimizer.obs with
    | Some r -> r
    | None -> Alcotest.fail "obs missing"
  in
  let m = Obs.Report.merge r1 r2 in
  Alcotest.(check int) "queries add" 2 m.Obs.Report.queries;
  let fired r =
    List.fold_left (fun a x -> a + x.Obs.Report.r_fired) 0 r.Obs.Report.rules
  in
  Alcotest.(check int) "rule firings add" (fired r1 + fired r2) (fired m);
  Alcotest.(check int)
    "memo gexprs add"
    (r1.Obs.Report.memo.Obs.Report.m_gexprs
    + r2.Obs.Report.memo.Obs.Report.m_gexprs)
    m.Obs.Report.memo.Obs.Report.m_gexprs;
  (* exec key/values sum by key *)
  let e1 = Obs.Report.with_exec r1 [ ("rows_scanned", 10.0) ] in
  let e2 = Obs.Report.with_exec r2 [ ("rows_scanned", 5.0); ("spill", 1.0) ] in
  let em = Obs.Report.merge e1 e2 in
  Alcotest.(check (list (pair string (float 1e-9))))
    "exec kv merge"
    [ ("rows_scanned", 15.0); ("spill", 1.0) ]
    em.Obs.Report.exec

(* --- exec metrics surfacing --- *)

let test_metrics_surfacing () =
  let m = Exec.Metrics.create 4 in
  m.Exec.Metrics.spill_bytes <- 123.0;
  m.Exec.Metrics.peak_state_bytes <- 456.0;
  m.Exec.Metrics.partitions_pruned_dynamically <- 7;
  m.Exec.Metrics.operators_run <- 9;
  let s = Exec.Metrics.to_string m in
  List.iter
    (fun affix ->
      Alcotest.(check bool) affix true (contains ~affix s))
    [ "spill=123B"; "peak_state=456B"; "parts_pruned=7"; "ops=9" ];
  let kv = Exec.Metrics.to_kv m in
  Alcotest.(check (float 1e-9)) "kv spill" 123.0 (List.assoc "spill_bytes" kv);
  Alcotest.(check (float 1e-9))
    "kv pruned" 7.0
    (List.assoc "partitions_pruned_dynamically" kv)

(* --- AMPERe embedding --- *)

let test_ampere_embeds_profile () =
  let accessor = small_accessor () in
  let query = Sqlfront.Binder.bind_sql accessor "SELECT a FROM t1" in
  match
    Orca.Ampere.optimize_with_capture ~config:(Lazy.force obs_config) accessor
      query
  with
  | Error _ -> Alcotest.fail "optimization failed"
  | Ok report ->
      let dump = Orca.Ampere.capture accessor query in
      let dump = Orca.Ampere.embed_report dump report in
      (match dump.Orca.Ampere.profile with
      | Some p ->
          Alcotest.(check bool)
            "profile embedded" true
            (contains ~affix:"observability report" p)
      | None -> Alcotest.fail "no profile embedded");
      (match dump.Orca.Ampere.trace_json with
      | Some t ->
          Alcotest.(check bool)
            "trace embedded" true
            (contains ~affix:"traceEvents" t)
      | None -> Alcotest.fail "no trace embedded");
      (* survives the DXL round trip *)
      let dump' = Orca.Ampere.of_string (Orca.Ampere.to_string dump) in
      Alcotest.(check bool)
        "profile round-trips" true
        (dump'.Orca.Ampere.profile = dump.Orca.Ampere.profile);
      Alcotest.(check bool)
        "trace round-trips" true
        (dump'.Orca.Ampere.trace_json = dump.Orca.Ampere.trace_json)

let suite =
  [
    Alcotest.test_case "span golden chrome trace (fake clock)" `Quick
      test_span_golden;
    Alcotest.test_case "span nesting and exception safety" `Quick
      test_span_nesting;
    Alcotest.test_case "span session ownership" `Quick
      test_span_session_ownership;
    Alcotest.test_case "span consistency check" `Quick test_consistency_check;
    Alcotest.test_case "rule counters consistent with engine" `Quick
      test_rule_counters_consistent;
    Alcotest.test_case "obs off records nothing" `Quick test_obs_off_is_silent;
    Alcotest.test_case "outer session owns optimizer spans" `Quick
      test_session_owner_gets_optimizer_spans;
    Alcotest.test_case "report merging" `Quick test_report_merge;
    Alcotest.test_case "metrics surfacing (spill/peak/pruned)" `Quick
      test_metrics_surfacing;
    Alcotest.test_case "AMPERe embeds profile and trace" `Quick
      test_ampere_embeds_profile;
  ]
