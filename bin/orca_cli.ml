(* orca_cli: an interactive front door to the whole system.

     dune exec bin/orca_cli.exe -- run "SELECT ..." [--sf 0.2] [--segs 8]
     dune exec bin/orca_cli.exe -- explain "SELECT ..."
     dune exec bin/orca_cli.exe -- compare "SELECT ..."     (Orca vs Planner)
     dune exec bin/orca_cli.exe -- memo "SELECT ..."        (dump the Memo)
     dune exec bin/orca_cli.exe -- dxl "SELECT ..."         (query+plan DXL)
     dune exec bin/orca_cli.exe -- queries                  (list the workload)

   Queries run against the mini-TPC-DS warehouse (generated in-process). *)

open Ir
open Cmdliner

type env = {
  cluster : Exec.Cluster.t;
  provider : Catalog.Provider.t;
  cache : Catalog.Md_cache.t;
  nsegs : int;
  workers : int;
}

let make_env sf nsegs workers =
  let db = Tpcds.Datagen.generate ~sf () in
  let e = Engines.Engine.create_env ~nsegs db in
  {
    cluster =
      Engines.Engine.cluster_for e ~mem_per_seg:(64.0 *. 1024.0 *. 1024.0);
    provider = e.Engines.Engine.provider;
    cache = e.Engines.Engine.cache;
    nsegs;
    workers;
  }

let base_config env =
  Orca.Orca_config.with_workers
    (Orca.Orca_config.with_segments Orca.Orca_config.default env.nsegs)
    env.workers

let optimize_with env config sql =
  let accessor =
    Catalog.Accessor.create ~provider:env.provider ~cache:env.cache ()
  in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  (query, Orca.Optimizer.optimize ~config accessor query)

let optimize env sql = optimize_with env (base_config env) sql

(* Optimize through the flight recorder: parse/bind timed into the phase
   histogram, the query summary recorded into the ring buffer, and slow or
   failing queries recaptured as AMPERe dumps when
   [Telemetry.Recorder.configure] armed the trigger. *)
let flight_optimize env ?config ~label sql =
  let config = match config with Some c -> c | None -> base_config env in
  let make_accessor () =
    Catalog.Accessor.create ~provider:env.provider ~cache:env.cache ()
  in
  let bind_accessor = make_accessor () in
  let query, ms =
    Obs.Span.timed ~name:"parse-bind" (fun () ->
        Sqlfront.Binder.bind_sql bind_accessor sql)
  in
  Telemetry.Std.observe_phase "parse-bind" ms;
  Catalog.Accessor.release bind_accessor;
  let fingerprint = (Server.Normalize.normalize sql).Server.Normalize.fingerprint in
  (query, Orca.Flight.optimize ~config ~label ~fingerprint ~make_accessor query)

(* The suite-iteration pattern shared by every --suite subcommand: run [f]
   once per bundled TPC-DS query, count clean [Unsupported_query] rejects,
   and return how many were skipped. *)
let for_each_query ?(log = print_string) f =
  let skipped = ref 0 in
  List.iter
    (fun (q : Tpcds.Queries.def) ->
      let label = Printf.sprintf "q%d" q.Tpcds.Queries.qid in
      match f label q.Tpcds.Queries.sql with
      | () -> ()
      | exception Orca.Optimizer.Unsupported_query msg ->
          incr skipped;
          log (Printf.sprintf "%-6s skipped (unsupported: %s)\n" label msg))
    (Lazy.force Tpcds.Queries.all);
  !skipped

(* Join per-node actual row counts (stable preorder ids, Metrics.node_rows)
   against the plan's estimates. *)
let accuracy_of ~(metrics : Exec.Metrics.t) (plan : Expr.plan) :
    Prov.Accuracy.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (id, rows) -> Hashtbl.replace tbl id rows)
    (Exec.Metrics.node_rows metrics);
  Prov.Accuracy.of_plan ~actual:(Hashtbl.find_opt tbl) plan

let print_rows rows =
  List.iter
    (fun row ->
      print_endline
        (String.concat " | " (List.map Datum.to_string (Array.to_list row))))
    rows;
  Printf.printf "(%d rows)\n" (List.length rows)

(* --- subcommands --- *)

let run_cmd env sql =
  let _, report = flight_optimize env ~label:"query" sql in
  let rows, metrics = Exec.Executor.run env.cluster report.Orca.Optimizer.plan in
  print_rows rows;
  Printf.printf "\n%s\noptimization: %.1f ms, %d groups, %d group expressions\n"
    (Exec.Metrics.to_string metrics)
    report.Orca.Optimizer.opt_time_ms report.Orca.Optimizer.groups
    report.Orca.Optimizer.gexprs

(* EXPLAIN ANALYZE: execute the plan with the per-operator observe hook and
   print estimated vs actual rows (the cardinality error) and the inclusive
   simulated time next to each node. *)
let explain_analyze env (report : Orca.Optimizer.report) =
  let plan = report.Orca.Optimizer.plan in
  let observed : (Expr.plan * float * float) list ref = ref [] in
  let observe p ~rows ~sim_s = observed := (p, rows, sim_s) :: !observed in
  let _rows, metrics = Exec.Executor.run ~observe env.cluster plan in
  let buf = Buffer.create 1024 in
  let rec walk depth (p : Expr.plan) =
    let name = Physical_ops.to_string p.Expr.pop in
    let name =
      if String.length name > 44 then String.sub name 0 44 else name
    in
    let line =
      (* the executor reports DPE-rewritten scan copies under the original
         node, so every node that ran (Motion and enforcers included) has an
         observation; a genuinely never-evaluated node shows as unknown *)
      match List.find_opt (fun (p', _, _) -> p' == p) !observed with
      | Some (_, rows, sim_s) ->
          let q = Prov.Accuracy.qerror ~est:p.Expr.pest_rows ~act:rows in
          let err =
            if q < 1.005 then "ok"
            else
              Printf.sprintf "%.2fx %s" q
                (if p.Expr.pest_rows > rows then "over" else "under")
          in
          Printf.sprintf "est=%10.0f  act=%10.0f  err=%-14s time=%9.5fs"
            p.Expr.pest_rows rows err sim_s
      | None ->
          Printf.sprintf "est=%10.0f  act=%10s  err=%-14s time=%9s"
            p.Expr.pest_rows "-" "-" "-"
    in
    Buffer.add_string buf
      (Printf.sprintf "%-48s %s\n"
         (String.make (2 * depth) ' ' ^ "-> " ^ name)
         line);
    List.iter (walk (depth + 1)) p.Expr.pchildren
  in
  walk 0 plan;
  print_string (Buffer.contents buf);
  print_string
    (Obs.Report.acc_to_string
       (Prov.Accuracy.to_acc_stats (accuracy_of ~metrics plan)));
  Printf.printf "\n%s\n" (Exec.Metrics.to_string metrics)

let explain_cmd ~analyze ~why env sql =
  let config =
    if why then Orca.Orca_config.with_prov (base_config env)
    else base_config env
  in
  let _, report = optimize_with env config sql in
  if analyze then explain_analyze env report
  else if not why then
    (* the --why rendering below includes the plan tree *)
    print_string (Plan_ops.to_string report.Orca.Optimizer.plan);
  (match report.Orca.Optimizer.prov with
  | Some prov when why ->
      if analyze then print_newline ();
      print_string (Prov.Provenance.why_to_string prov)
  | _ -> ());
  Printf.printf
    "\nstage=%s  groups=%d  gexprs=%d  contexts=%d  xforms=%d  jobs=%d  \
     opt=%.1fms\n"
    report.Orca.Optimizer.stage_name report.Orca.Optimizer.groups
    report.Orca.Optimizer.gexprs report.Orca.Optimizer.contexts
    report.Orca.Optimizer.xforms report.Orca.Optimizer.jobs_created
    report.Orca.Optimizer.opt_time_ms

let compare_cmd env sql =
  let _, report = optimize env sql in
  let orows, om = Exec.Executor.run env.cluster report.Orca.Optimizer.plan in
  print_endline "=== Orca ===";
  print_string (Plan_ops.to_string report.Orca.Optimizer.plan);
  let accessor =
    Catalog.Accessor.create ~provider:env.provider ~cache:env.cache ()
  in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  let pplan =
    Planner.Legacy_planner.plan_sql
      ~config:
        { Planner.Legacy_planner.segments = env.nsegs; dp_limit = 5;
          broadcast_inner = false }
      accessor query
  in
  let prows, pm = Exec.Executor.run env.cluster pplan in
  print_endline "\n=== legacy Planner ===";
  print_string (Plan_ops.to_string pplan);
  let agree = List.length orows = List.length prows in
  Printf.printf
    "\nOrca %.5fs vs Planner %.5fs  =>  %.1fx speed-up  (row counts agree: %b)\n"
    om.Exec.Metrics.sim_seconds pm.Exec.Metrics.sim_seconds
    (pm.Exec.Metrics.sim_seconds /. Float.max 1e-9 om.Exec.Metrics.sim_seconds)
    agree

let memo_cmd dot env sql =
  let _, report = optimize env sql in
  if dot then print_string (Memolib.Memo.to_dot report.Orca.Optimizer.memo)
  else begin
    print_string (Memolib.Memo.to_string report.Orca.Optimizer.memo);
    Printf.printf "\nplans encoded for the root request: %.0f\n"
      (Memolib.Extract.count_plans report.Orca.Optimizer.memo
         (Memolib.Memo.root report.Orca.Optimizer.memo)
         report.Orca.Optimizer.root_req)
  end

let dxl_cmd env sql =
  let query, report = optimize env sql in
  print_endline "<!-- DXL query message -->";
  print_string (Dxl.Dxl_query.to_string query);
  print_endline "\n<!-- DXL plan message -->";
  print_string (Dxl.Dxl_plan.to_string report.Orca.Optimizer.plan)

(* --- cardinality accuracy (lib/prov) --- *)

(* Optimize with provenance on, execute, and join estimates against actuals.
   [annotate] already fails hard on any plan/Memo misalignment; the node
   counts are re-checked here so the suite doubles as a coverage test. *)
let accuracy_one env label sql : Prov.Accuracy.t =
  let _, report =
    optimize_with env (Orca.Orca_config.with_prov (base_config env)) sql
  in
  let plan = report.Orca.Optimizer.plan in
  (match report.Orca.Optimizer.prov with
  | Some p ->
      let covered = List.length p.Prov.Provenance.p_nodes in
      let nodes = Plan_ops.node_count plan in
      if covered <> nodes then
        Gpos.Gpos_error.internal "%s: provenance covers %d of %d plan nodes"
          label covered nodes
  | None ->
      Gpos.Gpos_error.internal "%s: optimizer returned no provenance" label);
  let _rows, metrics = Exec.Executor.run env.cluster plan in
  accuracy_of ~metrics plan

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* The committed-baseline shape (BENCH_accuracy.json): bench/gate.ml reads
   the "summary" object, same as the opt-speed baseline. *)
let acc_stats_json ~sf ~segs ~queries ~unsupported
    (stats : Obs.Report.acc_stat list) =
  let float6 v = Gpos.Json.Num (Gpos.Json.fixed 6 v) in
  Gpos.Json.pretty
    (Obj
       [
         ("bench", Str "accuracy");
         ("sf", Num (Gpos.Json.general 6 sf));
         ("segments", Gpos.Json.int segs);
         ( "summary",
           Obj
             [
               ("queries", Gpos.Json.int queries);
               ("unsupported", Gpos.Json.int unsupported);
               ( "classes",
                 Arr
                   (List.map
                      (fun (a : Obs.Report.acc_stat) ->
                        Gpos.Json.Obj
                          [
                            ("class", Str a.Obs.Report.a_class);
                            ("nodes", Gpos.Json.int a.Obs.Report.a_nodes);
                            ("geomean", float6 (Obs.Report.acc_geomean a));
                            ("max", float6 a.Obs.Report.a_max);
                            ("unobserved", Gpos.Json.int a.Obs.Report.a_unobserved);
                          ])
                      stats) );
             ] );
       ])

let acc_write_json ~sf ~segs ~queries ~unsupported stats = function
  | None -> ()
  | Some path ->
      write_file path (acc_stats_json ~sf ~segs ~queries ~unsupported stats);
      Printf.printf "\nwrote %s\n" path

let accuracy_cmd suite json ~sf env sql =
  match (suite, sql) with
  | false, None ->
      prerr_endline "accuracy: provide a SQL query, or pass --suite";
      exit 2
  | false, Some sql ->
      let acc = accuracy_one env "query" sql in
      print_string (Prov.Accuracy.to_string acc);
      let stats = Prov.Accuracy.to_acc_stats acc in
      print_string (Obs.Report.acc_to_string stats);
      acc_write_json ~sf ~segs:env.nsegs ~queries:1 ~unsupported:0 stats json
  | true, _ ->
      let reports = ref [] and measured = ref 0 in
      let skipped =
        for_each_query (fun label sql ->
            let acc = accuracy_one env label sql in
            incr measured;
            let stats = Prov.Accuracy.to_acc_stats acc in
            (match
               List.find_opt
                 (fun (a : Obs.Report.acc_stat) ->
                   a.Obs.Report.a_class = "(all)")
                 stats
             with
            | Some a ->
                Printf.printf "%-6s observed=%-3d geomean=%8.3f max=%10.3f\n"
                  label a.Obs.Report.a_nodes (Obs.Report.acc_geomean a)
                  a.Obs.Report.a_max
            | None -> Printf.printf "%-6s (no observed nodes)\n" label);
            reports := Obs.Report.with_acc Obs.Report.empty stats :: !reports)
      in
      let merged = Obs.Report.merge_all (List.rev !reports) in
      let stats = merged.Obs.Report.acc in
      print_string (Obs.Report.acc_to_string stats);
      Printf.printf "\naccuracy: %d queries measured, %d unsupported\n"
        !measured skipped;
      acc_write_json ~sf ~segs:env.nsegs ~queries:!measured ~unsupported:skipped
        stats json

(* --- structural plan diff (lib/prov) --- *)

(* Compare two runs of the same query under different optimizer
   configurations, or two AMPERe dumps. Exits 1 on divergence, mirroring
   lint's convention. *)
let diff_cmd off_a off_b dump_a dump_b (env : env Lazy.t) sql =
  let plan_a, plan_b, prov_a, prov_b, label_a, label_b =
    match (dump_a, dump_b, sql) with
    | Some da, Some db, _ ->
        let plan_of path =
          let d = Orca.Ampere.load path in
          match d.Orca.Ampere.expected_plan with
          | Some p -> p
          | None -> (Orca.Ampere.replay d).Orca.Optimizer.plan
        in
        (plan_of da, plan_of db, None, None, da, db)
    | None, None, Some sql ->
        let env = Lazy.force env in
        let run off =
          let config = Orca.Orca_config.with_prov (base_config env) in
          let config =
            if off then Orca.Orca_config.without_speedups config else config
          in
          let _, report = optimize_with env config sql in
          (report.Orca.Optimizer.plan, report.Orca.Optimizer.prov)
        in
        let describe off = if off then "speedups off" else "speedups on" in
        let pa, va = run off_a and pb, vb = run off_b in
        (pa, pb, va, vb, describe off_a, describe off_b)
    | _ ->
        prerr_endline
          "diff: provide SQL (with --off-a/--off-b), or both --dump-a and \
           --dump-b";
        exit 2
  in
  Printf.printf "A: %s\nB: %s\n\n" label_a label_b;
  let d = Prov.Plan_diff.diff plan_a plan_b in
  print_string (Prov.Plan_diff.to_string ?prov_a ?prov_b d);
  if not d.Prov.Plan_diff.d_identical then exit 1

(* Optimize with the static analyzers enabled and report their findings. *)
let lint_optimize env sql =
  let accessor =
    Catalog.Accessor.create ~provider:env.provider ~cache:env.cache ()
  in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  Orca.Optimizer.optimize
    ~config:(Orca.Orca_config.with_verify (base_config env))
    accessor query

let lint_report label (report : Orca.Optimizer.report) =
  let diags = report.Orca.Optimizer.diagnostics in
  if diags = [] then
    Printf.printf "%-6s clean  (%d plan nodes, cost %.2f)\n" label
      (Plan_ops.node_count report.Orca.Optimizer.plan)
      report.Orca.Optimizer.plan.Expr.pcost
  else begin
    Printf.printf "%-6s %d error(s), %d warning(s)\n" label
      (Verify.Analyzer.error_count diags)
      (Verify.Diagnostic.count Verify.Diagnostic.Warning diags);
    print_string (Verify.Diagnostic.report_to_string diags)
  end;
  Verify.Analyzer.error_count diags

let lint_cmd suite verbose env sql =
  match (suite, sql) with
  | false, None ->
      prerr_endline "lint: provide a SQL query, or pass --suite";
      exit 2
  | false, Some sql ->
      let report = lint_optimize env sql in
      let nerr = lint_report "query" report in
      if verbose then
        print_string
          (Plan_ops.to_string ~show_props:true report.Orca.Optimizer.plan);
      if nerr > 0 then exit 1
  | true, _ ->
      let errors = ref 0 and warnings = ref 0 in
      let skipped =
        for_each_query (fun label sql ->
            let report = lint_optimize env sql in
            errors := !errors + lint_report label report;
            warnings :=
              !warnings
              + Verify.Diagnostic.count Verify.Diagnostic.Warning
                  report.Orca.Optimizer.diagnostics)
      in
      Printf.printf
        "\nlint: %d error(s), %d warning(s), %d unsupported across %d queries\n"
        !errors !warnings skipped
        (List.length (Lazy.force Tpcds.Queries.all));
      if !errors > 0 then exit 1

(* --- the concurrency sanitizer (lib/sanitize) --- *)

let sanitize_optimize env ?fuzz_seed ?(workers = 1) ~record sql =
  let accessor =
    Catalog.Accessor.create ~provider:env.provider ~cache:env.cache ()
  in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  let config =
    Orca.Orca_config.with_workers
      (Orca.Orca_config.with_segments Orca.Orca_config.default env.nsegs)
      workers
  in
  let config = if record then Orca.Orca_config.with_sanitize config else config in
  let config =
    match fuzz_seed with
    | None -> config
    | Some s -> Orca.Orca_config.with_fuzz_seed config s
  in
  Orca.Optimizer.optimize ~config accessor query

let plan_signature (report : Orca.Optimizer.report) =
  (Plan_ops.to_string report.Orca.Optimizer.plan,
   report.Orca.Optimizer.plan.Expr.pcost)

(* One query through the sanitizer: a traced sequential run, a traced
   [workers]-domain run checked for divergence against it, and [seeds]
   deterministic schedule permutations that must reproduce the sequential
   plan and cost exactly. *)
let sanitize_query env ~workers ~seeds label sql =
  let baseline = sanitize_optimize env ~record:true sql in
  let bsig = plan_signature baseline in
  let diags = ref baseline.Orca.Optimizer.diagnostics in
  if workers > 1 then begin
    let par = sanitize_optimize env ~workers ~record:true sql in
    diags :=
      !diags
      @ par.Orca.Optimizer.diagnostics
      @ Sanitize.Sanitizer.compare_runs
          ~label:(Printf.sprintf "%s (workers=%d)" label workers)
          ~baseline:bsig ~candidate:(plan_signature par)
  end;
  let seeds_ok = ref 0 in
  for seed = 1 to seeds do
    let fuzzed = sanitize_optimize env ~fuzz_seed:seed ~record:false sql in
    let d =
      Sanitize.Sanitizer.compare_runs
        ~label:(Printf.sprintf "%s (fuzz seed %d)" label seed)
        ~baseline:bsig ~candidate:(plan_signature fuzzed)
    in
    if d = [] then incr seeds_ok;
    diags := !diags @ d
  done;
  let diags = Verify.Diagnostic.sort !diags in
  let nerr = Verify.Analyzer.error_count diags in
  if nerr = 0 then
    Printf.printf "%-6s clean  (cost %.2f%s)\n" label (snd bsig)
      (if seeds > 0 then Printf.sprintf ", %d/%d seeds match" !seeds_ok seeds
       else "")
  else begin
    Printf.printf "%-6s %d error(s), %d warning(s)\n" label nerr
      (Verify.Diagnostic.count Verify.Diagnostic.Warning diags);
    print_string (Verify.Diagnostic.report_to_string diags)
  end;
  (nerr, Verify.Diagnostic.count Verify.Diagnostic.Warning diags)

let sanitize_cmd suite seeds env sql =
  let workers = env.workers in
  match (suite, sql) with
  | false, None ->
      prerr_endline "sanitize: provide a SQL query, or pass --suite";
      exit 2
  | false, Some sql ->
      let nerr, _ = sanitize_query env ~workers ~seeds "query" sql in
      if nerr > 0 then exit 1
  | true, _ ->
      let errors = ref 0 and warnings = ref 0 in
      let skipped =
        for_each_query (fun label sql ->
            let e, w = sanitize_query env ~workers ~seeds label sql in
            errors := !errors + e;
            warnings := !warnings + w)
      in
      Printf.printf
        "\nsanitize: %d error(s), %d warning(s), %d unsupported across %d \
         queries (workers=%d, seeds=%d)\n"
        !errors !warnings skipped
        (List.length (Lazy.force Tpcds.Queries.all))
        workers seeds;
      if !errors > 0 then exit 1

(* --- the observability profiler (lib/obs) --- *)

(* Optimize one query with observability on and execute the plan; returns the
   per-query Obs report (spans stay with the session owner, the caller). *)
let profile_one env sql : Obs.Report.t =
  let accessor =
    Catalog.Accessor.create ~provider:env.provider ~cache:env.cache ()
  in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  let config = Orca.Orca_config.with_obs (base_config env) in
  let report = Orca.Optimizer.optimize ~config accessor query in
  let obs =
    match report.Orca.Optimizer.obs with
    | Some r -> r
    | None -> Obs.Report.empty
  in
  let _rows, metrics =
    Obs.Span.with_ ~name:"execute" (fun () ->
        Exec.Executor.run env.cluster report.Orca.Optimizer.plan)
  in
  let acc =
    Prov.Accuracy.to_acc_stats
      (accuracy_of ~metrics report.Orca.Optimizer.plan)
  in
  (* the per-node actuals feed the accuracy join above; keep them out of the
     exec key/values, which merge by summing across a suite *)
  let kv =
    List.filter
      (fun (k, _) -> not (String.starts_with ~prefix:"node_rows." k))
      (Exec.Metrics.to_kv metrics)
  in
  Obs.Report.with_acc (Obs.Report.with_exec obs kv) acc

(* Span self-consistency: children must not sum past their parent. *)
let profile_check spans =
  match Obs.Trace_export.check_consistency spans with
  | [] ->
      Printf.printf "span accounting: consistent (%d spans)\n"
        (List.length spans)
  | violations ->
      List.iter
        (fun v ->
          prerr_endline
            ("span accounting: " ^ Obs.Trace_export.violation_to_string v))
        violations;
      exit 1

let profile_finish ~trace ~top ~check ~flame (obs : Obs.Report.t) =
  (* the flame summary is per-path: useful for one query, a wall of text for
     a 111-query suite (the suite's spans still reach the trace file) *)
  let printed = if flame then obs else Obs.Report.with_spans obs [] in
  print_string (Obs.Report.to_string ~top printed);
  (match trace with
  | None -> ()
  | Some path ->
      write_file path (Obs.Trace_export.to_chrome_json obs.Obs.Report.spans);
      Printf.printf "\ntrace: %s (load in Perfetto or chrome://tracing)\n" path);
  if check then profile_check obs.Obs.Report.spans

let profile_cmd suite trace top check env sql =
  match (suite, sql) with
  | false, None ->
      prerr_endline "profile: provide a SQL query, or pass --suite";
      exit 2
  | false, Some sql ->
      (* the CLI owns the span session so parse/bind/execute are captured
         alongside the optimizer's own spans *)
      let obs, spans = Obs.Span.collect (fun () -> profile_one env sql) in
      profile_finish ~trace ~top ~check ~flame:true
        { (Obs.Report.with_spans obs spans) with Obs.Report.label = "query" }
  | true, _ ->
      let reports = ref [] in
      let skipped, spans =
        Obs.Span.collect (fun () ->
            for_each_query (fun label sql ->
                let obs =
                  Obs.Span.with_ ~name:label (fun () -> profile_one env sql)
                in
                reports := { obs with Obs.Report.label } :: !reports))
      in
      let merged =
        {
          (Obs.Report.merge_all (List.rev !reports)) with
          Obs.Report.label = "tpcds-suite";
        }
      in
      Printf.printf "profiled %d queries (%d unsupported)\n\n"
        merged.Obs.Report.queries skipped;
      profile_finish ~trace ~top ~check ~flame:false
        (Obs.Report.with_spans merged spans)

(* --- always-on telemetry (lib/telemetry) --- *)

(* --slow-ms and --flight-dir: arm the flight recorder's slow trigger and
   its dump directory (created if missing). *)
let arm_flight_recorder slow_ms flight_dir =
  Option.iter
    (fun v -> Telemetry.Recorder.configure ~slow_ms:(Some v) ())
    slow_ms;
  Option.iter
    (fun d ->
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      Telemetry.Recorder.configure ~dump_dir:(Some d) ())
    flight_dir

(* Expose the always-on registry: optionally drive one query or the whole
   suite through the flight recorder first, then emit Prometheus text or a
   JSON snapshot and/or lint the exposition (`bench/gate.exe --metrics`
   compares two JSON snapshots). Progress/skip notices go to stderr so
   stdout stays a valid exposition. *)
let metrics_cmd suite as_json lint out slow_ms flight_dir
    (env : env Lazy.t) sql =
  arm_flight_recorder slow_ms flight_dir;
  (match (suite, sql) with
  | true, _ ->
      let env = Lazy.force env in
      let skipped =
        for_each_query ~log:Progress.log (fun label sql ->
            ignore (flight_optimize env ~label sql))
      in
      Progress.suite_done ~what:"metrics"
        ~total:(List.length (Lazy.force Tpcds.Queries.all))
        ~skipped
  | false, Some sql ->
      let env = Lazy.force env in
      ignore (flight_optimize env ~label:"query" sql)
  | false, None -> ());
  let snap = Telemetry.Metrics.snapshot Telemetry.Metrics.default in
  let flight = Telemetry.Recorder.entries () in
  let prom = Telemetry.Expose.to_prometheus snap in
  let body =
    if as_json then Telemetry.Expose.to_json ~flight snap else prom
  in
  (match out with
  | Some path ->
      write_file path body;
      Progress.wrote path
  | None -> print_string body);
  if lint then
    match Telemetry.Expose.lint_prometheus prom with
    | [] -> prerr_endline "prometheus lint: clean"
    | problems ->
        List.iter (fun p -> prerr_endline ("prometheus lint: " ^ p)) problems;
        exit 1

(* One client session against a running --socket listener: forward stdin
   lines, print each reply line to stdout. Lets scripts (CI's serve-gate)
   drive a live socket without needing netcat in the image. *)
let serve_client ~path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  (try
     let quit = ref false in
     while not !quit do
       match input_line stdin with
       | exception End_of_file -> quit := true
       | line when String.trim line = "" -> () (* server replies nothing *)
       | line -> (
           output_string oc line;
           output_char oc '\n';
           flush oc;
           (match input_line ic with
           | reply -> print_endline reply
           | exception End_of_file -> quit := true);
           if String.trim line = "!quit" then quit := true)
     done
   with Sys_error _ -> ());
  (try close_out oc with Sys_error _ -> ());
  try Unix.close sock with Unix.Unix_error _ -> ()

(* Run the resident optimizer service (lib/server): newline-delimited
   requests on stdin/stdout by default, or a Unix-socket listener with
   --socket. All progress goes through the shared stderr helper so stdout
   stays a clean protocol stream; likewise the event log sinks to a file
   or stderr, never the protocol stream. *)
let serve_cmd socket capacity max_variants sessions plan client slow_ms
    flight_dir events_path slo env =
  if client then (
    match socket with
    | Some path -> serve_client ~path
    | None ->
        prerr_endline "serve: --client requires --socket PATH";
        exit 2)
  else begin
    arm_flight_recorder slow_ms flight_dir;
    let env = Lazy.force env in
    let config = base_config env in
    let source = Catalog.Source.create env.provider in
    let server = Server.create ~config ?capacity ?max_variants source in
    let events_chan =
      match events_path with
      | None -> None
      | Some "stderr" ->
          Sre.Events.set_sink (Server.events server) (Some stderr);
          None (* not ours to close *)
      | Some path ->
          let ch = open_out path in
          Sre.Events.set_sink (Server.events server) (Some ch);
          Some ch
    in
    let log = Progress.say "serve: %s" in
    Fun.protect
      ~finally:(fun () ->
        if slo then
          prerr_endline
            (Sre.Slo.to_json (Sre.Slo.report (Server.slo server)));
        match events_chan with
        | Some ch ->
            Sre.Events.set_sink (Server.events server) None;
            close_out ch
        | None -> ())
      (fun () ->
        match socket with
        | Some path ->
            Server.serve_unix ~log ~include_plan:plan
              ?max_sessions:sessions server ~path ()
        | None ->
            Server.serve_channels ~log ~include_plan:plan server stdin stdout)
  end

let queries_cmd () =
  List.iter
    (fun (q : Tpcds.Queries.def) ->
      Printf.printf "q%-4d %-18s %s\n" q.Tpcds.Queries.qid
        q.Tpcds.Queries.family
        (String.concat ","
           (List.map Tpcds.Features.to_string q.Tpcds.Queries.features)))
    (Lazy.force Tpcds.Queries.all)

(* --- the rule-soundness analyzer (lib/rulecheck) --- *)

(* Neither rule command touches the warehouse: they run against lib/rulecheck's
   own small-model world, so no env is built. *)

(* Sorted by name, not registration order: the output is diffable across
   refactorings that reorder rule registration. *)
let rules_cmd () =
  Printf.printf "%-26s %-15s %7s  %-18s %s\n" "name" "kind" "promise" "shapes"
    "produces";
  List.iter
    (fun (r : Xform.Rule.t) ->
      let kind =
        match r.Xform.Rule.kind with
        | Xform.Rule.Exploration -> "exploration"
        | Xform.Rule.Implementation -> "implementation"
      in
      let shapes =
        if r.Xform.Rule.mask = Ir.Logical_ops.all_shapes_mask then "(all)"
        else Ir.Logical_ops.mask_to_string r.Xform.Rule.mask
      in
      let produces =
        match r.Xform.Rule.produces with
        | None -> "(undeclared)"
        | Some m -> Ir.Logical_ops.mask_to_string m
      in
      Printf.printf "%-26s %-15s %7d  %-18s %s\n" r.Xform.Rule.name kind
        r.Xform.Rule.promise shapes produces)
    (List.sort
       (fun (a : Xform.Rule.t) (b : Xform.Rule.t) ->
         compare a.Xform.Rule.name b.Xform.Rule.name)
       (Xform.Ruleset.rules Xform.Ruleset.default))

let rulecheck_cmd rule seeds json suite =
  let rule = if suite then None else rule in
  (match rule with
  | Some name when Xform.Ruleset.find_by_name Xform.Ruleset.default name = None
    ->
      Printf.eprintf "rulecheck: unknown rule %s (see `orca_cli rules`)\n" name;
      exit 2
  | _ -> ());
  let report = Rulecheck.run ~seeds ?rule () in
  let nerr = Rulecheck.error_count report in
  if json then print_string (Rulecheck.to_json report)
  else begin
    Printf.printf
      "rulecheck: %d rule(s), %d seed(s), %d case(s): %d applications, %d \
       alternatives checked — %d error(s), %d warning(s)\n"
      report.Rulecheck.rules_checked report.Rulecheck.seeds
      report.Rulecheck.cases report.Rulecheck.applications
      report.Rulecheck.alternatives nerr
      (Rulecheck.warning_count report);
    if report.Rulecheck.diags <> [] then
      print_string (Verify.Diagnostic.report_to_string report.Rulecheck.diags)
  end;
  if nerr > 0 then exit 1

(* --- the rule-interaction analyzer (lib/interact) --- *)

(* The static analysis itself needs no warehouse; only --suite builds the
   env, to compare real Memos against the growth bound. *)
let interact_cmd dot json suite seeds (env : env Lazy.t) =
  let report = Interact.run ~seeds () in
  let nerr = Interact.error_count report in
  if dot then print_string report.Interact.dot
  else if json then print_string (Interact.to_json report)
  else print_string (Interact.to_string report);
  let suite_failures = ref 0 in
  if suite then begin
    let env = Lazy.force env in
    let checked = ref 0 in
    let skipped =
      for_each_query (fun label sql ->
          let _, r = optimize_with env (base_config env) sql in
          let growth =
            Interact.check_memo_growth report ~case:label r.Orca.Optimizer.memo
          in
          incr checked;
          if growth <> [] then begin
            suite_failures := !suite_failures + List.length growth;
            Printf.printf "%-6s growth bound violated:\n" label;
            print_string (Verify.Diagnostic.report_to_string growth)
          end)
    in
    Printf.printf
      "\ninteract suite: %d queries checked (%d unsupported), %d failure(s)\n"
      !checked skipped !suite_failures
  end;
  if nerr > 0 || !suite_failures > 0 then exit 1

(* --- cmdliner wiring --- *)

let sf_arg =
  Arg.(value & opt float 0.1 & info [ "sf" ] ~docv:"SF" ~doc:"Scale factor.")

let segs_arg =
  Arg.(value & opt int 8 & info [ "segs" ] ~docv:"N" ~doc:"Cluster segments.")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:"Optimization worker domains (paper §4.2).")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let with_env f =
  Term.(
    const (fun sf segs workers sql -> f (make_env sf segs workers) sql)
    $ sf_arg $ segs_arg $ workers_arg $ sql_arg)

let cmd name doc f = Cmd.v (Cmd.info name ~doc) (with_env f)

let () =
  let info =
    Cmd.info "orca_cli" ~version:"1.0"
      ~doc:"Query the simulated MPP warehouse through the Orca optimizer"
  in
  let cmds =
    [
      cmd "run" "Optimize and execute a query; print results." run_cmd;
      (let analyze_arg =
         Arg.(
           value & flag
           & info [ "analyze" ]
               ~doc:
                 "Execute the plan and print actual vs estimated rows (the \
                  cardinality error, with its direction) per operator, \
                  per-operator simulated time, and the Q-error summary by \
                  operator class.")
       in
       let why_arg =
         Arg.(
           value & flag
           & info [ "why" ]
               ~doc:
                 "Optimize with provenance and print, per plan node, the \
                  rule lineage that produced it, the losing alternatives \
                  with cost deltas, and the reason each enforcer was added.")
       in
       Cmd.v
         (Cmd.info "explain"
            ~doc:"Print the optimized plan and search statistics.")
         Term.(
           const (fun analyze why sf segs workers sql ->
               explain_cmd ~analyze ~why (make_env sf segs workers) sql)
           $ analyze_arg $ why_arg $ sf_arg $ segs_arg $ workers_arg $ sql_arg));
      cmd "compare" "Orca vs the legacy Planner: plans and simulated times."
        compare_cmd;
      (let dot_arg =
         Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
       in
       Cmd.v
         (Cmd.info "memo" ~doc:"Dump the Memo after optimization.")
         Term.(
           const (fun dot sf segs sql -> memo_cmd dot (make_env sf segs 1) sql)
           $ dot_arg $ sf_arg $ segs_arg $ sql_arg));
      cmd "dxl" "Print the DXL query and plan messages." dxl_cmd;
      (let suite_arg =
         Arg.(
           value & flag
           & info [ "suite" ]
               ~doc:
                 "Measure every bundled TPC-DS query instead of one SQL \
                  string and merge the per-class Q-error tables.")
       in
       let json_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "json" ] ~docv:"PATH"
               ~doc:
                 "Write the per-class Q-error summary as JSON (the \
                  accuracy-gate baseline shape, BENCH_accuracy.json).")
       in
       let sql_opt_arg =
         Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")
       in
       Cmd.v
         (Cmd.info "accuracy"
            ~doc:
              "Execute optimized plans and measure cardinality estimation \
               accuracy: per-node and per-operator-class Q-error \
               (max(est/act, act/est)), joined on stable plan-node ids. \
               Optimizes with provenance on and fails if the annotation \
               does not cover every plan node.")
         Term.(
           const (fun suite json sf segs workers sql ->
               accuracy_cmd suite json ~sf (make_env sf segs workers) sql)
           $ suite_arg $ json_arg $ sf_arg $ segs_arg $ workers_arg
           $ sql_opt_arg));
      (let off_a_arg =
         Arg.(
           value & flag
           & info [ "off-a" ]
               ~doc:
                 "Run A with the hot-path caches off (interning, stats \
                  memo, rule prefilter, winner reuse).")
       in
       let off_b_arg =
         Arg.(value & flag & info [ "off-b" ] ~doc:"Speedups off for run B.")
       in
       let dump_arg names doc =
         Arg.(value & opt (some string) None & info names ~docv:"PATH" ~doc)
       in
       let dump_a_arg =
         dump_arg [ "dump-a" ]
           "AMPERe dump for side A (diff two dumps instead of \
            re-optimizing; uses the embedded plan, or replays)."
       in
       let dump_b_arg = dump_arg [ "dump-b" ] "AMPERe dump for side B." in
       let sql_opt_arg =
         Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")
       in
       Cmd.v
         (Cmd.info "diff"
            ~doc:
              "Structural diff of two optimizations of the same query under \
               different configurations, or of two AMPERe dumps: \
               matched/changed/moved subtrees, cost and cardinality deltas, \
               and the rule lineage behind each divergent subtree. Exits \
               nonzero when the plans diverge.")
         Term.(
           const (fun off_a off_b dump_a dump_b sf segs workers sql ->
               diff_cmd off_a off_b dump_a dump_b
                 (lazy (make_env sf segs workers))
                 sql)
           $ off_a_arg $ off_b_arg $ dump_a_arg $ dump_b_arg $ sf_arg
           $ segs_arg $ workers_arg $ sql_opt_arg));
      (let suite_arg =
         Arg.(
           value & flag
           & info [ "suite" ]
               ~doc:"Lint every bundled TPC-DS query instead of one SQL string.")
       in
       let verbose_arg =
         Arg.(
           value & flag
           & info [ "verbose"; "v" ]
               ~doc:"Also print the plan with derived properties per node.")
       in
       let sql_opt_arg =
         Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")
       in
       Cmd.v
         (Cmd.info "lint"
            ~doc:
              "Run the static plan/Memo/DXL analyzers; exit nonzero on \
               error-severity diagnostics.")
         Term.(
           const (fun suite verbose sf segs sql ->
               lint_cmd suite verbose (make_env sf segs 1) sql)
           $ suite_arg $ verbose_arg $ sf_arg $ segs_arg $ sql_opt_arg));
      (let suite_arg =
         Arg.(
           value & flag
           & info [ "suite" ]
               ~doc:
                 "Sanitize every bundled TPC-DS query instead of one SQL \
                  string.")
       in
       let seeds_arg =
         Arg.(
           value & opt int 0
           & info [ "seeds" ] ~docv:"K"
               ~doc:
                 "Also run K deterministic schedule permutations and require \
                  the sequential plan and cost to be reproduced exactly.")
       in
       let sql_opt_arg =
         Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")
       in
       Cmd.v
         (Cmd.info "sanitize"
            ~doc:
              "Run the concurrency sanitizer: record a scheduler/Memo trace, \
               detect data races and goal-queue deadlocks, and check that \
               parallel and fuzzed schedules reproduce the sequential plan. \
               Exits nonzero on error-severity diagnostics.")
         Term.(
           const (fun suite seeds sf segs workers sql ->
               sanitize_cmd suite seeds (make_env sf segs workers) sql)
           $ suite_arg $ seeds_arg $ sf_arg $ segs_arg $ workers_arg
           $ sql_opt_arg));
      (let suite_arg =
         Arg.(
           value & flag
           & info [ "suite" ]
               ~doc:
                 "Profile every bundled TPC-DS query instead of one SQL \
                  string.")
       in
       let trace_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "trace" ] ~docv:"PATH"
               ~doc:
                 "Write the span trace as Chrome trace_event JSON (load in \
                  Perfetto or chrome://tracing).")
       in
       let top_arg =
         Arg.(
           value & opt int 10
           & info [ "top" ] ~docv:"N"
               ~doc:"Show the N most expensive rules in the profile.")
       in
       let check_arg =
         Arg.(
           value & flag
           & info [ "check" ]
               ~doc:
                 "Verify span accounting (children must not sum past their \
                  parent); exit nonzero on violations.")
       in
       let sql_opt_arg =
         Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")
       in
       Cmd.v
         (Cmd.info "profile"
            ~doc:
              "Optimize and execute with full observability: per-rule and \
               per-stage profiles, Memo growth, scheduler utilization, \
               execution metrics, and an exportable span trace.")
         Term.(
           const (fun suite trace top check sf segs workers sql ->
               profile_cmd suite trace top check (make_env sf segs workers) sql)
           $ suite_arg $ trace_arg $ top_arg $ check_arg $ sf_arg $ segs_arg
           $ workers_arg $ sql_opt_arg));
      (let suite_arg =
         Arg.(
           value & flag
           & info [ "suite" ]
               ~doc:
                 "Optimize every bundled TPC-DS query through the flight \
                  recorder before exposing the registry.")
       in
       let prom_arg =
         Arg.(
           value & flag
           & info [ "prom" ]
               ~doc:"Emit Prometheus text format (the default).")
       in
       let json_arg =
         Arg.(
           value & flag
           & info [ "json" ]
               ~doc:
                 "Emit the JSON snapshot (metrics with quantiles, plus the \
                  flight-recorder ring) instead of Prometheus text.")
       in
       let lint_arg =
         Arg.(
           value & flag
           & info [ "lint" ]
               ~doc:
                 "Lint the Prometheus exposition (structure, TYPE lines, \
                  bucket cumulativeness); exit nonzero on problems.")
       in
       let out_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "out" ] ~docv:"PATH"
               ~doc:"Write the exposition to a file instead of stdout.")
       in
       let slow_arg =
         Arg.(
           value
           & opt (some float) None
           & info [ "slow-ms" ] ~docv:"MS"
               ~doc:
                 "Arm the flight recorder: queries at or over this \
                  optimization time are re-run with full observability and \
                  dumped (needs --flight-dir to emit files).")
       in
       let flight_dir_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "flight-dir" ] ~docv:"DIR"
               ~doc:
                 "Directory for AMPERe dumps of slow/failed queries \
                  (created if missing).")
       in
       let sql_opt_arg =
         Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")
       in
       Cmd.v
         (Cmd.info "metrics"
            ~doc:
              "Expose the always-on telemetry registry: optimize a query or \
               the whole suite through the flight recorder, then emit \
               Prometheus text or a JSON snapshot (p50/p95/p99 per \
               histogram) and optionally lint the exposition. Compare two \
               JSON snapshots with `bench/gate.exe --metrics`.")
         Term.(
           const (fun suite prom json lint out slow flight_dir sf segs
                      workers sql ->
               ignore (prom : bool);
               metrics_cmd suite json lint out slow flight_dir
                 (lazy (make_env sf segs workers))
                 sql)
           $ suite_arg $ prom_arg $ json_arg $ lint_arg $ out_arg
           $ slow_arg $ flight_dir_arg $ sf_arg
           $ segs_arg $ workers_arg $ sql_opt_arg));
      (let socket_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "socket" ] ~docv:"PATH"
               ~doc:
                 "Listen on a Unix-domain socket (one thread per \
                  connection) instead of serving stdin/stdout.")
       in
       let capacity_arg =
         Arg.(
           value
           & opt (some int) None
           & info [ "capacity" ] ~docv:"N"
               ~doc:"Plan-cache capacity in entries (LRU beyond it).")
       in
       let variants_arg =
         Arg.(
           value
           & opt (some int) None
           & info [ "max-variants" ] ~docv:"N"
               ~doc:"Binding variants kept per cache entry.")
       in
       let sessions_arg =
         Arg.(
           value
           & opt (some int) None
           & info [ "sessions" ] ~docv:"N"
               ~doc:
                 "With --socket: exit after serving N connections (for \
                  scripted runs; default: listen forever).")
       in
       let plan_arg =
         Arg.(
           value & flag
           & info [ "plan" ]
               ~doc:
                 "Include the DXL plan in every response (sessions can \
                  toggle this with the !plan control line).")
       in
       let client_arg =
         Arg.(
           value & flag
           & info [ "client" ]
               ~doc:
                 "Connect to --socket as a client instead of serving: \
                  forward stdin lines, print each reply line (for scripted \
                  probes of a live listener).")
       in
       let slow_ms_arg =
         Arg.(
           value
           & opt (some float) None
           & info [ "slow-ms" ] ~docv:"MS"
               ~doc:
                 "Arm the flight recorder: requests optimizing slower than \
                  MS are recaptured as AMPERe dumps (with --flight-dir).")
       in
       let flight_dir_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "flight-dir" ] ~docv:"DIR"
               ~doc:
                 "Directory for flight-recorder AMPERe dumps (created if \
                  missing).")
       in
       let events_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "events" ] ~docv:"PATH"
               ~doc:
                 "Sink the structured event log to PATH as JSON lines \
                  ('stderr' to interleave with progress; never stdout).")
       in
       let slo_arg =
         Arg.(
           value & flag
           & info [ "slo" ]
               ~doc:
                 "Print the final rolling-window SLO report to stderr when \
                  the listener exits.")
       in
       Cmd.v
         (Cmd.info "serve"
            ~doc:
              "Run the resident optimizer service: newline-delimited SQL \
               requests in, single-line JSON responses out, with the \
               parameterized plan cache in front of optimization. A plain \
               line is SQL; !ping, !plan on|off, !invalidate catalog|stats, \
               !stats, !metrics, !health, !slo and !quit are control lines. \
               Progress goes to stderr; stdout is protocol-only.")
         Term.(
           const
             (fun socket capacity variants sessions plan client slow_ms
                  flight_dir events slo sf segs workers ->
               serve_cmd socket capacity variants sessions plan client slow_ms
                 flight_dir events slo
                 (lazy (make_env sf segs workers)))
           $ socket_arg $ capacity_arg $ variants_arg $ sessions_arg $ plan_arg
           $ client_arg $ slow_ms_arg $ flight_dir_arg $ events_arg $ slo_arg
           $ sf_arg $ segs_arg $ workers_arg));
      Cmd.v
        (Cmd.info "queries" ~doc:"List the 111-query workload with features.")
        Term.(const queries_cmd $ const ());
      Cmd.v
        (Cmd.info "rules"
           ~doc:
             "List every registered transformation rule: id, name, kind, \
              promise and declared root shapes (the prefilter mask).")
        Term.(const rules_cmd $ const ());
      (let rule_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "rule" ] ~docv:"NAME"
               ~doc:"Audit a single rule by name instead of the full set.")
       in
       let seeds_arg =
         Arg.(
           value & opt int Rulecheck.default_seeds
           & info [ "seeds" ] ~docv:"K"
               ~doc:
                 "Generator worlds to sweep (data and selection constants \
                  are deterministic in the seed).")
       in
       let json_arg =
         Arg.(
           value & flag
           & info [ "json" ]
               ~doc:"Emit the report as JSON (the nightly CI artifact shape).")
       in
       let suite_arg =
         Arg.(
           value & flag
           & info [ "suite" ]
               ~doc:
                 "Audit every registered rule plus the default cost model \
                  (the default; overrides --rule).")
       in
       Cmd.v
         (Cmd.info "rulecheck"
            ~doc:
              "Audit the transformation rules without running the optimizer: \
               semantic equivalence of every alternative against the naive \
               oracle on seed-driven small models, shape-mask soundness \
               (prefilter contract), Memo purity, output-column \
               preservation, property reachability, and cost-model \
               monotonicity lints. Exits nonzero on error-severity \
               diagnostics.")
         Term.(
           const rulecheck_cmd $ rule_arg $ seeds_arg $ json_arg $ suite_arg));
      (let dot_arg =
         Arg.(
           value & flag
           & info [ "dot" ]
               ~doc:
                 "Emit the rule-interaction graph as Graphviz (one cluster \
                  per stratum; unreachable rules dashed).")
       in
       let json_arg =
         Arg.(
           value & flag
           & info [ "json" ]
               ~doc:"Emit the report as JSON (the nightly CI artifact shape).")
       in
       let suite_arg =
         Arg.(
           value & flag
           & info [ "suite" ]
               ~doc:
                 "Also optimize every bundled TPC-DS query and check every \
                  real Memo group against the static growth bound.")
       in
       let seeds_arg =
         Arg.(
           value & opt int Interact.default_seeds
           & info [ "seeds" ] ~docv:"K"
               ~doc:"Generator worlds for producer inference.")
       in
       Cmd.v
         (Cmd.info "interact"
            ~doc:
              "Analyze the rule set as a system: infer each rule's produced \
               shapes, build the rule-interaction graph, find unbounded \
               derivation cycles, shadowed rules and promise inversions, \
               compute the stratification, and bound search-space growth. \
               Exits nonzero on error-severity diagnostics or suite \
               failures.")
         Term.(
           const (fun dot json suite seeds sf segs workers ->
               interact_cmd dot json suite seeds
                 (lazy (make_env sf segs workers)))
           $ dot_arg $ json_arg $ suite_arg $ seeds_arg $ sf_arg $ segs_arg
           $ workers_arg));
    ]
  in
  try exit (Cmd.eval ~catch:false (Cmd.group info cmds)) with
  | Gpos.Gpos_error.Error (_, msg) ->
      prerr_endline ("error: " ^ msg);
      exit 1
  | Orca.Optimizer.Unsupported_query msg ->
      prerr_endline ("unsupported query: " ^ msg);
      exit 1
