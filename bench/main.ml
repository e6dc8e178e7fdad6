(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7), plus optimizer ablations and Bechamel micro-benchmarks.

     dune exec bench/main.exe            -- all experiments
     dune exec bench/main.exe -- fig12   -- one experiment
     dune exec bench/main.exe -- fig12 --sf 0.4 --segs 8 --workers 4

   Experiments: fig12 opt-stats fig13 fig14 fig15 taqo par-opt stages ablate
   running-example profile opt-speed serve micro. Figures are printed as rows
   (query id, times, ratio); EXPERIMENTS.md records paper-vs-measured for
   each. An unknown experiment name or a non-positive --sf/--segs/--workers
   is a usage error (exit 2). *)

open Ir

let sf = ref 0.25
let nsegs = ref 8
let workers = ref 1
let hawq_mem = ref (64.0 *. 1024.0 *. 1024.0)

(* calibrated so that roughly a third of Impala's executed queries exceed
   the per-node budget (the starred bars of Fig. 13) and Presto exceeds it
   on every query it can plan *)
let impala_mem () = 600_000.0 *. !sf
let presto_mem () = 500.0 *. !sf

(* simulated-time budget standing in for the paper's 10000s timeout *)
let timeout_factor = 1000.0

let line = String.make 76 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* --- shared environment --- *)

type bench_env = {
  db : Tpcds.Datagen.db;
  env : Engines.Engine.env;
  cluster : Exec.Cluster.t; (* HAWQ/GPDB-style cluster: ample memory *)
}

let the_env : bench_env option ref = ref None

let get_env () =
  match !the_env with
  | Some e -> e
  | None ->
      Printf.printf "generating mini-TPC-DS data (sf=%.2f, %d segments)...\n%!"
        !sf !nsegs;
      let db = Tpcds.Datagen.generate ~sf:!sf () in
      let env = Engines.Engine.create_env ~nsegs:!nsegs db in
      let cluster = Engines.Engine.cluster_for env ~mem_per_seg:!hawq_mem in
      let e = { db; env; cluster } in
      the_env := Some e;
      e

let orca_config () =
  Orca.Orca_config.with_workers
    (Orca.Orca_config.with_segments Orca.Orca_config.default !nsegs)
    !workers

let bind_query (e : bench_env) sql =
  let accessor =
    Catalog.Accessor.create ~provider:e.env.Engines.Engine.provider
      ~cache:e.env.Engines.Engine.cache ()
  in
  (accessor, Sqlfront.Binder.bind_sql accessor sql)

let optimize_orca (e : bench_env) sql =
  let accessor, query = bind_query e sql in
  Orca.Optimizer.optimize ~config:(orca_config ()) accessor query

let plan_legacy (e : bench_env) sql =
  let accessor, query = bind_query e sql in
  Planner.Legacy_planner.plan_sql
    ~config:
      {
        Planner.Legacy_planner.segments = !nsegs;
        dp_limit = 5;
        broadcast_inner = false;
      }
    accessor query

let execute (e : bench_env) plan =
  let _, metrics = Exec.Executor.run e.cluster plan in
  metrics.Exec.Metrics.sim_seconds

(* ============================= Figure 12 ============================== *)

(* Orca vs the legacy Planner over the full 111-query workload: per-query
   speed-up ratio of simulated execution times, with the paper's timeout
   semantics (ratios capped at 1000x). *)
let fig12 () =
  let e = get_env () in
  header
    "Figure 12 -- speed-up ratio of Orca vs Planner (mini-TPC-DS, all 111 \
     queries)";
  let results = ref [] in
  List.iter
    (fun (q : Tpcds.Queries.def) ->
      try
        let report = optimize_orca e q.Tpcds.Queries.sql in
        let orca_t = execute e report.Orca.Optimizer.plan in
        let pplan = plan_legacy e q.Tpcds.Queries.sql in
        let planner_t = execute e pplan in
        let timeout = timeout_factor *. Float.max orca_t 1e-6 in
        let capped = planner_t > timeout in
        let ratio =
          if capped then timeout_factor
          else planner_t /. Float.max orca_t 1e-9
        in
        results := (q, orca_t, planner_t, ratio, capped) :: !results
      with ex ->
        Printf.printf "q%-3d failed: %s\n" q.Tpcds.Queries.qid
          (Gpos.Gpos_error.to_string ex))
    (Lazy.force Tpcds.Queries.all);
  let results = List.rev !results in
  Printf.printf "%-5s %-17s %12s %12s %10s\n" "query" "family" "orca(s)"
    "planner(s)" "speed-up";
  List.iter
    (fun ((q : Tpcds.Queries.def), ot, pt, ratio, capped) ->
      Printf.printf "%-5d %-17s %12.5f %12.5f %9.1fx%s\n" q.Tpcds.Queries.qid
        q.Tpcds.Queries.family ot pt ratio
        (if capped then " (timeout)" else ""))
    results;
  (* §7.2.2 summary rows *)
  let n = List.length results in
  let same_or_better =
    List.length (List.filter (fun (_, _, _, r, _) -> r >= 0.98) results)
  in
  let capped_count =
    List.length (List.filter (fun (_, _, _, _, c) -> c) results)
  in
  let suite_orca =
    List.fold_left (fun a (_, o, _, _, _) -> a +. o) 0.0 results
  in
  let suite_planner =
    List.fold_left (fun a (_, _, p, _, _) -> a +. p) 0.0 results
  in
  let big_wins =
    List.length (List.filter (fun (_, _, _, r, _) -> r >= 10.0) results)
  in
  header "Section 7.2.2 summary (paper: 80% same-or-better, 5x suite, 14 capped)";
  let ratios = List.sort compare (List.map (fun (_, _, _, r, _) -> r) results) in
  let median = List.nth ratios (List.length ratios / 2) in
  let geo =
    exp
      (List.fold_left (fun a r -> a +. log (Float.max r 1e-9)) 0.0 ratios
      /. float_of_int (List.length ratios))
  in
  Printf.printf "queries with Orca same or better       : %d / %d (%.0f%%)\n"
    same_or_better n
    (100.0 *. float_of_int same_or_better /. float_of_int n);
  Printf.printf "whole-suite speed-up (sum of times)     : %.1fx\n"
    (suite_planner /. Float.max suite_orca 1e-9);
  Printf.printf "median / geometric-mean speed-up        : %.1fx / %.1fx\n"
    median geo;
  Printf.printf "queries at the %.0fx timeout cap        : %d\n" timeout_factor
    capped_count;
  Printf.printf "queries with >= 10x speed-up            : %d\n" big_wins

(* ======================= optimization statistics ======================= *)

let opt_stats () =
  let e = get_env () in
  header
    "Optimization time and memory (paper §7.2.2: ~4s mean, ~200MB at 10TB \
     scale)";
  let times = ref [] and groups = ref [] and gexprs = ref [] in
  let heap = ref 0.0 in
  List.iter
    (fun (q : Tpcds.Queries.def) ->
      try
        let report = optimize_orca e q.Tpcds.Queries.sql in
        times := report.Orca.Optimizer.opt_time_ms :: !times;
        groups := report.Orca.Optimizer.groups :: !groups;
        gexprs := report.Orca.Optimizer.gexprs :: !gexprs;
        heap := Float.max !heap report.Orca.Optimizer.peak_heap_mb
      with _ -> ())
    (Lazy.force Tpcds.Queries.all);
  let ts = List.sort compare !times in
  let n = List.length ts in
  let mean = List.fold_left ( +. ) 0.0 ts /. float_of_int n in
  let median = List.nth ts (n / 2) in
  let p95 = List.nth ts (n * 95 / 100) in
  let avg_int l =
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  Printf.printf "queries optimized        : %d\n" n;
  Printf.printf "mean optimization time   : %.1f ms\n" mean;
  Printf.printf "median / p95             : %.1f / %.1f ms\n" median p95;
  Printf.printf "mean memo groups         : %.1f\n" (avg_int !groups);
  Printf.printf "mean group expressions   : %.1f\n" (avg_int !gexprs);
  Printf.printf "peak OCaml heap          : %.1f MB\n" !heap

(* ========================= Figures 13, 14, 15 ========================= *)

let engine_specs () =
  [
    Engines.Engine.hawq ~mem_per_seg:!hawq_mem;
    Engines.Engine.impala ~mem_per_seg:(impala_mem ());
    Engines.Engine.presto ~mem_per_seg:(presto_mem ());
    Engines.Engine.stinger ~mem_per_seg:!hawq_mem;
  ]

let run_engines () =
  let e = get_env () in
  let specs = engine_specs () in
  List.map
    (fun spec ->
      ( spec,
        List.map
          (fun q -> Engines.Engine.run spec e.env q)
          (Lazy.force Tpcds.Queries.all) ))
    specs

let engine_results = ref None

let get_engine_results () =
  match !engine_results with
  | Some r -> r
  | None ->
      let r = run_engines () in
      engine_results := Some r;
      r

let speedup_figure ~title ~(baseline : Engines.Engine.name) () =
  let results = get_engine_results () in
  let find name =
    List.find (fun (s, _) -> s.Engines.Engine.ename = name) results |> snd
  in
  let hawq = find Engines.Engine.HAWQ and other = find baseline in
  header title;
  Printf.printf "%-5s %-17s %12s %12s %10s\n" "query" "family" "HAWQ(s)"
    (Engines.Engine.name_to_string baseline ^ "(s)")
    "speed-up";
  let ratios = ref [] in
  List.iter2
    (fun (h : Engines.Engine.result) (o : Engines.Engine.result) ->
      let q = Tpcds.Queries.get h.Engines.Engine.qid in
      match (h.Engines.Engine.status, o.Engines.Engine.status) with
      | Engines.Engine.S_ok, Engines.Engine.S_ok ->
          let ht = Option.get h.Engines.Engine.sim_seconds in
          let ot = Option.get o.Engines.Engine.sim_seconds in
          let r = ot /. Float.max ht 1e-9 in
          ratios := r :: !ratios;
          Printf.printf "%-5d %-17s %12.5f %12.5f %9.1fx\n"
            h.Engines.Engine.qid q.Tpcds.Queries.family ht ot r
      | Engines.Engine.S_ok, Engines.Engine.S_oom ->
          Printf.printf "%-5d %-17s %12.5f %12s %10s\n" h.Engines.Engine.qid
            q.Tpcds.Queries.family
            (Option.get h.Engines.Engine.sim_seconds)
            "OOM(*)" "-"
      | _ -> ())
    hawq other;
  (match !ratios with
  | [] -> ()
  | rs ->
      let geo =
        exp (List.fold_left (fun a r -> a +. log r) 0.0 rs /. float_of_int (List.length rs))
      in
      let mean = List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs) in
      Printf.printf "\ncommonly-executed queries: %d; mean speed-up %.1fx (geometric %.1fx)\n"
        (List.length rs) mean geo)

let fig13 () =
  speedup_figure
    ~title:
      "Figure 13 -- HAWQ(Orca) vs Impala simulation (paper: 6x average, \
       starred queries out of memory)"
    ~baseline:Engines.Engine.Impala ()

let fig14 () =
  speedup_figure
    ~title:"Figure 14 -- HAWQ(Orca) vs Stinger simulation (paper: 21x average)"
    ~baseline:Engines.Engine.Stinger ()

let fig15 () =
  let results = get_engine_results () in
  header
    "Figure 15 -- TPC-DS query support (paper: optimize 111/31/12/19, \
     execute 111/20/0/19)";
  Printf.printf "%-10s %12s %12s\n" "system" "optimization" "execution";
  List.iter
    (fun ((spec : Engines.Engine.spec), rs) ->
      let optimized =
        List.length
          (List.filter
             (fun (r : Engines.Engine.result) ->
               match r.Engines.Engine.status with
               | Engines.Engine.S_unsupported _ | Engines.Engine.S_opt_failed _
                 ->
                   false
               | _ -> true)
             rs)
      in
      let executed =
        List.length
          (List.filter
             (fun (r : Engines.Engine.result) ->
               r.Engines.Engine.status = Engines.Engine.S_ok)
             rs)
      in
      Printf.printf "%-10s %12d %12d\n"
        (Engines.Engine.name_to_string spec.Engines.Engine.ename)
        optimized executed)
    results

(* =============================== TAQO ================================ *)

let taqo () =
  let e = get_env () in
  header "TAQO (paper §6.2, Fig. 11) -- cost model vs actual cost ordering";
  let queries = [ 1; 9; 27; 55; 64; 82 ] in
  List.iter
    (fun qid ->
      let q = Tpcds.Queries.get qid in
      try
        let report = optimize_orca e q.Tpcds.Queries.sql in
        let outcome =
          Orca.Taqo.run ~n:14 report ~execute:(fun p -> execute e p)
        in
        Printf.printf
          "q%-3d %-15s plans-in-space=%10.0f sampled=%2d score=%+.3f \
           chosen-plan-rank=%d\n"
          qid q.Tpcds.Queries.family outcome.Orca.Taqo.plans_in_space
          (List.length outcome.Orca.Taqo.points)
          outcome.Orca.Taqo.score outcome.Orca.Taqo.best_rank;
        List.iteri
          (fun i (p : Orca.Taqo.point) ->
            if i < 6 then
              Printf.printf "      est=%12.1f  actual=%10.6fs\n"
                p.Orca.Taqo.estimated p.Orca.Taqo.actual)
          (List.sort
             (fun (a : Orca.Taqo.point) b ->
               Float.compare a.Orca.Taqo.estimated b.Orca.Taqo.estimated)
             outcome.Orca.Taqo.points)
      with ex ->
        Printf.printf "q%-3d failed: %s\n" qid (Gpos.Gpos_error.to_string ex))
    queries

(* ======================= parallel optimization ======================== *)

let par_opt () =
  let e = get_env () in
  header "Parallel query optimization (paper §4.2) -- workers vs latency";
  Printf.printf
    "host exposes %d CPU core(s) (Domain.recommended_domain_count); with one\n\
     core, multi-worker runs can only add scheduling overhead -- see\n\
     EXPERIMENTS.md.\n\n"
    (Domain.recommended_domain_count ());
  (* a wide join whose exploration produces a large job graph *)
  let wide =
    "SELECT i_brand, count(*) AS c FROM store_sales, store_returns, item, \
     customer, customer_address, date_dim, store WHERE ss_item_sk = \
     sr_item_sk AND ss_ticket_number = sr_ticket_number AND ss_item_sk = \
     i_item_sk AND ss_customer_sk = c_customer_sk AND c_current_addr_sk = \
     ca_address_sk AND ss_sold_date_sk = d_date_sk AND ss_store_sk = \
     s_store_sk AND d_year = 2000 GROUP BY i_brand ORDER BY c DESC LIMIT 5"
  in
  let sqls = [ wide; (Tpcds.Queries.get 5).Tpcds.Queries.sql ] in
  List.iter
    (fun workers ->
      let t0 = Gpos.Clock.now () in
      let jobs = ref 0 in
      List.iter
        (fun sql ->
          let accessor, query = bind_query e sql in
          let config =
            Orca.Orca_config.with_workers (orca_config ()) workers
          in
          let report = Orca.Optimizer.optimize ~config accessor query in
          jobs := !jobs + report.Orca.Optimizer.jobs_created)
        sqls;
      Printf.printf "workers=%d  total=%7.1f ms  scheduler jobs=%d\n" workers
        (Gpos.Clock.ms_since t0) !jobs)
    [ 1; 2; 4; 8 ];
  (* The intra-query jobs above are microseconds long, so the global job
     queue dominates (see EXPERIMENTS.md). The same scheduler does scale
     once jobs are coarse: below, each job is one whole-query optimization
     (concurrent sessions sharing the MD cache, paper §5). *)
  Printf.printf
    "\ncoarse-grained: one job per query, 24 optimizations per run\n";
  let batch =
    List.concat_map
      (fun qid -> [ (Tpcds.Queries.get qid).Tpcds.Queries.sql ])
      [ 1; 5; 9; 13; 17; 21; 25; 29; 33; 37; 41; 45;
        49; 53; 57; 61; 65; 69; 73; 77; 81; 85; 89; 93 ]
  in
  let base_ms = ref 0.0 in
  List.iter
    (fun workers ->
      let sched = Gpos.Scheduler.create ~workers () in
      let t0 = Gpos.Clock.now () in
      let jobs =
        List.map
          (fun sql () ->
            let accessor, query = bind_query e sql in
            ignore (Orca.Optimizer.optimize ~config:(orca_config ()) accessor query);
            Gpos.Scheduler.Finished)
          batch
      in
      let spawned = ref false in
      Gpos.Scheduler.run sched
        (fun () ->
          if !spawned then Gpos.Scheduler.Finished
          else begin
            spawned := true;
            Gpos.Scheduler.Wait_for
              (List.map (fun run -> { Gpos.Scheduler.run; goal = None }) jobs)
          end);
      let ms = Gpos.Clock.ms_since t0 in
      if workers = 1 then base_ms := ms;
      Printf.printf "workers=%d  total=%7.1f ms  speed-up=%.2fx\n" workers ms
        (!base_ms /. Float.max 1e-9 ms))
    [ 1; 2; 4; 8 ]

(* ========================= multi-stage opt =========================== *)

let stages () =
  let e = get_env () in
  header "Multi-stage optimization (paper §4.1) -- staged vs full rule set";
  let sqls = [ 95; 21; 61; 71; 5 ] in
  List.iter
    (fun qid ->
      let q = Tpcds.Queries.get qid in
      let run config label =
        let accessor, query = bind_query e q.Tpcds.Queries.sql in
        let report = Orca.Optimizer.optimize ~config accessor query in
        Printf.printf
          "q%-3d %-12s opt=%7.1f ms  cost=%12.1f  stage=%s  groups=%d\n" qid
          label report.Orca.Optimizer.opt_time_ms
          report.Orca.Optimizer.plan.Expr.pcost
          report.Orca.Optimizer.stage_name report.Orca.Optimizer.groups
      in
      run (orca_config ()) "single";
      run
        (Orca.Orca_config.with_stages (orca_config ())
           (Xform.Ruleset.two_stage ~timeout_ms:200.0 ~cost_threshold:5000.0 ()))
        "two-stage")
    sqls

(* ============================= ablations ============================== *)

(* Toggle the §7.2.2 feature list off one at a time and measure the damage
   on queries sensitive to each feature. *)
let ablate () =
  let e = get_env () in
  header "Ablations -- the §7.2.2 features, disabled one at a time";
  let run_config config sql =
    let accessor, query = bind_query e sql in
    let report = Orca.Optimizer.optimize ~config accessor query in
    execute e report.Orca.Optimizer.plan
  in
  let compare_sql label config name sql =
    try
      let base = run_config (orca_config ()) sql in
      let without = run_config config sql in
      Printf.printf "%-22s %-4s  with=%10.6fs  without=%10.6fs  (%.1fx)\n"
        label name base without (without /. Float.max base 1e-9)
    with ex ->
      Printf.printf "%-22s %-4s  %s\n" label name (Gpos.Gpos_error.to_string ex)
  in
  let compare_feature label config qids =
    List.iter
      (fun qid ->
        let q = Tpcds.Queries.get qid in
        compare_sql label config (Printf.sprintf "q%d" qid) q.Tpcds.Queries.sql)
      qids
  in
  compare_feature "join-ordering"
    (Orca.Orca_config.without_rules (orca_config ())
       [ "JoinCommutativity"; "JoinAssociativity" ])
    [ 1; 5; 71 ];
  (* multi-stage aggregation pays off when groups are few and the input is
     not already distributed on the grouping key *)
  List.iter
    (fun (name, sql) ->
      compare_sql "multi-stage-agg"
        (Orca.Orca_config.without_rules (orca_config ()) [ "SplitGbAgg" ])
        name sql)
    [
      ( "agg1",
        "SELECT ss_store_sk, count(*) AS c, sum(ss_ext_sales_price) AS s FROM \
         store_sales GROUP BY ss_store_sk ORDER BY c DESC LIMIT 10" );
      ( "agg2",
        "SELECT ss_promo_sk, avg(ss_net_profit) AS p FROM store_sales GROUP \
         BY ss_promo_sk ORDER BY p DESC LIMIT 10" );
    ];
  compare_feature "partition-elimination"
    (Orca.Orca_config.without_rules (orca_config ()) [ "Select2Scan" ])
    [ 95; 96 ];
  (* decorrelation off makes these queries unsupported, like engines that
     lack the feature; report that *)
  compare_feature "decorrelation"
    (Orca.Orca_config.without_decorrelation (orca_config ()))
    [ 13; 17 ];
  List.iter
    (fun qid ->
      let q = Tpcds.Queries.get qid in
      compare_sql "column-pruning"
        (Orca.Orca_config.without_column_pruning (orca_config ()))
        (Printf.sprintf "q%d" qid) q.Tpcds.Queries.sql)
    [ 5; 61; 75 ];
  (* dynamic partition elimination is an executor-side feature: compare
     scanned rows and time with it on and off *)
  List.iter
    (fun (name, sql) ->
      try
        let report = optimize_orca e sql in
        let _, m_on =
          Exec.Executor.run ~dpe:true e.cluster report.Orca.Optimizer.plan
        in
        let _, m_off =
          Exec.Executor.run ~dpe:false e.cluster report.Orca.Optimizer.plan
        in
        Printf.printf
          "%-22s %-4s  with=%10.6fs  without=%10.6fs  (%.1fx, %d parts \
           pruned at run time, %.0f vs %.0f rows scanned)\n"
          "dynamic-part-elim" name m_on.Exec.Metrics.sim_seconds
          m_off.Exec.Metrics.sim_seconds
          (m_off.Exec.Metrics.sim_seconds
          /. Float.max 1e-9 m_on.Exec.Metrics.sim_seconds)
          m_on.Exec.Metrics.partitions_pruned_dynamically
          m_on.Exec.Metrics.rows_scanned m_off.Exec.Metrics.rows_scanned
      with ex ->
        Printf.printf "%-22s %-4s  %s\n" "dynamic-part-elim" name
          (Gpos.Gpos_error.to_string ex))
    [
      (* the predicate is on the dimension (d_year), so static elimination
         cannot touch the fact; only the join's observed values can *)
      ( "dpe1",
        "SELECT count(*) AS c FROM store_sales, date_dim WHERE \
         ss_sold_date_sk = d_date_sk AND d_year = 2000" );
      ( "dpe2",
        "SELECT i_category, sum(ws_ext_sales_price) AS s FROM web_sales, \
         date_dim, item WHERE ws_sold_date_sk = d_date_sk AND ws_item_sk = \
         i_item_sk AND d_year = 1999 AND d_moy = 6 GROUP BY i_category ORDER \
         BY s DESC LIMIT 5" );
    ]

(* ====================== observability profile ======================== *)

let profile_json = ref None

(* Per-query optimizer/executor profile over the whole workload, with a
   machine-readable JSON dump (--profile-json PATH, conventionally
   BENCH_profile.json) for tracking optimizer behaviour across commits. *)
let profile () =
  let e = get_env () in
  header
    "Observability profile (lib/obs) -- per-query optimizer/executor counters";
  let rows = ref [] in
  List.iter
    (fun (q : Tpcds.Queries.def) ->
      try
        let accessor, query = bind_query e q.Tpcds.Queries.sql in
        let config = Orca.Orca_config.with_obs (orca_config ()) in
        let report = Orca.Optimizer.optimize ~config accessor query in
        let _res, m = Exec.Executor.run e.cluster report.Orca.Optimizer.plan in
        rows := (q, report, m) :: !rows
      with ex ->
        Printf.printf "q%-3d failed: %s\n" q.Tpcds.Queries.qid
          (Gpos.Gpos_error.to_string ex))
    (Lazy.force Tpcds.Queries.all);
  let rows = List.rev !rows in
  Printf.printf "%-5s %9s %7s %7s %7s %9s %10s %11s\n" "query" "opt(ms)"
    "groups" "gexprs" "xforms" "jobs" "sim(s)" "scanned";
  List.iter
    (fun ((q : Tpcds.Queries.def), (r : Orca.Optimizer.report), m) ->
      Printf.printf "%-5d %9.2f %7d %7d %7d %9d %10.5f %11.0f\n"
        q.Tpcds.Queries.qid r.Orca.Optimizer.opt_time_ms r.Orca.Optimizer.groups
        r.Orca.Optimizer.gexprs r.Orca.Optimizer.xforms
        r.Orca.Optimizer.jobs_created m.Exec.Metrics.sim_seconds
        m.Exec.Metrics.rows_scanned)
    rows;
  let sum f = List.fold_left (fun a x -> a +. f x) 0.0 rows in
  Printf.printf
    "\ntotal: %d queries, %.1f ms optimization, %.4f s simulated execution\n"
    (List.length rows)
    (sum (fun (_, r, _) -> r.Orca.Optimizer.opt_time_ms))
    (sum (fun (_, _, m) -> m.Exec.Metrics.sim_seconds));
  match !profile_json with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 8192 in
      let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      pf "{\"sf\":%g,\"segments\":%d,\"workers\":%d,\"queries\":[\n" !sf !nsegs
        !workers;
      List.iteri
        (fun i ((q : Tpcds.Queries.def), (r : Orca.Optimizer.report), m) ->
          let kv =
            Exec.Metrics.to_kv m
            |> List.map (fun (k, v) -> Printf.sprintf "\"%s\":%g" k v)
            |> String.concat ","
          in
          pf
            "%s{\"qid\":%d,\"family\":%S,\"opt_ms\":%.3f,\"groups\":%d,\
             \"gexprs\":%d,\"contexts\":%d,\"xforms\":%d,\"jobs_created\":%d,\
             \"jobs_run\":%d,%s}"
            (if i = 0 then "" else ",\n")
            q.Tpcds.Queries.qid q.Tpcds.Queries.family
            r.Orca.Optimizer.opt_time_ms r.Orca.Optimizer.groups
            r.Orca.Optimizer.gexprs r.Orca.Optimizer.contexts
            r.Orca.Optimizer.xforms r.Orca.Optimizer.jobs_created
            r.Orca.Optimizer.jobs_run kv)
        rows;
      pf "\n],\"totals\":{\"queries\":%d,\"opt_ms\":%.3f,\"sim_seconds\":%g}}\n"
        (List.length rows)
        (sum (fun (_, r, _) -> r.Orca.Optimizer.opt_time_ms))
        (sum (fun (_, _, m) -> m.Exec.Metrics.sim_seconds));
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "profile JSON written to %s\n" path

(* ==================== optimization speed (opt-speed) ================== *)

let opt_json = ref None

(* The hot-path speedup benchmark: every TPC-DS query optimized twice — once
   with the caches on (the default config) and once with [without_speedups]
   (structural dedup, no stats memo, no rule pre-filter, no winner reuse) —
   timing both and proving the chosen plan and its cost identical. A third
   pass with observability on collects the machine-independent counters
   (Memo sizes, rule pre-filter skips, base-cost reuses) that the CI perf
   gate compares across commits; wall times are recorded in the JSON but not
   gated across machines (see bench/gate.ml). *)
let opt_speed () =
  let e = get_env () in
  header
    "opt-speed -- optimization wall time, caches on vs off (identity-checked)";
  let cfg_on = orca_config () in
  let cfg_off = Orca.Orca_config.without_speedups cfg_on in
  let cfg_obs = Orca.Orca_config.with_obs cfg_on in
  (* per-query on-config latencies go through the same log-bucketed
     histogram production telemetry uses, so the p50/p95/p99 written to
     the JSON carry the documented ~4.4% rank-error bound *)
  let lat_reg = Telemetry.Metrics.create () in
  let lat_hist =
    Telemetry.Metrics.histogram lat_reg
      ~help:"opt-speed on-config latency (ms)" "bench_opt_on_ms"
  in
  let rows = ref [] in
  let mismatches = ref [] in
  List.iter
    (fun (q : Tpcds.Queries.def) ->
      let qid = q.Tpcds.Queries.qid in
      let opt config =
        let accessor, query = bind_query e q.Tpcds.Queries.sql in
        Orca.Optimizer.optimize ~config accessor query
      in
      (* best-of-3 wall time per configuration: optimization runs in the
         low-millisecond range where GC pauses and OS scheduling dominate a
         single sample *)
      let opt_min config =
        let best = ref (opt config) in
        for _ = 2 to 3 do
          let r = opt config in
          if
            r.Orca.Optimizer.opt_time_ms
            < !best.Orca.Optimizer.opt_time_ms
          then best := r
        done;
        !best
      in
      try
        let r_on = opt_min cfg_on in
        let r_off = opt_min cfg_off in
        (* identity: the speedups must not change the plan, its cost, or the
           shape of the search (same Memo growth) *)
        let dxl_on = Dxl.Dxl_plan.to_string r_on.Orca.Optimizer.plan in
        let dxl_off = Dxl.Dxl_plan.to_string r_off.Orca.Optimizer.plan in
        if dxl_on <> dxl_off then
          mismatches :=
            Printf.sprintf "q%d: plan DXL differs" qid :: !mismatches;
        if
          r_on.Orca.Optimizer.plan.Expr.pcost
          <> r_off.Orca.Optimizer.plan.Expr.pcost
        then
          mismatches :=
            Printf.sprintf "q%d: cost %f <> %f" qid
              r_on.Orca.Optimizer.plan.Expr.pcost
              r_off.Orca.Optimizer.plan.Expr.pcost
            :: !mismatches;
        if
          r_on.Orca.Optimizer.groups <> r_off.Orca.Optimizer.groups
          || r_on.Orca.Optimizer.gexprs <> r_off.Orca.Optimizer.gexprs
        then
          mismatches :=
            Printf.sprintf "q%d: memo differs (%d/%d groups, %d/%d gexprs)"
              qid r_on.Orca.Optimizer.groups r_off.Orca.Optimizer.groups
              r_on.Orca.Optimizer.gexprs r_off.Orca.Optimizer.gexprs
            :: !mismatches;
        Telemetry.Metrics.observe lat_hist r_on.Orca.Optimizer.opt_time_ms;
        let r_obs = opt cfg_obs in
        let obs = Option.get r_obs.Orca.Optimizer.obs in
        let fired, prefiltered =
          List.fold_left
            (fun (f, p) (r : Obs.Report.rule_stat) ->
              (f + r.Obs.Report.r_fired, p + r.Obs.Report.r_prefiltered))
            (0, 0) obs.Obs.Report.rules
        in
        rows := (q, r_on, r_off, obs, fired, prefiltered) :: !rows
      with ex ->
        Printf.printf "q%-3d failed: %s\n" qid (Gpos.Gpos_error.to_string ex))
    (Lazy.force Tpcds.Queries.all);
  let rows = List.rev !rows in
  Printf.printf "%-5s %9s %9s %8s %7s %7s %7s %7s %7s\n" "query" "on(ms)"
    "off(ms)" "speedup" "groups" "gexprs" "prefilt" "reuse" "wskip";
  List.iter
    (fun ((q : Tpcds.Queries.def), r_on, r_off, obs, _fired, prefiltered) ->
      let on = r_on.Orca.Optimizer.opt_time_ms in
      let off = r_off.Orca.Optimizer.opt_time_ms in
      Printf.printf "%-5d %9.2f %9.2f %7.2fx %7d %7d %7d %7d %7d\n"
        q.Tpcds.Queries.qid on off
        (off /. Float.max on 1e-9)
        r_on.Orca.Optimizer.groups r_on.Orca.Optimizer.gexprs prefiltered
        obs.Obs.Report.search.Obs.Report.c_base_reuses
        obs.Obs.Report.search.Obs.Report.c_winner_skips)
    rows;
  let sum f = List.fold_left (fun a x -> a + f x) 0 rows in
  let sumf f = List.fold_left (fun a x -> a +. f x) 0.0 rows in
  let on_total =
    sumf (fun (_, r, _, _, _, _) -> r.Orca.Optimizer.opt_time_ms)
  in
  let off_total =
    sumf (fun (_, _, r, _, _, _) -> r.Orca.Optimizer.opt_time_ms)
  in
  let n = List.length rows in
  let geomean =
    exp
      (sumf (fun (_, r_on, r_off, _, _, _) ->
           log
             (Float.max 1e-9
                (r_off.Orca.Optimizer.opt_time_ms
                /. Float.max 1e-9 r_on.Orca.Optimizer.opt_time_ms)))
      /. float_of_int (max 1 n))
  in
  let groups = sum (fun (_, r, _, _, _, _) -> r.Orca.Optimizer.groups) in
  let gexprs = sum (fun (_, r, _, _, _, _) -> r.Orca.Optimizer.gexprs) in
  let fired = sum (fun (_, _, _, _, f, _) -> f) in
  let prefiltered = sum (fun (_, _, _, _, _, p) -> p) in
  let base_reuses =
    sum (fun (_, _, _, o, _, _) -> o.Obs.Report.search.Obs.Report.c_base_reuses)
  in
  let winner_skips =
    sum (fun (_, _, _, o, _, _) ->
        o.Obs.Report.search.Obs.Report.c_winner_skips)
  in
  let interned =
    sum (fun (_, _, _, o, _, _) ->
        o.Obs.Report.memo.Obs.Report.m_ops_interned)
  in
  let intern_hits =
    sum (fun (_, _, _, o, _, _) -> o.Obs.Report.memo.Obs.Report.m_intern_hits)
  in
  let lat = Telemetry.Metrics.hsnap lat_hist in
  let p50 = Telemetry.Metrics.quantile lat 0.50 in
  let p95 = Telemetry.Metrics.quantile lat 0.95 in
  let p99 = Telemetry.Metrics.quantile lat 0.99 in
  Printf.printf
    "\ntotal: %d queries  on=%.1f ms  off=%.1f ms  (%.2fx total, %.2fx \
     geomean)\n"
    n on_total off_total
    (off_total /. Float.max 1e-9 on_total)
    geomean;
  Printf.printf "on-config latency quantiles: p50=%.2f p95=%.2f p99=%.2f ms\n"
    p50 p95 p99;
  Printf.printf
    "rule applications: %d fired, %d pre-filtered (%.1f%% skipped)\n" fired
    prefiltered
    (100.0
    *. float_of_int prefiltered
    /. float_of_int (max 1 (fired + prefiltered)));
  Printf.printf
    "base-cost reuses: %d  winner-spawn skips: %d  interning: %d ops, %d \
     hits\n"
    base_reuses winner_skips interned intern_hits;
  (match !mismatches with
  | [] -> Printf.printf "identity: all %d plans and costs byte-identical\n" n
  | ms ->
      Printf.printf "IDENTITY VIOLATIONS:\n";
      List.iter (Printf.printf "  %s\n") (List.rev ms));
  (match !opt_json with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 8192 in
      let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      pf
        "{\"experiment\":\"opt-speed\",\"sf\":%g,\"segments\":%d,\"workers\":%d,\n"
        !sf !nsegs !workers;
      pf "\"queries\":[\n";
      List.iteri
        (fun i ((q : Tpcds.Queries.def), r_on, r_off, obs, f, p) ->
          pf
            "%s{\"qid\":%d,\"on_ms\":%.3f,\"off_ms\":%.3f,\"groups\":%d,\
             \"gexprs\":%d,\"rule_fired\":%d,\"rule_prefiltered\":%d,\
             \"base_reuses\":%d,\"winner_skips\":%d}"
            (if i = 0 then "" else ",\n")
            q.Tpcds.Queries.qid r_on.Orca.Optimizer.opt_time_ms
            r_off.Orca.Optimizer.opt_time_ms r_on.Orca.Optimizer.groups
            r_on.Orca.Optimizer.gexprs f p
            obs.Obs.Report.search.Obs.Report.c_base_reuses
            obs.Obs.Report.search.Obs.Report.c_winner_skips)
        rows;
      pf "\n],\n";
      pf
        "\"summary\":{\"queries\":%d,\"identity_violations\":%d,\
         \"on_ms_total\":%.3f,\"off_ms_total\":%.3f,\
         \"speedup_geomean\":%.4f,\"p50_ms\":%.4f,\"p95_ms\":%.4f,\
         \"p99_ms\":%.4f,\"groups\":%d,\"gexprs\":%d,\
         \"rule_fired\":%d,\"rule_prefiltered\":%d,\"base_reuses\":%d,\
         \"winner_skips\":%d,\"ops_interned\":%d,\"intern_hits\":%d}}\n"
        n
        (List.length !mismatches)
        on_total off_total geomean p50 p95 p99 groups gexprs fired prefiltered
        base_reuses winner_skips interned intern_hits;
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "opt-speed JSON written to %s\n" path);
  if !mismatches <> [] then exit 1

(* ====================== serve (optimizer-as-a-service) ================ *)

let serve_requests = ref 2000
let serve_events = ref None (* --events PATH: dump the event-log ring *)

(* Whitespace-only mangling: the token stream — and therefore the normalized
   text, fingerprint and parameter vector — is unchanged, so the request must
   be an exact cache hit. *)
let respace st sql =
  let buf = Buffer.create (String.length sql + 16) in
  String.iter
    (fun c ->
      if c = ' ' && Random.State.bool st then Buffer.add_string buf "  "
      else Buffer.add_char buf c)
    sql;
  Buffer.add_string buf "   ";
  Buffer.contents buf

(* Replace the last bare integer literal (outside string literals, not part
   of an identifier or float) with value+1: a same-shape request whose
   parameter vector differs in one position — the cache's rebind path.
   Returns [None] when the query has no such literal. *)
let perturb_int sql =
  let n = String.length sql in
  let ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '.'
  in
  let best = ref None in
  let i = ref 0 and in_str = ref false in
  while !i < n do
    let c = sql.[!i] in
    if !in_str then begin
      if c = '\'' then in_str := false;
      incr i
    end
    else if c = '\'' then begin
      in_str := true;
      incr i
    end
    else if c >= '0' && c <= '9' then begin
      let s = !i in
      while !i < n && sql.[!i] >= '0' && sql.[!i] <= '9' do
        incr i
      done;
      let pre_ok = s = 0 || not (ident_char sql.[s - 1]) in
      let post_ok = !i >= n || not (ident_char sql.[!i]) in
      if pre_ok && post_ok then best := Some (s, !i - s)
    end
    else incr i
  done;
  match !best with
  | None -> None
  | Some (s, len) -> (
      match int_of_string_opt (String.sub sql s len) with
      | None -> None
      | Some v ->
          Some
            (String.sub sql 0 s
            ^ string_of_int (v + 1)
            ^ String.sub sql (s + len) (n - s - len)))

(* Optimizer-as-a-service throughput: a resident {!Server.t} fields a seeded
   deterministic mix of requests over the supported TPC-DS queries — mostly
   verbatim repeats and whitespace variants (exact cache hits), plus a slice
   of constant-perturbed texts exercising the rebind path. A sample of hit
   replies is audited byte-for-byte against an independent cold optimization
   of the same request text: a cached plan that differs from fresh
   optimization is an identity violation and fails the run. The counters are
   machine-independent (fixed PRNG seed); qps and the latency quantiles
   measure the machine and are gated generously (see bench/gate.ml --serve). *)
let serve_bench () =
  let e = get_env () in
  header
    "serve -- resident optimizer service: plan-cache hit rate and throughput";
  let server =
    Server.of_provider ~config:(orca_config ()) e.env.Engines.Engine.provider
  in
  (* cold pass over the suite: every supported query becomes a shape; its
     first optimization is the cache's resident plan *)
  let pool = ref [] in
  let unsupported = ref 0 in
  List.iter
    (fun (q : Tpcds.Queries.def) ->
      match Server.optimize_sql server q.Tpcds.Queries.sql with
      | Ok _ -> pool := (q.Tpcds.Queries.qid, q.Tpcds.Queries.sql) :: !pool
      | Error _ -> incr unsupported)
    (Lazy.force Tpcds.Queries.all);
  let shapes = Array.of_list (List.rev !pool) in
  let nshapes = Array.length shapes in
  Printf.printf "warm-up: %d shapes cached (%d unsupported)\n%!" nshapes
    !unsupported;
  (* the cold pass (with its unsupported-query rejects) is warm-up, not
     service: restart the SLO window so the report covers the measured mix *)
  Sre.Slo.reset (Server.slo server);
  (* measured phase: fixed seed, so the hit/rebind/miss counts are
     deterministic across machines and gated as shape metrics *)
  let st = Random.State.make [| 0x09ca; nshapes |] in
  let lat_reg = Telemetry.Metrics.create () in
  let lat_hist =
    Telemetry.Metrics.histogram lat_reg
      ~help:"serve request latency (ms)" "bench_serve_ms"
  in
  let hits = ref 0 and rebinds = ref 0 and misses = ref 0 in
  let errors = ref 0 in
  let audits = ref 0 and violations = ref [] in
  let max_audits = 25 in
  let n_req = !serve_requests in
  let t0 = Gpos.Clock.now () in
  for i = 1 to n_req do
    let qid, sql = shapes.(Random.State.int st nshapes) in
    let roll = Random.State.int st 100 in
    let text =
      if roll < 80 then sql
      else if roll < 92 then respace st sql
      else match perturb_int sql with Some s -> s | None -> sql
    in
    match Server.optimize_sql server text with
    | Error _ -> incr errors
    | Ok r -> (
        Telemetry.Metrics.observe lat_hist r.Server.r_ms;
        match r.Server.r_result with
        | Server.Hit ->
            incr hits;
            (* byte-identity: a cache hit must serialize exactly like a
               fresh, cache-free optimization of the same request text *)
            if !audits < max_audits && i mod 37 = 0 then begin
              incr audits;
              let cold =
                Dxl.Dxl_plan.to_string (optimize_orca e text).Orca.Optimizer.plan
              in
              if Lazy.force r.Server.r_dxl <> cold then
                violations :=
                  Printf.sprintf "q%d: hit plan differs from cold optimization"
                    qid
                  :: !violations
            end
        | Server.Rebound -> incr rebinds
        | Server.Missed -> incr misses)
  done;
  let wall_ms = Gpos.Clock.ms_since t0 in
  let s = Server.stats server in
  let c = s.Server.s_cache in
  let answered = !hits + !rebinds in
  let hit_rate = float_of_int answered /. float_of_int (max 1 n_req) in
  let qps = float_of_int n_req /. Float.max 1e-9 (wall_ms /. 1000.0) in
  let lat = Telemetry.Metrics.hsnap lat_hist in
  let p50 = Telemetry.Metrics.quantile lat 0.50 in
  let p95 = Telemetry.Metrics.quantile lat 0.95 in
  let p99 = Telemetry.Metrics.quantile lat 0.99 in
  Printf.printf
    "requests : %d over %d shapes in %.1f ms (%.0f requests/s)\n" n_req nshapes
    wall_ms qps;
  Printf.printf
    "cache    : %d hits, %d rebinds, %d misses (hit rate %.1f%%), %d \
     evictions, %d collisions\n"
    !hits !rebinds !misses (100.0 *. hit_rate) c.Server.Plan_cache.evictions
    c.Server.Plan_cache.collisions;
  Printf.printf "latency  : p50=%.2f p95=%.2f p99=%.2f ms\n" p50 p95 p99;
  (match !violations with
  | [] ->
      Printf.printf
        "identity : %d sampled hits byte-identical to cold optimization\n"
        !audits
  | ms ->
      Printf.printf "IDENTITY VIOLATIONS:\n";
      List.iter (Printf.printf "  %s\n") (List.rev ms));
  let slo_report = Sre.Slo.report (Server.slo server) in
  Printf.printf
    "slo      : availability=%.4f attainment=%.4f latency_burn=%.3f \
     availability_burn=%.3f (%s)\n"
    slo_report.Sre.Slo.r_availability slo_report.Sre.Slo.r_attainment
    slo_report.Sre.Slo.r_latency_burn slo_report.Sre.Slo.r_availability_burn
    (if Sre.Slo.healthy slo_report then "healthy" else "violated");
  (match !serve_events with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Sre.Events.to_json_lines (Server.events server));
      close_out oc;
      Printf.printf "serve event log written to %s (%d retained of %d)\n" path
        (List.length (Sre.Events.entries (Server.events server)))
        (Sre.Events.total (Server.events server)));
  (match !opt_json with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 1024 in
      let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      pf
        "{\"experiment\":\"serve\",\"sf\":%g,\"segments\":%d,\"workers\":%d,\n"
        !sf !nsegs !workers;
      pf
        "\"summary\":{\"requests\":%d,\"shapes\":%d,\"errors\":%d,\
         \"hits\":%d,\"rebinds\":%d,\"misses\":%d,\"evictions\":%d,\
         \"collisions\":%d,\"identity_checks\":%d,\
         \"identity_violations\":%d,\"hit_rate\":%.4f,\"qps\":%.2f,\
         \"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f,\
         \"wall_ms\":%.3f,\n"
        n_req nshapes !errors !hits !rebinds !misses
        c.Server.Plan_cache.evictions c.Server.Plan_cache.collisions !audits
        (List.length !violations)
        hit_rate qps p50 p95 p99 wall_ms;
      pf "\"slo\":%s}}\n" (Sre.Slo.to_json slo_report);
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "serve JSON written to %s\n" path);
  if !violations <> [] then exit 1

(* ======================== running example (§4.1) ====================== *)

let running_example () =
  header "Running example (paper §4.1, Figs. 4-7) -- see examples/running_example.ml";
  Printf.printf "dune exec examples/running_example.exe\n"

(* ========================= Bechamel micro-benches ====================== *)

let micro () =
  let e = get_env () in
  header "Bechamel micro-benchmarks (one per figure/table driver)";
  let open Bechamel in
  let sql_simple = (Tpcds.Queries.get 95).Tpcds.Queries.sql in
  let sql_star = (Tpcds.Queries.get 1).Tpcds.Queries.sql in
  let sql_join5 = (Tpcds.Queries.get 5).Tpcds.Queries.sql in
  let sql_cte = (Tpcds.Queries.get 31).Tpcds.Queries.sql in
  let mk_opt name sql =
    Test.make ~name (Staged.stage (fun () -> ignore (optimize_orca e sql)))
  in
  let hist_a =
    Stats.Histogram.build
      (List.init 4096 (fun i -> Datum.Int (i * 7 mod 1000)))
  in
  let hist_b =
    Stats.Histogram.build (List.init 4096 (fun i -> Datum.Int (i mod 500)))
  in
  let report = optimize_orca e sql_star in
  let tests =
    [
      mk_opt "fig12/optimize-date-range" sql_simple;
      mk_opt "fig12/optimize-star-join" sql_star;
      mk_opt "fig12/optimize-5way-join" sql_join5;
      mk_opt "fig12/optimize-cte" sql_cte;
      Test.make ~name:"stats/histogram-join"
        (Staged.stage (fun () -> ignore (Stats.Histogram.join_eq hist_a hist_b)));
      Test.make ~name:"memo/plan-extraction"
        (Staged.stage (fun () ->
             ignore
               (Memolib.Extract.best_plan report.Orca.Optimizer.memo
                  (Memolib.Memo.root report.Orca.Optimizer.memo)
                  report.Orca.Optimizer.root_req)));
      Test.make ~name:"exec/run-star-join"
        (Staged.stage (fun () -> ignore (execute e report.Orca.Optimizer.plan)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) () in
    let results =
      Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ])
    in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            Printf.printf "%-32s %12.1f ns/run\n" name est
        | _ -> Printf.printf "%-32s (no estimate)\n" name)
      results
  in
  List.iter benchmark tests

(* ================================ main ================================ *)

let all_experiments () =
  fig12 ();
  opt_stats ();
  fig13 ();
  fig14 ();
  fig15 ();
  taqo ();
  par_opt ();
  stages ();
  ablate ();
  micro ()

let experiments =
  [
    ("fig12", fig12);
    ("opt-stats", opt_stats);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("taqo", taqo);
    ("par-opt", par_opt);
    ("stages", stages);
    ("ablate", ablate);
    ("running-example", running_example);
    ("profile", profile);
    ("opt-speed", opt_speed);
    ("serve", serve_bench);
    ("micro", micro);
  ]

let usage () =
  Printf.eprintf
    "usage: bench [EXPERIMENT...] [--sf F] [--segs N] [--workers N]\n\
    \       [--requests N] [--profile-json PATH] [--json PATH]\n\
     experiments: %s\n"
    (String.concat " " (List.map fst experiments))

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      usage ();
      exit 2)
    fmt

let () =
  let positive_float flag v =
    match float_of_string_opt v with
    | Some f when f > 0.0 -> f
    | _ -> usage_error "%s expects a positive number, got %S" flag v
  in
  let positive_int flag v =
    match int_of_string_opt v with
    | Some i when i > 0 -> i
    | _ -> usage_error "%s expects a positive integer, got %S" flag v
  in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | "--sf" :: v :: rest ->
        sf := positive_float "--sf" v;
        parse rest
    | "--segs" :: v :: rest ->
        nsegs := positive_int "--segs" v;
        parse rest
    | "--workers" :: v :: rest ->
        workers := positive_int "--workers" v;
        parse rest
    | "--requests" :: v :: rest ->
        serve_requests := positive_int "--requests" v;
        parse rest
    | "--events" :: v :: rest ->
        serve_events := Some v;
        parse rest
    | "--profile-json" :: v :: rest ->
        profile_json := Some v;
        parse rest
    | "--json" :: v :: rest ->
        opt_json := Some v;
        parse rest
    | [ ("--sf" | "--segs" | "--workers" | "--requests" | "--events"
        | "--profile-json" | "--json") as f ]
      ->
        usage_error "%s expects a value" f
    | x :: rest -> x :: parse rest
    | [] -> []
  in
  let cmds = parse (List.tl args) in
  (* reject unknown names before running anything *)
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then
        usage_error "unknown experiment %S" name)
    cmds;
  let dispatch name = (List.assoc name experiments) () in
  match cmds with
  (* bare --profile-json means "emit the profile", not "run everything" *)
  | [] -> if !profile_json <> None then profile () else all_experiments ()
  | cmds ->
      List.iter dispatch cmds;
      if !profile_json <> None && not (List.mem "profile" cmds) then profile ()
