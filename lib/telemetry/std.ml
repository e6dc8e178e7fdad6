(* The standard Orca metric set, registered once against
   [Metrics.default]. Everything recorded here comes from counters the
   engine/Memo/scheduler already maintain unconditionally, so keeping
   telemetry always-on costs one [record_query] call per optimization — a
   few dozen atomic adds on the cold path.

   Add-a-metric checklist (see DESIGN.md):
     1. register the handle here with a help string,
     2. bump it from the owning layer; an optimizer work count is a field
        of that layer's one record (Obs.Report.memo_stat or search_stat,
        Gpos.Scheduler.profile), which [record_query] reads,
     3. every series in a `metrics --json` snapshot is regression-gated by
        `bench/gate.exe --metrics`; a wall-time family also goes on the
        gate's timing list (at least 4.0 tolerance). *)

let r = Metrics.default

let c name help = Metrics.counter r ~help name
let g name help = Metrics.gauge r ~help name
let h name help = Metrics.histogram r ~help name

(* -- per-query outcomes -------------------------------------------- *)

let queries = c "orca_queries_total" "Queries optimized successfully."
let failures = c "orca_failures_total" "Optimizations that raised an error."

let unsupported =
  c "orca_unsupported_total" "Queries rejected as unsupported (clean reject)."

let opt_ms = h "orca_opt_ms" "Optimization wall time per query (ms)."

(* Per-phase wall time, labeled by phase (parse-bind, preprocess,
   stage:<name>, prov-annotate, ...). Handles memoized per label so the
   recording path does not re-enter the registry lock. *)
let phase_tbl : (string, Metrics.histogram) Hashtbl.t = Hashtbl.create 16
let phase_lock = Mutex.create ()

let phase name =
  Mutex.lock phase_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock phase_lock)
    (fun () ->
      match Hashtbl.find_opt phase_tbl name with
      | Some h -> h
      | None ->
          let h =
            Metrics.histogram r
              ~labels:[ ("phase", name) ]
              ~help:"Wall time per optimization phase (ms)." "orca_phase_ms"
          in
          Hashtbl.replace phase_tbl name h;
          h)

let observe_phase name ms = Metrics.observe (phase name) ms

(* -- Memo growth (winning stage, per query) ------------------------ *)

let memo_groups = c "orca_memo_groups_total" "Memo groups created (winning stage)."
let memo_gexprs = c "orca_memo_gexprs_total" "Group expressions created (winning stage)."
let memo_inserts = c "orca_memo_inserts_total" "Memo insert attempts."
let memo_dedup_hits = c "orca_memo_dedup_hits_total" "Inserts deduplicated against an existing gexpr."
let memo_merges = c "orca_memo_merges_total" "Group merges (duplicate detection)."
let memo_ops_interned = c "orca_memo_ops_interned_total" "Operator payloads hash-consed."
let memo_intern_hits = c "orca_memo_intern_hits_total" "Hash-cons hits (payload already interned)."

(* -- search / rules ------------------------------------------------ *)

let rule_fired = c "orca_rule_fired_total" "Transformation rules applied."
let rule_results = c "orca_rule_results_total" "Alternatives produced by rule applications."
let rule_prefiltered = c "orca_rule_prefiltered_total" "Rule applications skipped by the shape prefilter."
let contexts = c "orca_contexts_total" "Optimization contexts created."
let op_costings = c "orca_op_costings_total" "Operator cost computations."
let enforcer_costings = c "orca_enforcer_costings_total" "Enforcer cost computations."
let alternatives = c "orca_alternatives_total" "Plan alternatives offered to optimization contexts."
let alternatives_pruned =
  c "orca_alternatives_pruned_total"
    "Plan alternatives the incumbent bound skipped without costing."
let deadline_checks = c "orca_deadline_checks_total" "Stage-deadline checks."

(* -- caches (PR 4 speedups) ---------------------------------------- *)

let stats_memo_hits = c "orca_stats_memo_hits_total" "Group stats served from the stats memo."
let base_reuses = c "orca_base_reuses_total" "Base costs reused across contexts."
let winner_skips = c "orca_winner_skips_total" "Costings skipped via winner reuse."
let goal_hits = c "orca_goal_hits_total" "Optimization goals satisfied from the winner cache."

(* -- scheduler ----------------------------------------------------- *)

let jobs_created = c "orca_jobs_created_total" "Scheduler jobs created."
let jobs_run = c "orca_jobs_run_total" "Scheduler jobs run."
let queue_depth_max = g "orca_queue_depth_max" "Deepest scheduler queue observed (max over queries)."
let peak_heap_mb = g "orca_peak_heap_mb" "Largest major-heap footprint observed (MB)."

(* -- flight recorder ----------------------------------------------- *)

let flight_slow = c "orca_flight_slow_total" "Queries over the slow threshold."
let flight_failed = c "orca_flight_failed_total" "Failed optimizations seen by the flight recorder."
let flight_dumps = c "orca_flight_dumps_total" "AMPERe dumps emitted by the flight recorder."

(* -- plan cache / serve loop (lib/server) -------------------------- *)

let plan_cache_hits =
  c "orca_plan_cache_hits_total" "Serve requests answered from the plan cache."

let plan_cache_misses =
  c "orca_plan_cache_misses_total" "Serve requests that required a fresh optimization."

let plan_cache_evictions =
  c "orca_plan_cache_evictions_total" "Plan-cache entries evicted by the LRU bound."

let plan_cache_invalidations =
  c "orca_plan_cache_invalidations_total"
    "Plan-cache entries dropped by explicit catalog/stats invalidation."

let plan_cache_collisions =
  c "orca_plan_cache_collisions_total"
    "Fingerprint collisions detected (same hash, different normalized query)."

let serve_requests = c "orca_serve_requests_total" "Requests fielded by the serve loop."
let serve_errors = c "orca_serve_errors_total" "Serve requests that failed or were rejected."
let serve_ms = h "orca_serve_ms" "End-to-end serve latency per request (ms)."

let serve_sessions =
  c "orca_serve_sessions_total" "Protocol sessions opened against the server."

let sre_events =
  c "orca_sre_events_total" "Structured service events recorded (lib/sre)."

(* -- executor ------------------------------------------------------ *)

let exec_queries = c "orca_exec_queries_total" "Plans executed (simulated cluster)."
let exec_rows_scanned = c "orca_exec_rows_scanned_total" "Rows scanned by executed plans."
let exec_rows_moved = c "orca_exec_rows_moved_total" "Rows moved through motions."
let exec_net_bytes = c "orca_exec_net_bytes_total" "Bytes shipped over the interconnect."
let exec_spill_bytes = c "orca_exec_spill_bytes_total" "Bytes spilled to disk."
let exec_operators = c "orca_exec_operators_total" "Operator instances run."
let exec_subplan_hits = c "orca_exec_subplan_hits_total" "Subplan executions served from cache."
let exec_sim_ms = h "orca_exec_sim_ms" "Simulated execution time per query (ms)."

(* One call per optimized query, handed the records the winning stage's
   Memo, engine and schedulers (both, folded by [Obs.Report.sched_total])
   already keep. *)
let record_query ~opt_time_ms ~(memo : Obs.Report.memo_stat)
    ~(search : Obs.Report.search_stat) ~(sched : Gpos.Scheduler.profile)
    ~heap_mb ~phases =
  Metrics.inc queries;
  Metrics.observe opt_ms opt_time_ms;
  Metrics.add memo_groups memo.m_groups;
  Metrics.add memo_gexprs memo.m_gexprs;
  Metrics.add memo_inserts memo.m_inserts;
  Metrics.add memo_dedup_hits memo.m_dedup_hits;
  Metrics.add memo_merges memo.m_merges;
  Metrics.add memo_ops_interned memo.m_ops_interned;
  Metrics.add memo_intern_hits memo.m_intern_hits;
  Metrics.add rule_fired search.c_xforms;
  Metrics.add rule_results search.c_xform_results;
  Metrics.add rule_prefiltered search.c_prefilter_skips;
  Metrics.add contexts memo.m_ctx_created;
  Metrics.add op_costings search.c_op_costings;
  Metrics.add enforcer_costings search.c_enforcer_costings;
  Metrics.add alternatives (Obs.Report.alternatives_offered memo);
  Metrics.add alternatives_pruned search.c_alternatives_pruned;
  Metrics.add deadline_checks search.c_deadline_checks;
  Metrics.add stats_memo_hits search.c_stats_hits;
  Metrics.add base_reuses search.c_base_reuses;
  Metrics.add winner_skips search.c_winner_skips;
  Metrics.add goal_hits sched.p_goal_hits;
  Metrics.add jobs_created sched.p_jobs_created;
  Metrics.add jobs_run sched.p_jobs_run;
  Metrics.gauge_max queue_depth_max (float_of_int sched.p_max_queue_depth);
  Metrics.gauge_max peak_heap_mb heap_mb;
  List.iter (fun (name, ms) -> observe_phase name ms) phases
