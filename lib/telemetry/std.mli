(* The standard Orca metric set on [Metrics.default]: handles for every
   always-on pipeline counter, plus [record_query] — the single cold-path
   call lib/core makes per optimized query. *)

val queries : Metrics.counter
val failures : Metrics.counter
val unsupported : Metrics.counter
val opt_ms : Metrics.histogram

val phase : string -> Metrics.histogram
(** Memoized per-label handle for [orca_phase_ms{phase=...}]. *)

val observe_phase : string -> float -> unit

val time_phase : string -> (unit -> 'a) -> 'a
(** Run [f], observing its wall time into the phase histogram (also on
    exceptions). Deterministic under [Gpos.Clock.with_fake]. *)

val memo_groups : Metrics.counter
val memo_gexprs : Metrics.counter
val memo_inserts : Metrics.counter
val memo_dedup_hits : Metrics.counter
val memo_merges : Metrics.counter
val memo_ops_interned : Metrics.counter
val memo_intern_hits : Metrics.counter

val rule_fired : Metrics.counter
val rule_results : Metrics.counter
val rule_prefiltered : Metrics.counter
val contexts : Metrics.counter
val op_costings : Metrics.counter
val enforcer_costings : Metrics.counter
val alternatives : Metrics.counter
val deadline_checks : Metrics.counter

val stats_memo_hits : Metrics.counter
val base_reuses : Metrics.counter
val winner_skips : Metrics.counter
val goal_hits : Metrics.counter

val jobs_created : Metrics.counter
val jobs_run : Metrics.counter
val queue_depth_max : Metrics.gauge
val peak_heap_mb : Metrics.gauge

val flight_slow : Metrics.counter
val flight_failed : Metrics.counter
val flight_dumps : Metrics.counter

(** Plan cache and serve loop (lib/server). *)

val plan_cache_hits : Metrics.counter
val plan_cache_misses : Metrics.counter
val plan_cache_evictions : Metrics.counter
val plan_cache_invalidations : Metrics.counter
val plan_cache_collisions : Metrics.counter
val serve_requests : Metrics.counter
val serve_errors : Metrics.counter
val serve_ms : Metrics.histogram
val serve_sessions : Metrics.counter
val sre_events : Metrics.counter

val exec_queries : Metrics.counter
val exec_rows_scanned : Metrics.counter
val exec_rows_moved : Metrics.counter
val exec_net_bytes : Metrics.counter
val exec_spill_bytes : Metrics.counter
val exec_operators : Metrics.counter
val exec_subplan_hits : Metrics.counter
val exec_sim_ms : Metrics.histogram

val record_query :
  opt_time_ms:float ->
  memo:Obs.Report.memo_stat ->
  search:Obs.Report.search_stat ->
  sched:Gpos.Scheduler.profile ->
  heap_mb:float ->
  phases:(string * float) list ->
  unit
(** Add one optimized query's work counts — the winning stage's Memo and
    engine records and its schedulers' folded profile — plus its wall
    times and heap footprint to the standard series. *)
