(** The optimization engine (paper §4.1 workflow, §4.2 parallel search).

    Drives the four optimization steps — exploration, statistics derivation,
    implementation, optimization — as graphs of small re-entrant jobs on the
    GPOS scheduler. The paper's seven job kinds map to Exp(g)/Exp(gexpr),
    Imp(g)/Imp(gexpr), Opt(g,req)/Opt(gexpr,req) and Xform(gexpr,rule), with
    per-goal queues deduplicating concurrent work on the same (group,
    purpose) or (group, request). *)

open Ir

type t

exception
  Rule_contract_violation of { rule : string; rule_id : int; gexpr : int }
(** Raised (only with [rule_checks]) when a rule's [apply] mutated the Memo,
    violating the contract documented in lib/xform/rule.mli. *)

val create :
  ?workers:int ->
  ?fuzz_seed:int ->
  ?obs:bool ->
  ?rule_checks:bool ->
  ?prefilter:bool ->
  ?stats_memo:bool ->
  ?winner_reuse:bool ->
  ?stage_name:string ->
  ?prov:bool ->
  ?strata:(string * int) list ->
  ruleset:Xform.Ruleset.t ->
  model:Cost.Cost_model.t ->
  factory:Colref.Factory.t ->
  base:(Table_desc.t -> Stats.Relstats.t) ->
  Memolib.Memo.t ->
  t
(** [workers = 1] (default) is deterministic; more workers run optimization
    jobs on that many domains. [base] supplies base-table statistics.
    [fuzz_seed] makes the optimization scheduler dequeue PRNG-chosen jobs
    (the sanitizer's schedule fuzzer): a different but deterministic
    interleaving of the same costing work per seed. [obs] (default false)
    additionally collects per-rule firing counts and timings for the
    observability report. [prov] (default false) stamps every rule result
    with its origin — rule, source expression, [stage_name], promise — for
    the provenance layer (lib/prov). [rule_checks] (default false) is a
    debug mode that checksums the Memo around every rule application and
    raises {!Rule_contract_violation} if [apply] mutated it — the central
    enforcement of the rule.mli contract (lib/rulecheck audits the same
    contract statically). [strata] (default none) is a rule-name -> stratum
    map (lib/interact's stratification of the rule-interaction graph): when
    set, pending rules on a group expression sort by stratum ascending,
    promise descending within a stratum. Plan-identical to the default
    promise order — exploration is a fixpoint with order-independent
    duplicate detection.

    The speedup switches (all default true) never change the chosen plan or
    its cost: [prefilter] skips rule applications whose root-shape bitmap
    rules the expression out (the body would return []); [stats_memo]
    memoizes per-group row counts, row widths and redistribute skew;
    [winner_reuse] skips spawning child Opt jobs whose context already
    completed (single-worker schedules only) and reuses the operator's base
    cost across optimization contexts that differ only in required
    properties. *)

val set_deadline : t -> float option -> unit
(** Stage timeout in milliseconds from now; bounds exploration (a plan is
    still always produced from what was explored). *)

val explore : t -> unit
(** Step 1: fire exploration rules to a fixpoint from the root group. *)

val derive_statistics : t -> unit
(** Step 2: statistics derivation on the Memo (promise-based, memoized). *)

val implement : t -> unit
(** Step 3: fire implementation rules on every group. *)

val optimize : t -> Props.req -> unit
(** Step 4: submit the root optimization request; property enforcement and
    costing fill the optimization contexts. *)

val run : t -> Props.req -> Expr.plan
(** All four steps, then extract the best plan for the request. *)

(** {2 Work-count snapshots (lib/obs, lib/telemetry)} *)

val rule_profile : t -> Obs.Report.rule_stat list
(** Per-rule firing/result/skip counts and cumulative time over the engine's
    rule set. Timings are populated only when the engine was created with
    [~obs:true]; counters of rules that never fired are zero. *)

val sched_profiles : t -> (string * Gpos.Scheduler.profile) list
(** Utilization of the two schedulers, labelled "explore/implement" and
    "costing". *)

val search_profile : t -> Obs.Report.search_stat
(** A consistent-enough snapshot of the atomic search counters: rule
    applications, contexts, cost-model invocations and cache skips. *)
