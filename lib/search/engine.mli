(** The optimization engine (paper §4.1 workflow, §4.2 parallel search).

    Drives the four optimization steps — exploration, statistics derivation,
    implementation, optimization — as graphs of small re-entrant jobs on the
    GPOS scheduler. The paper's seven job kinds map to Exp(g)/Exp(gexpr),
    Imp(g)/Imp(gexpr), Opt(g,req)/Opt(gexpr,req) and Xform(gexpr,rule), with
    per-goal queues deduplicating concurrent work on the same (group,
    purpose) or (group, request). *)

open Ir

type t

val create :
  ?workers:int ->
  ?fuzz_seed:int ->
  ?obs:bool ->
  ?speedups:bool ->
  ?stage_name:string ->
  ?prov:bool ->
  ruleset:Xform.Ruleset.t ->
  model:Cost.Cost_model.t ->
  factory:Colref.Factory.t ->
  base:(Table_desc.t -> Stats.Relstats.t) ->
  Memolib.Memo.t ->
  t
(** [workers = 1] (default) is deterministic; more workers run optimization
    jobs on that many domains. [base] supplies base-table statistics.
    [fuzz_seed] makes costing run as jobs on the optimization scheduler,
    which dequeues PRNG-chosen jobs (the sanitizer's schedule fuzzer): a
    different but deterministic interleaving of the same costing work per
    seed. [obs] (default false)
    additionally collects per-rule firing counts and timings for the
    observability report. [prov] (default false) stamps every rule result
    with its origin — rule, source expression, [stage_name], promise — for
    the provenance layer (lib/prov). Rules fire in promise order (paper
    §8.1), highest first, ties in rule-set order: the stage's exploration
    and implementation rules are sorted once here.

    [speedups] (default true) switches the hot-path caches, none of which
    changes the chosen plan or its cost: the shape prefilter skips rule
    applications whose root-shape bitmap rules the expression out (the body
    would return []); the stats memo keeps per-group row counts, row widths
    and redistribute skew; winner reuse skips spawning child Opt jobs for a
    child-request vector whose base cost is already cached, reuses the
    operator's base cost across optimization contexts that differ only in
    required properties, and at one worker without a fuzz seed costs by
    direct recursion instead of jobs. *)

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

(** {2 The request-vector table}

    Costing asks each group expression for its child-request vectors
    ({!Requests.alternatives}) once: once per expression, or once per parent
    request for the operators that pass the request through
    ({!Requests.passes_request}). Vectors equal under [Props.req_equal]
    are one record, which holds the vector's base cost once priced. *)

type vector

val request_vectors :
  t -> Memolib.Memo.gexpr -> Expr.physical -> Props.req -> vector list
(** The expression's vectors under a parent request, in
    {!Requests.alternatives} order, built on first use. *)

val vector_reqs : vector -> Props.req list
val vector_priced : vector -> bool
(** Whether the vector holds its base cost. *)

val priced_vectors : t -> int
(** Vectors in the table that hold a base cost. *)

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
    applications, cost-model invocations, cache skips and the enforcer
    chains the incumbent bound pruned. Contexts and
    the alternatives offered to them are counted once, by the Memo
    ({!Memolib.Memo.profile}). *)
