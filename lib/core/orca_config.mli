(** Optimizer configuration (paper §3: "all components can be replaced
    individually and configured separately"): rule activation, optimization
    stages, parallelism, cost-model parameters, preprocessing toggles. *)

type t = {
  stages : Xform.Ruleset.stage list;
      (** run in order; a stage's cost threshold stops the staging early *)
  workers : int;       (** optimization worker domains (§4.2) *)
  segments : int;      (** target cluster size *)
  model : Cost.Cost_model.t;
  decorrelate : bool;  (** pull correlated subqueries into joins *)
  prune_columns : bool; (** narrow join inputs to the needed columns *)
  verify : bool;
      (** run the {!Verify} static analyzers (plan, Memo, DXL round trip)
          on every optimization result *)
  sanitize : bool;
      (** record a scheduler/Memo trace during optimization and run the
          {!Sanitize} concurrency analyses on it *)
  fuzz_seed : int option;
      (** permute the costing schedule deterministically (schedule fuzzer);
          meaningful together with [sanitize] or divergence checking *)
  obs : bool;
      (** collect the {!Obs} observability report (per-rule profiles, Memo
          growth, scheduler utilization, cost-model invocations, spans);
          lands in {!Optimizer.report.obs} *)
  prov : bool;
      (** record plan provenance: per-gexpr rule origins in the Memo and the
          per-node lineage/losing-alternative annotation on the chosen plan
          (lib/prov); lands in {!Optimizer.report.prov} *)
  rule_checks : bool;
      (** debug mode: checksum the Memo around every rule application and
          raise {!Search.Engine.Rule_contract_violation} if a rule's [apply]
          mutated it (the lib/xform/rule.mli contract) *)
  strata : (string * int) list option;
      (** stage-ordered rule scheduling: rule name -> stratum (the
          topological order of the rule-interaction graph's SCCs, computed
          by lib/interact and carried here as plain data). [None] schedules
          by promise alone. Plan-identical either way. *)
  interning : bool;
      (** hash-cons Memo operator payloads so duplicate detection compares
          dense ids instead of deep structures *)
  stats_memo : bool;
      (** memoize per-group row counts, row widths and redistribute skew on
          the costing path *)
  rule_prefilter : bool;
      (** skip rule applications whose root-shape bitmap rules the group
          expression out *)
  winner_reuse : bool;
      (** skip child Opt spawns on completed contexts and reuse operator
          base costs across contexts differing only in required properties *)
  trace_id : string option;
      (** the originating service request's trace id (lib/sre,
          ["s<sid>-r<rid>"]) when the optimization runs inside
          [Orca_server]: stamped on the root lib/obs span and on
          flight-recorder dump traceflags, so observability artifacts are
          attributable to the request that caused them. Inert for the
          search itself — plans are byte-identical with or without it. *)
}

val default : t

val with_segments : t -> int -> t
(** Set the cluster size on both the config and its cost model. *)

val with_workers : t -> int -> t
val with_stages : t -> Xform.Ruleset.stage list -> t

val without_rules : t -> string list -> t
(** Deactivate rules by name in every stage (the ablation benches). *)

val with_verify : t -> t
(** Enable the post-optimization static analyzers; their findings land in
    {!Optimizer.report.diagnostics}. *)

val with_sanitize : t -> t
(** Enable the concurrency sanitizer; its findings land in
    {!Optimizer.report.diagnostics} alongside the static analyzers'. *)

val with_obs : t -> t
(** Enable the observability subsystem: per-rule/per-stage profiling and span
    tracing. Off by default — with it off, the instrumentation on the hot
    paths is a branch, so production timings are unaffected. *)

val with_prov : t -> t
(** Enable provenance collection and plan annotation. Off by default: with it
    off, no origin records are allocated and no annotation is built, so the
    optimization hot path is unaffected (gated by the opt-speed benchmark). *)

val with_rule_checks : t -> t
(** Enable the engine's debug-mode enforcement of the "apply must not mutate
    the Memo" rule contract. Off by default — with it off the check is one
    branch per rule application. *)

val with_strata : t -> (string * int) list -> t
(** Schedule rules by interaction-graph stratum (ascending), promise
    breaking ties — the stratification computed by lib/interact. Byte-
    identical plans to the default promise order (the `interact --suite`
    check); the substrate for budget-aware scheduling on big join queries. *)

val with_fuzz_seed : t -> int -> t
(** Drive the optimization scheduler's dequeue order from a seeded PRNG. *)

val without_decorrelation : t -> t
(** Correlated subqueries become unsupported, as in optimizers lacking the
    feature. *)

val without_column_pruning : t -> t

val with_trace_id : t -> string -> t
(** Attribute this optimization to a service request (plan-identical
    either way; `orca_cli diff --off-b sre` A/Bs it). *)

val without_trace_id : t -> t

(** {2 Hot-path speedups}

    All four are identity-preserving — the chosen plan and its cost are
    byte-identical with them on or off (test/test_perf_identity.ml) — and on
    by default. The switches exist for A/B identity testing and the
    opt-speed benchmark's caches-off baseline. *)

val with_interning : t -> bool -> t
val with_stats_memo : t -> bool -> t
val with_rule_prefilter : t -> bool -> t
val with_winner_reuse : t -> bool -> t

val without_speedups : t -> t
(** All four speedups off: the structural, uncached optimization path. *)
