(** Optimizer configuration (paper §3: "all components can be replaced
    individually and configured separately"): rule activation, optimization
    stages, parallelism, cost-model parameters, preprocessing toggles. *)

type t = {
  stages : Xform.Ruleset.stage list;
      (** run in order; a stage's cost threshold stops the staging early *)
  workers : int;       (** optimization worker domains (§4.2) *)
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
      (** schedule fuzzer: run costing as jobs on the optimization scheduler
          (never the single-worker direct walk) and let this seed permute
          their dequeue order deterministically. Plans must not change; the
          sanitizer compares fuzzed runs with a plain one. *)
  obs : bool;
      (** collect the {!Obs} observability report (per-rule profiles, Memo
          growth, scheduler utilization, cost-model invocations, spans);
          lands in {!Optimizer.report.obs} *)
  prov : bool;
      (** record plan provenance: per-gexpr rule origins in the Memo and the
          per-node lineage/losing-alternative annotation on the chosen plan
          (lib/prov); lands in {!Optimizer.report.prov} *)
  speedups : bool;
      (** the hot-path caches (see {!without_speedups}); on by default *)
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
(** Set the cluster size the cost model prices plans for. *)

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

val with_fuzz_seed : t -> int -> t
(** Cost on the optimization scheduler with its dequeue order drawn from a
    seeded PRNG (see [fuzz_seed]). *)

val without_decorrelation : t -> t
(** Correlated subqueries become unsupported, as in optimizers lacking the
    feature. *)

val without_column_pruning : t -> t

val with_trace_id : t -> string -> t
(** Attribute this optimization to a service request (plan-identical
    either way; the server tests check it). *)

(** {2 Hot-path speedups}

    Four caches, switched together by [speedups]:
    - Memo operator interning: hash-cons operator payloads so duplicate
      detection compares dense ids instead of deep structures;
    - the stats memo: per-group row counts, row widths and redistribute
      skew on the costing path;
    - the rule prefilter: skip rule applications whose root-shape bitmap
      rules the group expression out;
    - winner reuse: skip child Opt spawns whose base cost is cached, reuse
      operator base costs across contexts that differ only in required
      properties, and cost by direct recursion at one worker.

    They are not components to configure but identity-preserving speedups:
    the chosen plan and its cost are byte-identical with them on or off
    (test/test_perf_identity.ml). *)

val without_speedups : t -> t
(** All four caches off: the structural, uncached optimization path that
    identity tests, [orca_cli diff --off-a/--off-b] and the opt-speed
    benchmark's baseline compare against. *)
