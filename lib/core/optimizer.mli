(** The Orca optimizer facade (paper §3 Fig. 2): DXL query in, plan out.

    Workflow (§4.1): preprocessing (decorrelation, normalization) → Memo
    copy-in → exploration → statistics derivation → implementation →
    optimization (property enforcement + costing) → plan extraction.
    Optimization runs in one or more stages, each a complete workflow over a
    rule subset with an optional timeout and cost threshold. *)

open Ir

type report = {
  plan : Expr.plan;        (** the chosen physical plan *)
  opt_time_ms : float;
  groups : int;            (** Memo groups created *)
  gexprs : int;            (** group expressions created *)
  contexts : int;          (** optimization contexts created *)
  jobs_created : int;      (** scheduler jobs created (§4.2) *)
  jobs_run : int;          (** job executions, including resumptions *)
  goal_hits : int;         (** jobs absorbed by goal queues *)
  xforms : int;            (** transformation-rule applications *)
  stage_name : string;     (** the optimization stage that produced the plan *)
  peak_heap_mb : float;
  memo : Memolib.Memo.t;
      (** retained for TAQO sampling and inspection. Contexts hold their
          winners; {!Memolib.Memo.alternatives} rebuilds the other costed
          alternatives on demand through the engine that costed the Memo,
          which the Memo keeps reachable while the report lives. *)
  root_req : Props.req;    (** the root optimization request *)
  decorrelated : int;      (** Apply operators unnested during preprocessing *)
  diagnostics : Verify.Diagnostic.t list;
      (** static-analyzer findings over the result (empty unless
          {!Orca_config.t.verify} is set) *)
  obs : Obs.Report.t option;
      (** unified observability report — per-rule profiles, Memo growth,
          scheduler utilization, cost-model invocations, spans ([None]
          unless {!Orca_config.t.obs} is set). Spans are attached only when
          this call owned the span session; a caller holding an outer
          session (the CLI suite loop, AMPERe capture) drains them itself. *)
  prov : Prov.Provenance.t option;
      (** per-node provenance of the chosen plan — rule lineage, losing
          alternatives, enforcer reasons ([None] unless
          {!Orca_config.t.prov} is set) *)
  phase_ms : (string * float) list;
      (** coarse per-phase wall times (preprocess, stage:<name>,
          prov-annotate) in execution order; always collected, feeding the
          flight recorder and lib/telemetry without lib/obs *)
  md_versions : int * int;
      (** the (catalog_version, stats_version) snapshot the session's
          accessor bound against (see {!Catalog.Snapshot}) — the plan-cache
          key components of [Orca_server] *)
}

exception Unsupported_query of string
(** Raised for queries outside the optimizer's reach (e.g. a correlated
    subquery whose correlation cannot be pulled up, or any correlated
    subquery when decorrelation is disabled). *)

val optimize :
  ?config:Orca_config.t -> Catalog.Accessor.t -> Dxl.Dxl_query.t -> report
(** Optimize a DXL query against the metadata reachable through the
    accessor. Releases the accessor's metadata pins on completion. *)

val optimize_to_dxl :
  ?config:Orca_config.t ->
  Catalog.Accessor.t ->
  Dxl.Dxl_query.t ->
  string * report
(** [optimize] plus DXL plan serialization: the full Fig. 2 round trip. *)

val project_output : Expr.plan -> Colref.t list -> Expr.plan
(** Wrap a plan with a projection delivering exactly the given output columns
    in order (no-op when they already match). *)

val root_req : Dxl.Dxl_query.t -> Props.req
(** The query's root optimization request: required distribution and order. *)
