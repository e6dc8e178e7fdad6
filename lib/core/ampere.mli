(** AMPERe — Automatic capture of Minimal Portable Executable Repros
    (paper §6.1).

    A dump packages everything needed to reproduce an optimization session
    away from the system that produced it: the input query, trace flags, the
    metadata working set acquired during optimization and, for failures, a
    stack trace. Replaying builds a file-based MD provider from the embedded
    metadata and runs an identical session (Fig. 10); dumps with an embedded
    expected plan double as regression test cases. *)

type dump = {
  stacktrace : string option;
  traceflags : (string * string) list;
  metadata : Catalog.Metadata.obj list;
  query : Dxl.Dxl_query.t;
  expected_plan : Ir.Expr.plan option;
  profile : string option;
      (** rendered {!Obs.Report} summary of the captured session *)
  trace_json : string option;
      (** Chrome trace_event JSON of the session's spans (partial trace up
          to the exception on failure captures) *)
  prov : Dxl.Xml.element option;
      (** the [dxl:Provenance] section: one [dxl:NodeProv] per plan node in
          preorder with its rule lineage (or enforcer reason), cost,
          estimated rows and losing-alternative count. Rendered from
          {!Prov.Provenance.t} by {!embed_report}; a loaded dump keeps the
          element it read, so it round-trips unchanged. *)
}

val capture :
  ?stacktrace:string option ->
  ?traceflags:(string * string) list ->
  ?expected_plan:Ir.Expr.plan ->
  Catalog.Accessor.t ->
  Dxl.Dxl_query.t ->
  dump
(** Capture a dump from a completed (or attempted) optimization session; the
    metadata is exactly the set of objects the accessor touched. The
    introspection sections start empty: {!embed_report} fills them. *)

val embed_report : dump -> Optimizer.report -> dump
(** Attach the report's observability summary, trace and provenance
    annotation (whichever the report has) so the dump carries the
    introspection record of the session it reproduces. *)

val capture_exn :
  Catalog.Accessor.t -> Dxl.Dxl_query.t -> exn -> string -> dump
(** Capture for a failed optimization, embedding the exception and trace. *)

val optimize_with_capture :
  ?config:Orca_config.t ->
  Catalog.Accessor.t ->
  Dxl.Dxl_query.t ->
  (Optimizer.report, dump) Stdlib.result
(** The paper's automatic failure capture (§6.1 "a dump is automatically
    generated when an unexpected error takes place"): run the optimizer; an
    escaping exception becomes an [Error dump] carrying the query, the
    metadata working set and the stack trace instead of a crash. With
    {!Orca_config.t.obs} set, this call owns the span session: a success
    report carries the session's spans, and a failure dump embeds the
    partial trace of the spans completed before the exception. *)

val to_string : dump -> string
(** Serialize to a DXL document (the Listing 2 shape). *)

val of_string : string -> dump
val save : dump -> string -> unit
val load : string -> dump

val replay : ?config:Orca_config.t -> dump -> Optimizer.report
(** Replay the dump with no backend attached: the embedded metadata serves as
    the MD provider (paper Fig. 10). *)

type verdict = Replay_match | Replay_plan_diff of string | Replay_failed of string

val verify : ?config:Orca_config.t -> dump -> verdict
(** Use a dump as a regression test: replay and compare the produced plan
    against the embedded expected plan. *)
