(** The flight recorder's slow/failed-query trigger (paper §6.1 extended
    to latency outliers): a monitored {!Optimizer.optimize} that records
    a summary of every query into [Telemetry.Recorder.global] and, when a
    query exceeds the threshold set by [Telemetry.Recorder.configure] or
    raises, re-runs it once with [with_obs]+[with_prov] and emits an
    AMPERe dump (into the configured dump directory) embedding the full
    observability trace. The caller passes the query's fingerprint (a
    server request's [Server.Normalize] fingerprint): the ring entry
    records it and the dump is named after it, so the fingerprint in a
    reply finds the request's dump. *)

val optimize :
  ?config:Orca_config.t ->
  ?label:string ->
  fingerprint:string ->
  make_accessor:(unit -> Catalog.Accessor.t) ->
  Dxl.Dxl_query.t ->
  Optimizer.report
(** Same result and exceptions as {!Optimizer.optimize}; the re-run for a
    slow or failed query needs fresh metadata pins, hence the accessor
    factory. [Unsupported_query] counts as a clean reject (no dump). A
    failed optimization is recorded with the time the failed attempt took. *)

val dump_path : dir:string -> fingerprint:string -> seq:int -> string
(** Where the dump of ring entry [seq], for a query of the given
    fingerprint, lands. *)
