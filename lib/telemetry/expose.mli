(* Exposition: Prometheus text and JSON snapshots, and a Prometheus
   linter. Two JSON snapshots are compared by `bench/gate.exe --metrics`. *)

val to_prometheus : Metrics.snapshot -> string
(** Prometheus text format: # HELP/# TYPE per family, cumulative sparse
    buckets plus le="+Inf", _sum and _count for histograms. *)

val to_json : ?flight:Recorder.entry list -> Metrics.snapshot -> string
(** JSON snapshot: ts, one object per series (histograms carry count,
    sum, p50/p95/p99 and non-cumulative sparse buckets), plus the flight
    recorder entries. Deterministic under [Gpos.Clock.with_fake]. *)

val lint_prometheus : string -> string list
(** Structural validation of a Prometheus text exposition. Checks metric
    name syntax, TYPE declarations preceding samples, non-negative
    counter/histogram values, duplicate series, bucket cumulativeness,
    the +Inf bucket and its agreement with _count. [] means clean. *)
