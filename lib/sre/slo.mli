(** Service-level objectives for the resident optimizer: rolling-window
    latency and availability objectives with error-budget burn rates.

    The window is a ring of per-interval accumulators (latency buckets on
    the {!Telemetry.Metrics} histogram geometry plus request/error/good
    counters); [report] merges the live intervals with
    {!Telemetry.Metrics.merge} and walks the merged histogram for
    quantiles, so a 300 s window at 10 s granularity forgets a traffic
    burst within one interval of it aging out. Interval rotation is driven
    by [Gpos.Clock], so reports are deterministic under [Clock.with_fake].

    Burn rate is the standard SRE ratio: (observed bad fraction over the
    window) / (budgeted bad fraction). 1.0 means the window consumes its
    error budget exactly as fast as allowed; above 1.0 the objective is
    being violated. *)

type objectives = {
  slo_window_s : float;       (** rolling window covered by a report *)
  slo_intervals : int;        (** ring granularity (window / intervals) *)
  slo_latency_ms : float;     (** a request this fast (or faster) is good *)
  slo_latency_target : float; (** required good fraction, e.g. 0.99 *)
  slo_availability_target : float; (** required non-error fraction *)
}

val default_objectives : objectives
(** 300 s window over 30 intervals; latency 100 ms at 99%;
    availability 99.9%. *)

type t

val create : ?objectives:objectives -> unit -> t

val objectives : t -> objectives

val observe : t -> ms:float -> ok:bool -> unit
(** Record one served request into the current interval (rotating the ring
    forward first if the clock has moved past it). Thread-safe. *)

val reset : t -> unit
(** Zero the whole window and restart it at the current clock reading —
    the operator action after a deploy or warm-up whose requests should
    not count against the objectives (bench serve resets between its
    cold pass and the measured mix). *)

type report = {
  r_objectives : objectives;
  r_requests : int;         (** requests inside the window *)
  r_errors : int;
  r_good : int;             (** requests at or under the latency objective *)
  r_availability : float;   (** 1.0 on an empty window *)
  r_attainment : float;     (** good fraction; 1.0 on an empty window *)
  r_p50_ms : float;
  r_p95_ms : float;
  r_p99_ms : float;
  r_latency_burn : float;   (** (1-attainment) / (1-latency_target) *)
  r_availability_burn : float;
  r_latency_ok : bool;      (** attainment >= target *)
  r_availability_ok : bool;
}

val report : t -> report

val healthy : report -> bool
(** Both objectives currently met. *)

val json : report -> Gpos.Json.t
(** JSON object: objectives, window counters, quantiles, burn rates and
    per-objective verdicts (the [!slo] endpoint body and the
    [BENCH_serve.json] [slo] block). *)

val to_json : report -> string
(** {!json}, rendered on one line. *)
