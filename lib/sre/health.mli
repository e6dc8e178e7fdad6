(** Readiness evaluation for the resident service: a small set of named
    checks over the server's vital signs, rendered as the single-line JSON
    body of the [!health] endpoint.

    The inputs are plain numbers supplied by lib/server (uptime, session
    counts, error rate, metadata-snapshot age, plan-cache occupancy, the
    current {!Slo} report) so the policy is testable without a server. *)

type input = {
  h_uptime_s : float;
  h_sessions_open : int;
  h_sessions_total : int;
  h_requests : int;
  h_errors : int;
  h_snapshot_age_s : float;  (** seconds since the last catalog/stats bump
                                 (or server start, if never bumped) *)
  h_catalog_version : int;
  h_stats_version : int;
  h_cache_entries : int;
  h_cache_capacity : int;
  h_slo : Slo.report option;
}

type check = { c_name : string; c_ok : bool; c_detail : string }

type verdict = { ready : bool; checks : check list }

val evaluate : input -> verdict
(** Checks, in order: [error-rate] (errors/requests at or under 0.10; an
    idle server passes), [cache-occupancy] (entries/capacity under 0.95 — a
    full cache still serves, but eviction churn is imminent),
    [slo-latency] and [slo-availability] (from the report, when given).
    [ready] is the conjunction. *)

val fields : input -> verdict -> (string * Gpos.Json.t) list
(** The report's JSON fields, in output order; the [!health] reply prefixes
    its envelope to them. *)

val to_json : input -> verdict -> string
(** [{"status":"ready"|"degraded","uptime_s":..,...,"checks":[...]}] —
    one line, no embedded newlines. *)
