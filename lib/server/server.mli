(** Orca as a resident service: a long-lived optimizer process fielding
    newline-delimited requests over stdin/stdout or a Unix-domain socket,
    with a parameterized {!Plan_cache} in front of optimization.

    Each request takes an immutable {!Catalog.Snapshot} of the server's
    {!Catalog.Source}; the cache is consulted under the snapshot's
    (catalog, stats) versions, so version bumps and concurrent sessions
    interleave safely without locks around optimization. All responses are
    single JSON lines on the protocol stream; progress goes to [log].

    Observability (lib/sre): sessions carry ids, every request gets a trace
    id ["s<sid>-r<rid>"] echoed in its reply and threaded into
    [Orca_config.trace_id] on cache misses (which run through
    {!Orca.Flight}, so an armed flight recorder captures slow/failed
    server requests); a structured {!Sre.Events} log and a rolling-window
    {!Sre.Slo} monitor back the [!metrics]/[!health]/[!slo] endpoints. *)

module Normalize = Normalize
module Plan_cache = Plan_cache

type t

val create :
  ?config:Orca.Orca_config.t ->
  ?capacity:int ->
  ?max_variants:int ->
  ?events:Sre.Events.t ->
  Catalog.Source.t ->
  t
(** [config] defaults to {!Orca.Orca_config.default}; [capacity] and
    [max_variants] bound the plan cache (see {!Plan_cache.create});
    [events] defaults to a fresh enabled 1024-entry log (pass
    [Sre.Events.create ~enabled:false ()] to run dark). The SLO monitor
    runs {!Sre.Slo.default_objectives}. *)

val of_provider :
  ?config:Orca.Orca_config.t ->
  ?capacity:int ->
  ?max_variants:int ->
  ?events:Sre.Events.t ->
  Catalog.Provider.t ->
  t
(** [create] over a fresh source wrapping the provider. *)

val source : t -> Catalog.Source.t
val plan_cache : t -> Plan_cache.t

val events : t -> Sre.Events.t
(** The server's structured event log (ring + optional sink). *)

val slo : t -> Sre.Slo.t
(** The server's rolling-window SLO monitor: its one request latency
    histogram. *)

val uptime_s : t -> float

(** {1 Sessions and tracing} *)

type session
(** One protocol session's identity and accounting: its sid, its request-id
    stream and its request and error counts, which sum to the server's.
    [serve_channels] opens and closes its own; API callers may open one
    explicitly to attribute their requests, or pass none and share the
    sid-0 pseudo-session. *)

val session_id : session -> int

val open_session : t -> session
(** Register a fresh session (sid 1, 2, ...); emits [session_open]. *)

val close_session : t -> session -> unit
(** Mark the session closed and emit [session_close] with its counts.
    Idempotent. *)

type cache_result = Hit | Rebound | Missed

val cache_result_to_string : cache_result -> string
(** ["hit"], ["rebind"], ["miss"] — the protocol's [cache] field. *)

type reply = {
  r_plan : Ir.Expr.plan;
  r_dxl : string Lazy.t;     (** DXL serialization, forced on demand *)
  r_trace : string;          (** this request's trace id, e.g. ["s2-r7"] *)
  r_fingerprint : string;
  r_result : cache_result;
  r_ms : float;              (** end-to-end serve latency *)
  r_catalog_version : int;
  r_stats_version : int;
}

val json_of_reply : include_plan:bool -> reply -> string
(** The protocol's single-line rendering of a reply (exposed for tests),
    its plan field escaped from [r_dxl]. Sessions write the same bytes
    without the DXL string: an exact hit copies its variant's
    {!Plan_cache.plan_json}, other replies print the plan JSON-escaped. *)

val optimize_sql : ?session:session -> t -> string -> (reply, string) result
(** Field one SQL request through the plan cache; misses bind and optimize
    against the snapshot taken before the cache probe and insert the result.
    Errors (parse/bind/unsupported, and any other exception the request
    raises, as ["Internal: ..."]) are returned, counted and never cached.
    The request is attributed to [session] (default: the sid-0 API
    pseudo-session): trace id, event-log entries, SLO observation. *)

val invalidate : t -> [ `Catalog | `Stats ] -> int * (int * int)
(** Bump the source version and drop every stale cache entry. Returns
    [(dropped, (catalog_version, stats_version))]. *)

type stats = {
  s_requests : int;  (** lifetime, summed over [s_per_session] *)
  s_errors : int;
  s_cache : Plan_cache.stats;
  s_uptime_s : float;
  s_sessions_open : int;
  s_sessions_total : int;  (** including the sid-0 API pseudo-session *)
  s_per_session : (int * int * int) list;
      (** (sid, requests, errors), sorted by sid *)
  s_p50_ms : float;
      (** request latency quantiles over the SLO window ({!Sre.Slo.report}) *)
  s_p95_ms : float;
  s_p99_ms : float;
}

val stats : t -> stats

val health : t -> Sre.Health.input * Sre.Health.verdict
(** Gather the server's vital signs (including the current SLO report) and
    evaluate readiness — the [!health] endpoint's body. *)

val serve_channels :
  ?log:(string -> unit) ->
  ?include_plan:bool ->
  t ->
  in_channel ->
  out_channel ->
  unit
(** One protocol session: a plain line is SQL to optimize; control lines
    are [!ping], [!plan on|off], [!invalidate catalog|stats], [!stats],
    [!metrics], [!health], [!slo] and [!quit]. One JSON response line per
    request, flushed immediately; the session ends on [!quit] or EOF.
    [include_plan] sets the session's initial [!plan] state. *)

val serve_unix :
  ?log:(string -> unit) ->
  ?include_plan:bool ->
  ?max_sessions:int ->
  t ->
  path:string ->
  unit ->
  unit
(** Listen on a Unix-domain socket, one thread per connection, each running
    {!serve_channels}. [max_sessions] bounds accepted connections (after
    which the listener drains its sessions and returns — used by tests);
    without it the listener runs forever. Removes [path] on exit. *)
