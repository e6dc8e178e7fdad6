(** Structured event log for the resident service: a leveled JSON-lines
    event stream held in a lock-free bounded {!Gpos.Ring}, with an optional sink
    channel (file or stderr — never the protocol stream, which must stay
    single-line JSON).

    Event kinds emitted by lib/server: [session_open]/[session_close],
    [request_start] (trace + fingerprint), [request_finish] (trace + cache
    outcome + latency), [request_error], [invalidate], [evict].

    Cost model: with the log disabled, [emit] is one load and a return —
    call sites guard field construction behind {!on} so a disabled log
    allocates nothing. Enabled, an emission is one atomic
    fetch-and-add plus one slot compare-and-set (the sink, when set, adds a
    mutex-guarded channel write). Timestamps come from [Gpos.Clock], so
    the stream is deterministic under [Clock.with_fake]. *)

type level = Debug | Info | Warn | Error

val level_string : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

type field = S of string | I of int | F of float | B of bool

type entry = {
  ev_seq : int;    (** 1-based, monotonic across the log's lifetime *)
  ev_ts : float;   (** [Gpos.Clock.now] at emission *)
  ev_level : level;
  ev_kind : string;
  ev_trace : string option;  (** originating trace id, when any *)
  ev_fields : (string * field) list;
}

type t

val create : ?capacity:int -> ?level:level -> ?enabled:bool -> unit -> t
(** [capacity] bounds the ring (default 1024; older entries are
    overwritten). [level] is the minimum recorded severity (default
    [Debug]: record everything). [enabled:false] builds a log whose [emit]
    is a no-op — the zero-cost-when-disabled configuration. *)

val on : t -> level -> bool
(** Would an event at this level be recorded? Call sites use this to skip
    building the field list entirely when the answer is no. *)

val emit :
  t -> ?level:level -> ?trace:string -> kind:string ->
  (string * field) list -> unit
(** Record one event (default level [Info]). Lock-free on the ring path;
    drops silently when disabled or below the level threshold. *)

val total : t -> int
(** Events ever recorded (>= retained). *)

val entries : t -> entry list
(** Retained entries, oldest first. Cold path: intended for endpoints,
    tests and artifact dumps after the writers have quiesced; a read
    racing a wrap-around writer may skip in-flight slots but never
    produces a torn entry. *)

val capacity : t -> int

val set_sink : t -> out_channel option -> unit
(** Mirror every subsequent emission to the channel as one JSON line,
    flushed (mutex-guarded). The channel must not be the protocol stream.
    [None] detaches; the caller owns closing the channel. *)

val entry_to_json : entry -> string
(** One JSON object, no trailing newline:
    [{"seq":..,"ts":..,"level":..,"event":..,"trace":..,<fields>}]. *)

val to_json_lines : t -> string
(** The retained ring as newline-terminated JSON lines (the nightly soak
    artifact shape). *)
