(** Wall-clock helpers (GPOS timer abstraction, paper §3). *)

val now : unit -> float
(** Seconds since the epoch, as a float. *)

val ms_since : float -> float
(** Milliseconds elapsed since a [now ()] reading. *)

val with_fake : ?start:float -> ?step:float -> (unit -> 'a) -> 'a
(** Run a thunk under a deterministic clock: [now] starts at [start]
    (default 0) and advances [step] seconds (default 0.001) per call, so
    durations are reproducible in tests. Restores the real clock on exit.
    Single-domain use only. *)
