(* Flight recorder: a fixed-size {!Gpos.Ring} of per-query summaries plus
   the slow-query trigger configuration (threshold + AMPERe dump dir).
   The trigger logic itself lives in lib/core (Flight). *)

type status = Ok | Slow | Failed of string

val status_string : status -> string

type entry = {
  e_seq : int;                     (** 1-based, monotonically increasing *)
  e_ts : float;                    (** [Gpos.Clock.now] at record time *)
  e_label : string;
  e_fingerprint : string;          (** the query's shape key, from the
                                       caller (a server request's
                                       [Normalize] fingerprint) *)
  e_ms : float;
  e_groups : int;
  e_gexprs : int;
  e_cost : float;
  e_phases : (string * float) list;  (** top phase times, largest first *)
  e_status : status;
  e_dump : string option;          (** path of the AMPERe dump, if any *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 128. *)

val global : t
(** The process-wide recorder the optimizer records into. *)

val capacity : t -> int

val total : ?recorder:t -> unit -> int
(** Entries ever recorded (>= length of [entries]). *)

val claim : ?recorder:t -> unit -> int
(** Reserve the next entry number before the entry exists, for a caller
    that must name an artifact after it (the flight dump); pass it to
    {!record} as [seq]. *)

val record :
  ?recorder:t ->
  ?seq:int ->
  label:string ->
  fingerprint:string ->
  ms:float ->
  groups:int ->
  gexprs:int ->
  cost:float ->
  phases:(string * float) list ->
  status:status ->
  ?dump:string ->
  unit ->
  entry
(** Record one entry under [seq] (from {!claim}) or a freshly claimed
    number. *)

val entries : ?recorder:t -> unit -> entry list
(** Retained entries, oldest first. *)

val clear : ?recorder:t -> unit -> unit

val top_phases : ?n:int -> (string * float) list -> (string * float) list
(** The [n] (default 3) largest phase timings, largest first. *)

val configure : ?slow_ms:float option -> ?dump_dir:string option -> unit -> unit
(** Set the slow-query threshold (ms; [None] disables, the default) and
    the directory AMPERe dumps of slow/failed queries are written to
    ([None] disables dump emission, the default). *)

val slow_ms : unit -> float option
val dump_dir : unit -> string option
