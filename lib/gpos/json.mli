(** The one JSON codec shared by every writer and reader in the tree
    (service replies, event log, telemetry snapshots, span traces, analyzer
    reports, committed baselines and the gate that reads them).

    Numbers carry the literal text the writer chose ([Num "0.457"]), so
    each output keeps its exact digits; a reader converts only the fields
    it asks for ({!to_float}). *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** the literal, printed verbatim *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in output order *)

(** {1 Writing} *)

val escape : Buffer.t -> string -> unit
(** Append [s] escaped for the inside of a JSON string (no quotes): quote
    and backslash, [\n] [\r] [\t] by name, other bytes below 0x20 as
    [\u00XX]. Every other byte, non-ASCII included, is copied through in
    runs, so a large mostly-plain string (a DXL plan) costs one blit per
    escaped byte plus one per run. *)

val escape_sub : Buffer.t -> string -> int -> int -> unit
(** [escape_sub buf s pos len] appends [String.sub s pos len], escaped as by
    {!escape}, without building the substring. *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string. *)

val int : int -> t

val fixed : int -> float -> string
(** [fixed d v] is [v] printed with [%.<d>f]. NaN and the infinities print
    as [0], so the output stays valid JSON. *)

val general : int -> float -> string
(** [general d v] is [v] printed with [%.<d>g], NaN and the infinities as
    [0]. *)

val add : Buffer.t -> t -> unit
(** Append the compact rendering: no whitespace at all. *)

val to_string : t -> string
(** The compact rendering. *)

val pretty : t -> string
(** Two-space indented, newline-terminated; arrays holding only scalars
    stay on one line ([[1, 2]]); [[]] and [{}] stay on one line. The
    shape of the committed [BENCH_*.json] baselines. *)

(** {1 Reading} *)

val of_string : string -> (t, string) result
(** Strict RFC 8259 parse of one value, surrounded by optional whitespace.
    Rejects bad literals, truncated input, trailing bytes, raw control
    bytes inside strings, unknown escapes, malformed numbers and unpaired
    surrogates. [\uXXXX] escapes (and surrogate pairs) decode to UTF-8.
    The error names the byte offset. *)

val member : string -> t -> t option
(** The first field of that name, when the value is an object. *)

val to_float : t -> float option
(** The number a [Num] literal denotes; [None] for any other value. *)
