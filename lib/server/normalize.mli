(** Query normalization for the parameterized plan cache: lifts literals out
    of the token stream, renders the remaining shape canonically and
    fingerprints it (telemetry FNV-1a). Queries differing only in constants,
    case, whitespace or comments share a fingerprint; the lifted constants
    form the parameter vector. *)

open Ir

type t = {
  raw : string;          (** the request text, verbatim *)
  text : string;         (** canonical shape: literals replaced by [$1], [$2], ... *)
  params : Datum.t list; (** lifted constants, in occurrence order *)
  fingerprint : string;  (** FNV-1a digest of [text] *)
}

val normalize : string -> t
(** Raises [Gpos.Gpos_error.Error (Parse_error, _)] on unlexable input. *)

val params_key : Datum.t list -> string
(** Canonical, collision-free rendering of a parameter vector — the
    binding-variant key inside a cache entry. *)
