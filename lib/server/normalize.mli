(** Query normalization for the parameterized plan cache: lifts literals out
    of the token stream, renders the remaining shape canonically and
    fingerprints that text with 64-bit FNV-1a. Queries differing only in
    constants, case, whitespace or comments share a fingerprint; the lifted
    constants form the parameter vector. The fingerprint is the request's
    one shape key: the plan cache, the reply, the flight recorder's ring
    entry and the name of its AMPERe dump all carry it. *)

open Ir

type t = {
  text : string;         (** canonical shape: literals replaced by [$1], [$2], ... *)
  params : Datum.t list; (** lifted constants, in occurrence order: the
                             {!Sqlfront.Token.param} tokens, so parameter
                             [k] fills the parser's slot [k] *)
  fingerprint : string;  (** 64-bit FNV-1a digest of [text], 16 hex digits *)
}

val fnv1a : string -> string
(** 64-bit FNV-1a of the bytes, as 16 lower-case hex digits. *)

val normalize : string -> t
(** Raises [Gpos.Gpos_error.Error (Parse_error, _)] on unlexable input. *)
