(* Query normalization for the parameterized plan cache: lift every literal
   out of the token stream, render the remaining shape as canonical text and
   fingerprint it with the telemetry FNV-1a digest. Two queries that differ
   only in constants (or case, or whitespace, or comments) share a
   fingerprint; their constants become the parameter vector that selects a
   binding variant inside the cache entry. *)

open Ir

type t = {
  raw : string;  (* the request text, verbatim *)
  text : string; (* canonical shape: literals replaced by $1, $2, ... *)
  params : Datum.t list; (* lifted constants, in occurrence order *)
  fingerprint : string;  (* FNV-1a digest of [text] *)
}

(* The literal tokens lifted here are exactly the ones the parser numbers
   as parameter slots, in the same order. *)
let normalize raw =
  let toks = Sqlfront.Lexer.tokenize raw in
  let buf = Buffer.create (String.length raw) in
  let params = ref [] in
  let nparams = ref 0 in
  let param d =
    incr nparams;
    params := d :: !params;
    Printf.sprintf "$%d" !nparams
  in
  List.iter
    (fun (tok : Sqlfront.Token.t) ->
      let piece =
        match tok with
        | INT n -> param (Datum.Int n)
        | FLOAT f -> param (Datum.Float f)
        | STRING s -> param (Datum.String s)
        | IDENT s -> s (* already lowercased by the lexer *)
        | KEYWORD k -> k
        | SYMBOL s -> s
        | EOF -> ""
      in
      if piece <> "" then begin
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf piece
      end)
    toks;
  let text = Buffer.contents buf in
  {
    raw;
    text;
    params = List.rev !params;
    fingerprint = Telemetry.Metrics.fingerprint text;
  }

(* Canonical rendering of a parameter vector: the binding-variant key inside
   a cache entry. [Datum.serialize] is tagged and exactly round-trippable,
   so distinct vectors cannot collide. *)
let params_key params =
  String.concat "\x00" (List.map Datum.serialize params)
