(* Query normalization for the parameterized plan cache: lift every literal
   out of the token stream, render the remaining shape as canonical text and
   fingerprint that text with 64-bit FNV-1a. Two queries that differ only in
   constants (or case, or whitespace, or comments) share a fingerprint; their
   constants become the parameter vector that selects a binding variant
   inside the cache entry. This is the one place a request's shape is
   decided: the plan cache, the flight recorder's ring entries and AMPERe
   dump names all use its fingerprint. *)

open Ir

type t = {
  text : string; (* canonical shape: literals replaced by $1, $2, ... *)
  params : Datum.t list; (* lifted constants, in occurrence order *)
  fingerprint : string;  (* FNV-1a digest of [text] *)
}

(* 64-bit FNV-1a, as 16 lower-case hex digits. The state is a local
   [ref] no closure captures, so the compiler keeps it unboxed: the loop
   allocates nothing. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h

(* The tokens lifted here are exactly the ones the parser numbers as
   parameter slots ([Token.param] decides both), in the same order. *)
let normalize raw =
  let toks = Sqlfront.Lexer.tokenize raw in
  let buf = Buffer.create (String.length raw) in
  let add piece =
    if Buffer.length buf > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf piece
  in
  let params = ref [] in
  let nparams = ref 0 in
  List.iter
    (fun (tok : Sqlfront.Token.t) ->
      match Sqlfront.Token.param tok with
      | Some d ->
          incr nparams;
          params := d :: !params;
          add ("$" ^ string_of_int !nparams)
      | None -> (
          match tok with
          | IDENT s (* already lowercased by the lexer *) | KEYWORD s | SYMBOL s
            ->
              add s
          | INT _ | FLOAT _ | STRING _ | EOF -> ()))
    toks;
  let text = Buffer.contents buf in
  { text; params = List.rev !params; fingerprint = fnv1a text }
