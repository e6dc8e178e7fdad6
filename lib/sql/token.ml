(* SQL tokens. *)

type t =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KEYWORD of string (* uppercased *)
  | SYMBOL of string  (* punctuation and operators *)
  | EOF

let keyword_set : (string, unit) Hashtbl.t = Hashtbl.create 64

let () =
  List.iter
    (fun k -> Hashtbl.replace keyword_set k ())
    [
      "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "LIMIT";
      "OFFSET"; "AS"; "AND"; "OR"; "NOT"; "IN"; "EXISTS"; "BETWEEN"; "LIKE";
      "IS"; "NULL"; "TRUE"; "FALSE"; "CASE"; "WHEN"; "THEN"; "ELSE"; "END";
      "JOIN"; "INNER"; "LEFT"; "RIGHT"; "FULL"; "OUTER"; "CROSS"; "ON";
      "UNION"; "ALL"; "INTERSECT"; "EXCEPT"; "DISTINCT"; "WITH"; "ASC"; "DESC";
      "COUNT"; "SUM"; "AVG"; "MIN"; "MAX"; "COALESCE"; "CAST"; "DATE"; "VALUES";
      "OVER"; "PARTITION";
    ]

(* [u] must already be upper-cased: the lexer folds each word once. *)
let is_upper_keyword u = Hashtbl.mem keyword_set u
let is_keyword s = is_upper_keyword (String.uppercase_ascii s)

(* The tokens that are query parameters, as the datum each one carries: the
   one choice behind both the parser's slot numbers and the parameter
   vector [Server.Normalize] lifts, so slot k is always the k-th of them. *)
let param = function
  | INT n -> Some (Ir.Datum.Int n)
  | FLOAT f -> Some (Ir.Datum.Float f)
  | STRING s -> Some (Ir.Datum.String s)
  | IDENT _ | KEYWORD _ | SYMBOL _ | EOF -> None

let to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "'%s'" s
  | KEYWORD k -> k
  | SYMBOL s -> s
  | EOF -> "<end of input>"
