(* SQL lexer: identifiers, numbers, strings, symbols, line comments. *)

type t = { input : string; mutable pos : int; mutable line : int }

let create input = { input; pos = 0; line = 1 }

let error t fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Gpos.Gpos_error.Error
           ( Gpos.Gpos_error.Parse_error,
             Printf.sprintf "line %d: %s" t.line msg )))
    fmt

let peek t = if t.pos < String.length t.input then Some t.input.[t.pos] else None

let peek2 t =
  if t.pos + 1 < String.length t.input then Some t.input.[t.pos + 1] else None

let advance t =
  (match peek t with Some '\n' -> t.line <- t.line + 1 | _ -> ());
  t.pos <- t.pos + 1

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws_and_comments t =
  match peek t with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance t;
      skip_ws_and_comments t
  | Some '-' when peek2 t = Some '-' ->
      while peek t <> None && peek t <> Some '\n' do
        advance t
      done;
      skip_ws_and_comments t
  | _ -> ()

let read_while t pred =
  let start = t.pos in
  while (match peek t with Some c -> pred c | None -> false) do
    advance t
  done;
  String.sub t.input start (t.pos - start)

let next (t : t) : Token.t =
  skip_ws_and_comments t;
  match peek t with
  | None -> Token.EOF
  | Some c when is_ident_start c ->
      let word = read_while t is_ident_char in
      let upper = String.uppercase_ascii word in
      if Token.is_upper_keyword upper then Token.KEYWORD upper
      else Token.IDENT (String.lowercase_ascii word)
  | Some c when is_digit c ->
      let digits = read_while t (fun c -> is_digit c) in
      if peek t = Some '.' && (match peek2 t with Some d -> is_digit d | None -> false)
      then begin
        advance t;
        let frac = read_while t is_digit in
        Token.FLOAT (float_of_string (digits ^ "." ^ frac))
      end
      else (
        match int_of_string_opt digits with
        | Some n -> Token.INT n
        | None -> error t "integer literal %s out of range" digits)
  | Some '\'' ->
      advance t;
      let buf = Buffer.create 16 in
      let rec go () =
        match peek t with
        | None -> error t "unterminated string literal"
        | Some '\'' when peek2 t = Some '\'' ->
            Buffer.add_char buf '\'';
            advance t;
            advance t;
            go ()
        | Some '\'' -> advance t
        | Some c ->
            Buffer.add_char buf c;
            advance t;
            go ()
      in
      go ();
      Token.STRING (Buffer.contents buf)
  | Some c -> (
      let two =
        if t.pos + 1 < String.length t.input then
          Some (String.sub t.input t.pos 2)
        else None
      in
      match two with
      | Some (("<=" | ">=" | "<>" | "!=") as op) ->
          advance t;
          advance t;
          Token.SYMBOL (if op = "!=" then "<>" else op)
      | _ -> (
          match c with
          | '(' | ')' | ',' | '.' | '*' | '+' | '-' | '/' | '%' | '=' | '<'
          | '>' | ';' ->
              advance t;
              Token.SYMBOL (String.make 1 c)
          | c -> error t "unexpected character %C" c))

(* Tokenize a full statement. *)
let tokenize (input : string) : Token.t list =
  let t = create input in
  let rec go acc =
    match next t with
    | Token.EOF -> List.rev (Token.EOF :: acc)
    | tok -> go (tok :: acc)
  in
  go []
