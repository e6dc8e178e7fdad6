(* The shared JSON codec. The escaper is on the service's hot path (every
   reply that carries a plan escapes ~17 KB of DXL into the reply buffer),
   so it writes straight into the caller's buffer and copies unescaped runs
   with one blit each; nothing here builds an intermediate string. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* -- writing -------------------------------------------------------- *)

let hex = "0123456789abcdef"

let escape_sub buf s pos len =
  let start = ref pos in
  for i = pos to pos + len - 1 do
    let c = s.[i] in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '"' | '\\' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]);
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (pos + len - !start)

let escape buf s = escape_sub buf s 0 (String.length s)

let add_string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

let int i = Num (string_of_int i)

let finite v = not (Float.is_nan v || Float.abs v = Float.infinity)
let fixed d v = if finite v then Printf.sprintf "%.*f" d v else "0"
let general d v = if finite v then Printf.sprintf "%.*g" d v else "0"

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num s -> Buffer.add_string buf s
  | Str s -> add_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let pretty v =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let scalar = function
    | Arr [] | Obj [] | Null | Bool _ | Num _ | Str _ -> true
    | Arr _ | Obj _ -> false
  in
  let rec go indent v =
    match v with
    | Arr items when not (List.for_all scalar items) ->
        Buffer.add_string buf "[\n";
        let last = List.length items - 1 in
        List.iteri
          (fun i item ->
            pad (indent + 2);
            go (indent + 2) item;
            Buffer.add_string buf (if i = last then "\n" else ",\n"))
          items;
        pad indent;
        Buffer.add_char buf ']'
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ", ";
            add buf item)
          items;
        Buffer.add_char buf ']'
    | Obj (_ :: _ as fields) ->
        Buffer.add_string buf "{\n";
        let last = List.length fields - 1 in
        List.iteri
          (fun i (k, fv) ->
            pad (indent + 2);
            add_string buf k;
            Buffer.add_string buf ": ";
            go (indent + 2) fv;
            Buffer.add_string buf (if i = last then "\n" else ",\n"))
          fields;
        pad indent;
        Buffer.add_char buf '}'
    | v -> add buf v
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* -- reading -------------------------------------------------------- *)

exception Fail of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at byte %d" msg !pos)) in
  let eof () = !pos >= n in
  let peek () = if eof () then fail "unexpected end of input" else s.[!pos] in
  (* consume [c] when it is the next byte *)
  let accept c = (not (eof ())) && s.[!pos] = c && (incr pos; true) in
  let expect c = if not (accept c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec skip_ws () =
    if accept ' ' || accept '\t' || accept '\n' || accept '\r' then skip_ws ()
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digits = String.sub s !pos 4 in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if not (String.for_all is_hex digits) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ digits)
  in
  let codepoint () =
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail "unpaired surrogate"
    else if hi < 0xD800 || hi > 0xDBFF then hi
    else if accept '\\' && accept 'u' then begin
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate"
      else 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else fail "unpaired surrogate"
  in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if eof () then fail "unterminated string";
      let c = s.[!pos] in
      if c < ' ' then fail "control byte in string";
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if eof () then fail "unterminated string";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (codepoint ()))
          | _ ->
              decr pos;
              fail "bad escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digit () = (not (eof ())) && s.[!pos] >= '0' && s.[!pos] <= '9' in
    let digits () =
      if not (digit ()) then fail "expected a digit";
      while digit () do
        incr pos
      done
    in
    ignore (accept '-');
    if not (accept '0') then digits ();
    if accept '.' then digits ();
    if accept 'e' || accept 'E' then begin
      ignore (accept '+' || accept '-');
      digits ()
    end;
    Num (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if accept '}' then Obj [] else members []
    | '[' ->
        incr pos;
        skip_ws ();
        if accept ']' then Arr [] else elements []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  and members acc =
    skip_ws ();
    let k = string_ () in
    skip_ws ();
    expect ':';
    let acc = (k, value ()) :: acc in
    skip_ws ();
    if accept ',' then members acc
    else if accept '}' then Obj (List.rev acc)
    else fail "expected ',' or '}'"
  and elements acc =
    let acc = value () :: acc in
    skip_ws ();
    if accept ',' then elements acc
    else if accept ']' then Arr (List.rev acc)
    else fail "expected ',' or ']'"
  in
  match
    let v = value () in
    skip_ws ();
    if not (eof ()) then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None
let to_float = function Num lit -> float_of_string_opt lit | _ -> None
