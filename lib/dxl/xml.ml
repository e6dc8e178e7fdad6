(* Minimal XML reader/writer used by DXL. Supports elements, attributes and
   text nodes with the standard five entities — all that DXL messages need. *)

type node =
  | Element of element
  | Text of string

and element = { tag : string; attrs : (string * string) list; children : node list }

let element ?(attrs = []) ?(children = []) tag = { tag; attrs; children }

let attr (e : element) name = List.assoc_opt name e.attrs

let attr_exn e name =
  match attr e name with
  | Some v -> v
  | None ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
        "element <%s> missing attribute %S" e.tag name

let child_elements (e : element) =
  List.filter_map (function Element c -> Some c | Text _ -> None) e.children

let find_child e tag = List.find_opt (fun c -> c.tag = tag) (child_elements e)

let find_child_exn e tag =
  match find_child e tag with
  | Some c -> c
  | None ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
        "element <%s> missing child <%s>" e.tag tag

let children_named e tag =
  List.filter (fun c -> c.tag = tag) (child_elements e)

let text_content (e : element) =
  String.concat ""
    (List.filter_map (function Text t -> Some t | Element _ -> None) e.children)

(* --- printing --- *)

(* One printer serves two outputs: plain XML, and XML written straight into
   the body of a JSON string (a service reply carrying a plan). [add_run buf s
   pos len] appends a run of [s] in the output's own escaping: a plain copy,
   or {!Gpos.Json.escape_sub}. Markup goes through it whole; attribute values
   and text are XML-escaped first, their plain runs going through it in one
   go and each entity added as is (no entity needs JSON escaping). So the
   JSON form equals the escaped plain form byte for byte, and neither
   allocates per attribute. *)

let[@inline] entity = function
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '&' -> "&amp;"
  | '"' -> "&quot;"
  | '\'' -> "&apos;"
  | _ -> ""

let add_escaped add_run buf s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    match entity (String.unsafe_get s i) with
    | "" -> ()
    | e ->
        add_run buf s !start (i - !start);
        Buffer.add_string buf e;
        start := i + 1
  done;
  add_run buf s !start (String.length s - !start)

let escaped_length s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    match entity (String.unsafe_get s i) with
    | "" -> ()
    | e -> n := !n + String.length e - 1
  done;
  !n

let only_text = List.for_all (function Text _ -> true | Element _ -> false)

(* The exact length of the plain output for [e] at [indent], so [to_string]
   allocates its buffer once at its final size. *)
let rec printed_length indent (e : element) =
  let tag = String.length e.tag in
  let opening =
    List.fold_left
      (fun n (k, v) -> n + String.length k + escaped_length v + 4)
      ((2 * indent) + 1 + tag)
      e.attrs
  in
  match e.children with
  | [] -> opening + 3
  | children when only_text children ->
      List.fold_left
        (fun n -> function Text t -> n + escaped_length t | Element _ -> n)
        (opening + 1 + tag + 4)
        children
  | children ->
      List.fold_left
        (fun n -> function
          | Element c -> n + printed_length (indent + 1) c
          | Text t -> n + (2 * (indent + 1)) + escaped_length t + 1)
        (opening + 2 + (2 * indent) + tag + 4)
        children

let xml_header = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"

let print add_run buf ~header (root : element) =
  let add s = add_run buf s 0 (String.length s) in
  let pad indent =
    for _ = 1 to indent do
      Buffer.add_string buf "  "
    done
  in
  (* local recursion, not List.iter: no closure per element *)
  let rec attrs = function
    | [] -> ()
    | (k, v) :: rest ->
        Buffer.add_char buf ' ';
        add k;
        add "=\"";
        add_escaped add_run buf v;
        add "\"";
        attrs rest
  in
  let rec texts = function
    | [] -> ()
    | Text t :: rest ->
        add_escaped add_run buf t;
        texts rest
    | Element _ :: rest -> texts rest
  in
  let close tag =
    Buffer.add_string buf "</";
    add tag;
    add ">\n"
  in
  let rec emit indent (e : element) =
    pad indent;
    Buffer.add_char buf '<';
    add e.tag;
    attrs e.attrs;
    match e.children with
    | [] -> add "/>\n"
    | children when only_text children ->
        Buffer.add_char buf '>';
        texts children;
        close e.tag
    | children ->
        add ">\n";
        nodes (indent + 1) children;
        pad indent;
        close e.tag
  and nodes indent = function
    | [] -> ()
    | Element c :: rest ->
        emit indent c;
        nodes indent rest
    | Text t :: rest ->
        pad indent;
        add_escaped add_run buf t;
        add "\n";
        nodes indent rest
  in
  if header then add xml_header;
  emit 0 root

let to_string ?(header = true) (root : element) =
  let buf =
    Buffer.create
      ((if header then String.length xml_header else 0) + printed_length 0 root)
  in
  print Buffer.add_substring buf ~header root;
  Buffer.contents buf

let add_json_escaped buf root = print Gpos.Json.escape_sub buf ~header:true root

(* --- parsing --- *)

exception Parse_failure of string

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '&' then begin
      match String.index_from_opt s !i ';' with
      | Some j ->
          let entity = String.sub s (!i + 1) (j - !i - 1) in
          (match entity with
          | "lt" -> Buffer.add_char buf '<'
          | "gt" -> Buffer.add_char buf '>'
          | "amp" -> Buffer.add_char buf '&'
          | "quot" -> Buffer.add_char buf '"'
          | "apos" -> Buffer.add_char buf '\''
          | e -> raise (Parse_failure ("unknown entity &" ^ e ^ ";")));
          i := j + 1
      | None -> raise (Parse_failure "unterminated entity")
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

type parser_state = { input : string; mutable pos : int }

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.input
    && (match st.input.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ ->
      raise
        (Parse_failure
           (Printf.sprintf "expected %c at offset %d" c st.pos))

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = ':' || c = '.'

let read_name st =
  let start = st.pos in
  while
    st.pos < String.length st.input && is_name_char st.input.[st.pos]
  do
    advance st
  done;
  if st.pos = start then
    raise (Parse_failure (Printf.sprintf "expected name at offset %d" st.pos));
  String.sub st.input start (st.pos - start)

let read_quoted st =
  let quote =
    match peek st with
    | Some ('"' as q) | Some ('\'' as q) ->
        advance st;
        q
    | _ -> raise (Parse_failure "expected quoted value")
  in
  let start = st.pos in
  while st.pos < String.length st.input && st.input.[st.pos] <> quote do
    advance st
  done;
  let v = String.sub st.input start (st.pos - start) in
  expect st quote;
  unescape v

let rec skip_misc st =
  skip_ws st;
  if
    st.pos + 3 < String.length st.input
    && String.sub st.input st.pos 4 = "<!--"
  then begin
    (* comment *)
    let rec find i =
      if i + 2 >= String.length st.input then
        raise (Parse_failure "unterminated comment")
      else if String.sub st.input i 3 = "-->" then i + 3
      else find (i + 1)
    in
    st.pos <- find (st.pos + 4);
    skip_misc st
  end
  else if
    st.pos + 1 < String.length st.input
    && st.input.[st.pos] = '<'
    && st.input.[st.pos + 1] = '?'
  then begin
    (* processing instruction / declaration *)
    match String.index_from_opt st.input st.pos '>' with
    | Some j ->
        st.pos <- j + 1;
        skip_misc st
    | None -> raise (Parse_failure "unterminated declaration")
  end

let rec parse_element st : element =
  skip_misc st;
  expect st '<';
  let tag = read_name st in
  let attrs = ref [] in
  let rec read_attrs () =
    skip_ws st;
    match peek st with
    | Some '/' | Some '>' -> ()
    | Some _ ->
        let name = read_name st in
        skip_ws st;
        expect st '=';
        skip_ws st;
        let v = read_quoted st in
        attrs := (name, v) :: !attrs;
        read_attrs ()
    | None -> raise (Parse_failure "unexpected end of input in attributes")
  in
  read_attrs ();
  match peek st with
  | Some '/' ->
      advance st;
      expect st '>';
      { tag; attrs = List.rev !attrs; children = [] }
  | Some '>' ->
      advance st;
      let children = ref [] in
      let rec read_children () =
        (* accumulate text until '<' *)
        let start = st.pos in
        while st.pos < String.length st.input && st.input.[st.pos] <> '<' do
          advance st
        done;
        if st.pos > start then begin
          let raw = String.sub st.input start (st.pos - start) in
          let trimmed = String.trim raw in
          if trimmed <> "" then children := Text (unescape trimmed) :: !children
        end;
        if st.pos + 1 < String.length st.input && st.input.[st.pos + 1] = '/'
        then begin
          (* closing tag *)
          advance st;
          advance st;
          let close = read_name st in
          skip_ws st;
          expect st '>';
          if close <> tag then
            raise
              (Parse_failure
                 (Printf.sprintf "mismatched </%s>, expected </%s>" close tag))
        end
        else if
          st.pos + 3 < String.length st.input
          && String.sub st.input st.pos 4 = "<!--"
        then begin
          skip_misc st;
          read_children ()
        end
        else begin
          let child = parse_element st in
          children := Element child :: !children;
          read_children ()
        end
      in
      read_children ();
      { tag; attrs = List.rev !attrs; children = List.rev !children }
  | _ -> raise (Parse_failure "malformed element")

let of_string (s : string) : element =
  let st = { input = s; pos = 0 } in
  try
    skip_misc st;
    let e = parse_element st in
    skip_ws st;
    e
  with Parse_failure msg ->
    Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "XML parse error: %s"
      msg
