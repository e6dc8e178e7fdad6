(* Recursive-descent SQL parser covering the dialect used by the workload:
   SELECT [DISTINCT] .. FROM (tables, subqueries, explicit joins)
   WHERE / GROUP BY / HAVING / ORDER BY / LIMIT / OFFSET, WITH-CTEs,
   UNION [ALL] / INTERSECT / EXCEPT, scalar/IN/EXISTS subqueries,
   CASE, BETWEEN, LIKE, IS [NOT] NULL, CAST, aggregates. *)

type t = {
  mutable toks : Token.t list;
  mutable nlits : int;
      (* [Token.param] tokens consumed so far: after consuming a literal,
         its parameter slot *)
}

let error fmt =
  Printf.ksprintf
    (fun msg -> raise (Gpos.Gpos_error.Error (Gpos.Gpos_error.Parse_error, msg)))
    fmt

let peek p = match p.toks with tok :: _ -> tok | [] -> Token.EOF

let peek2 p = match p.toks with _ :: tok :: _ -> tok | _ -> Token.EOF

let advance p =
  match p.toks with
  | tok :: rest ->
      if Option.is_some (Token.param tok) then p.nlits <- p.nlits + 1;
      p.toks <- rest
  | [] -> ()

let eat p tok =
  if peek p = tok then advance p
  else error "expected %s, found %s" (Token.to_string tok) (Token.to_string (peek p))

let accept p tok =
  if peek p = tok then begin
    advance p;
    true
  end
  else false

let kw p k = accept p (Token.KEYWORD k)

let expect_kw p k = eat p (Token.KEYWORD k)

let sym p s = accept p (Token.SYMBOL s)

let expect_sym p s = eat p (Token.SYMBOL s)

let ident p =
  match peek p with
  | Token.IDENT s ->
      advance p;
      s
  | tok -> error "expected identifier, found %s" (Token.to_string tok)

(* An integer literal and its slot. *)
let int_lit p =
  match peek p with
  | Token.INT n ->
      advance p;
      (n, p.nlits)
  | tok -> error "expected integer, found %s" (Token.to_string tok)

(* --- expressions, by precedence --- *)

let agg_names = [ "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let rec parse_expr p : Ast.expr = parse_or p

and parse_or p =
  let left = parse_and p in
  if kw p "OR" then Ast.E_or (left, parse_or p) else left

and parse_and p =
  let left = parse_not p in
  if kw p "AND" then Ast.E_and (left, parse_and p) else left

and parse_not p =
  if kw p "NOT" then Ast.E_not (parse_not p) else parse_predicate p

and parse_predicate p =
  (* EXISTS (subquery) *)
  if peek p = Token.KEYWORD "EXISTS" then begin
    advance p;
    expect_sym p "(";
    let q = parse_query p in
    expect_sym p ")";
    Ast.E_exists (q, false)
  end
  else begin
    let left = parse_additive p in
    parse_predicate_tail p left
  end

and parse_predicate_tail p left =
  match peek p with
  | Token.SYMBOL (("=" | "<>" | "<" | "<=" | ">" | ">=") as op) ->
      advance p;
      let cmp =
        match op with
        | "=" -> Ir.Expr.Eq
        | "<>" -> Ir.Expr.Neq
        | "<" -> Ir.Expr.Lt
        | "<=" -> Ir.Expr.Le
        | ">" -> Ir.Expr.Gt
        | ">=" -> Ir.Expr.Ge
        | _ -> assert false
      in
      let right = parse_additive p in
      Ast.E_cmp (cmp, left, right)
  | Token.KEYWORD "BETWEEN" ->
      advance p;
      let lo = parse_additive p in
      expect_kw p "AND";
      let hi = parse_additive p in
      Ast.E_between (left, lo, hi)
  | Token.KEYWORD "IN" ->
      advance p;
      expect_sym p "(";
      if peek p = Token.KEYWORD "SELECT" || peek p = Token.KEYWORD "WITH" then begin
        let q = parse_query p in
        expect_sym p ")";
        Ast.E_in_query (left, q, false)
      end
      else begin
        let rec vals acc =
          let v = parse_additive p in
          if sym p "," then vals (v :: acc) else List.rev (v :: acc)
        in
        let vs = vals [] in
        expect_sym p ")";
        Ast.E_in_list (left, vs)
      end
  | Token.KEYWORD "NOT" when peek2 p = Token.KEYWORD "IN" ->
      advance p;
      advance p;
      expect_sym p "(";
      if peek p = Token.KEYWORD "SELECT" || peek p = Token.KEYWORD "WITH" then begin
        let q = parse_query p in
        expect_sym p ")";
        Ast.E_in_query (left, q, true)
      end
      else begin
        let rec vals acc =
          let v = parse_additive p in
          if sym p "," then vals (v :: acc) else List.rev (v :: acc)
        in
        let vs = vals [] in
        expect_sym p ")";
        Ast.E_not (Ast.E_in_list (left, vs))
      end
  | Token.KEYWORD "NOT" when peek2 p = Token.KEYWORD "LIKE" ->
      advance p;
      advance p;
      (match peek p with
      | Token.STRING pat ->
          advance p;
          Ast.E_not (Ast.E_like (left, pat))
      | tok -> error "expected pattern string, found %s" (Token.to_string tok))
  | Token.KEYWORD "NOT" when peek2 p = Token.KEYWORD "BETWEEN" ->
      advance p;
      advance p;
      let lo = parse_additive p in
      expect_kw p "AND";
      let hi = parse_additive p in
      Ast.E_not (Ast.E_between (left, lo, hi))
  | Token.KEYWORD "LIKE" ->
      advance p;
      (match peek p with
      | Token.STRING pat ->
          advance p;
          Ast.E_like (left, pat)
      | tok -> error "expected pattern string, found %s" (Token.to_string tok))
  | Token.KEYWORD "IS" ->
      advance p;
      let negated = kw p "NOT" in
      expect_kw p "NULL";
      Ast.E_is_null (left, negated)
  | _ -> left

and parse_additive p =
  let left = parse_multiplicative p in
  parse_additive_tail p left

and parse_additive_tail p left =
  match peek p with
  | Token.SYMBOL "+" ->
      advance p;
      let right = parse_multiplicative p in
      parse_additive_tail p (Ast.E_arith (Ir.Expr.Add, left, right))
  | Token.SYMBOL "-" ->
      advance p;
      let right = parse_multiplicative p in
      parse_additive_tail p (Ast.E_arith (Ir.Expr.Sub, left, right))
  | _ -> left

and parse_multiplicative p =
  let left = parse_unary p in
  parse_multiplicative_tail p left

and parse_multiplicative_tail p left =
  match peek p with
  | Token.SYMBOL "*" ->
      advance p;
      let right = parse_unary p in
      parse_multiplicative_tail p (Ast.E_arith (Ir.Expr.Mul, left, right))
  | Token.SYMBOL "/" ->
      advance p;
      let right = parse_unary p in
      parse_multiplicative_tail p (Ast.E_arith (Ir.Expr.Div, left, right))
  | Token.SYMBOL "%" ->
      advance p;
      let right = parse_unary p in
      parse_multiplicative_tail p (Ast.E_arith (Ir.Expr.Mod, left, right))
  | _ -> left

and parse_unary p =
  if sym p "-" then Ast.E_neg (parse_unary p) else parse_primary p

and parse_primary p : Ast.expr =
  match peek p with
  | Token.INT n ->
      advance p;
      Ast.E_int (n, p.nlits)
  | Token.FLOAT f ->
      advance p;
      Ast.E_float (f, p.nlits)
  | Token.STRING s ->
      advance p;
      Ast.E_string (s, p.nlits)
  | Token.KEYWORD "NULL" ->
      advance p;
      Ast.E_null
  | Token.KEYWORD "TRUE" ->
      advance p;
      Ast.E_bool true
  | Token.KEYWORD "FALSE" ->
      advance p;
      Ast.E_bool false
  | Token.KEYWORD "DATE" ->
      advance p;
      (match peek p with
      | Token.STRING s ->
          advance p;
          Ast.E_date (s, p.nlits)
      | tok -> error "expected date string, found %s" (Token.to_string tok))
  | Token.KEYWORD "CASE" ->
      advance p;
      let rec whens acc =
        if kw p "WHEN" then begin
          let c = parse_expr p in
          expect_kw p "THEN";
          let v = parse_expr p in
          whens ((c, v) :: acc)
        end
        else List.rev acc
      in
      let ws = whens [] in
      let els = if kw p "ELSE" then Some (parse_expr p) else None in
      expect_kw p "END";
      Ast.E_case (ws, els)
  | Token.KEYWORD "CAST" ->
      advance p;
      expect_sym p "(";
      let e = parse_expr p in
      expect_kw p "AS";
      let ty = ident p in
      expect_sym p ")";
      Ast.E_cast (e, ty)
  | Token.KEYWORD "COALESCE" ->
      advance p;
      expect_sym p "(";
      let rec args acc =
        let e = parse_expr p in
        if sym p "," then args (e :: acc) else List.rev (e :: acc)
      in
      let es = args [] in
      expect_sym p ")";
      Ast.E_func ("COALESCE", es)
  | Token.KEYWORD name when List.mem name agg_names ->
      advance p;
      expect_sym p "(";
      let dist = kw p "DISTINCT" in
      let arg =
        if sym p "*" then None
        else Some (parse_expr p)
      in
      expect_sym p ")";
      if peek p = Token.KEYWORD "OVER" then
        parse_over p name arg
      else Ast.E_agg { Ast.agg_name = name; agg_expr = arg; agg_dist = dist }
  | Token.SYMBOL "(" ->
      advance p;
      if peek p = Token.KEYWORD "SELECT" || peek p = Token.KEYWORD "WITH" then begin
        let q = parse_query p in
        expect_sym p ")";
        Ast.E_scalar_subquery q
      end
      else begin
        let e = parse_expr p in
        expect_sym p ")";
        e
      end
  | Token.IDENT "grouping" when peek2 p = Token.SYMBOL "(" ->
      (* GROUPING(e): 1 when [e] is rolled away in the current grouping set,
          0 otherwise; substituted per-arm by the ROLLUP expansion *)
      advance p;
      expect_sym p "(";
      let e = parse_expr p in
      expect_sym p ")";
      Ast.E_func ("GROUPING", [ e ])
  | Token.IDENT ("row_number" | "rank" | "dense_rank") when peek2 p = Token.SYMBOL "(" -> (
      match peek p with
      | Token.IDENT name ->
          advance p;
          expect_sym p "(";
          expect_sym p ")";
          parse_over p (String.uppercase_ascii name) None
      | _ -> assert false)
  | Token.IDENT name ->
      advance p;
      if sym p "." then begin
        if sym p "*" then Ast.E_star
        else
          let col = ident p in
          Ast.E_col (Some name, col)
      end
      else Ast.E_col (None, name)
  | Token.SYMBOL "*" ->
      advance p;
      Ast.E_star
  | tok -> error "unexpected token %s in expression" (Token.to_string tok)

(* OVER ( [PARTITION BY e, ...] [ORDER BY e [ASC|DESC], ...] ) *)
and parse_over p name arg : Ast.expr =
  expect_kw p "OVER";
  expect_sym p "(";
  let partition =
    if kw p "PARTITION" then begin
      expect_kw p "BY";
      let rec go acc =
        let e = parse_expr p in
        if sym p "," then go (e :: acc) else List.rev (e :: acc)
      in
      go []
    end
    else []
  in
  let order =
    if kw p "ORDER" then begin
      expect_kw p "BY";
      let rec go acc =
        let e = parse_expr p in
        let dir =
          if kw p "DESC" then `Desc
          else begin
            let _ = kw p "ASC" in
            `Asc
          end
        in
        if sym p "," then go ((e, dir) :: acc) else List.rev ((e, dir) :: acc)
      in
      go []
    end
    else []
  in
  (* Optional explicit frame. Only the SQL default frame is accepted --
     [ROWS|RANGE] BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW -- which is
     the semantics window aggregates already implement; anything else is an
     honest Unsupported error rather than a silent reinterpretation. *)
  (match peek p with
  | Token.IDENT (("rows" | "range") as unit_word) ->
      advance p;
      let frame_ident expected =
        match peek p with
        | Token.IDENT w when w = expected -> advance p
        | tok ->
            error "unsupported window frame (%s, expected %s): only %s \
                   BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW is supported"
              (Token.to_string tok) expected
              (String.uppercase_ascii unit_word)
      in
      expect_kw p "BETWEEN";
      frame_ident "unbounded";
      frame_ident "preceding";
      expect_kw p "AND";
      frame_ident "current";
      frame_ident "row";
      if order = [] then
        error "a window frame requires an ORDER BY in its window"
  | _ -> ());
  expect_sym p ")";
  Ast.E_window
    { Ast.win_name = name; win_expr = arg; win_partition = partition; win_order = order }

(* --- FROM clause --- *)

and parse_from_item p : Ast.from_item =
  let base =
    if sym p "(" then begin
      if peek p = Token.KEYWORD "SELECT" || peek p = Token.KEYWORD "WITH" then begin
        let q = parse_query p in
        expect_sym p ")";
        let _ = kw p "AS" in
        let alias = ident p in
        Ast.F_subquery (q, alias)
      end
      else begin
        (* parenthesized join tree *)
        let item = parse_from_item p in
        expect_sym p ")";
        item
      end
    end
    else begin
      let name = ident p in
      let alias =
        if kw p "AS" then Some (ident p)
        else
          match peek p with
          | Token.IDENT a ->
              advance p;
              Some a
          | _ -> None
      in
      Ast.F_table (name, alias)
    end
  in
  parse_join_tail p base

and parse_join_tail p left =
  let jt =
    if kw p "INNER" then begin
      expect_kw p "JOIN";
      Some Ast.J_inner
    end
    else if kw p "LEFT" then begin
      let _ = kw p "OUTER" in
      expect_kw p "JOIN";
      Some Ast.J_left
    end
    else if kw p "RIGHT" then begin
      let _ = kw p "OUTER" in
      expect_kw p "JOIN";
      Some Ast.J_right
    end
    else if kw p "FULL" then begin
      let _ = kw p "OUTER" in
      expect_kw p "JOIN";
      Some Ast.J_full
    end
    else if kw p "CROSS" then begin
      expect_kw p "JOIN";
      Some Ast.J_cross
    end
    else if kw p "JOIN" then Some Ast.J_inner
    else None
  in
  match jt with
  | None -> left
  | Some jt ->
      let right =
        if sym p "(" then begin
          if peek p = Token.KEYWORD "SELECT" || peek p = Token.KEYWORD "WITH"
          then begin
            let q = parse_query p in
            expect_sym p ")";
            let _ = kw p "AS" in
            let alias = ident p in
            Ast.F_subquery (q, alias)
          end
          else begin
            let item = parse_from_item p in
            expect_sym p ")";
            item
          end
        end
        else begin
          let name = ident p in
          let alias =
            if kw p "AS" then Some (ident p)
            else
              match peek p with
              | Token.IDENT a when peek2 p <> Token.SYMBOL "(" ->
                  advance p;
                  Some a
              | _ -> None
          in
          Ast.F_table (name, alias)
        end
      in
      let cond =
        if jt = Ast.J_cross then None
        else begin
          expect_kw p "ON";
          Some (parse_expr p)
        end
      in
      parse_join_tail p (Ast.F_join (left, jt, right, cond))

(* --- SELECT core --- *)

and parse_select_core p : Ast.select_core =
  expect_kw p "SELECT";
  let distinct = kw p "DISTINCT" in
  let rec items acc =
    let e = parse_expr p in
    let alias =
      if kw p "AS" then Some (ident p)
      else
        match peek p with
        | Token.IDENT a ->
            advance p;
            Some a
        | _ -> None
    in
    let item = { Ast.item_expr = e; item_alias = alias } in
    if sym p "," then items (item :: acc) else List.rev (item :: acc)
  in
  let items = items [] in
  let from =
    if kw p "FROM" then begin
      let rec froms acc =
        let f = parse_from_item p in
        if sym p "," then froms (f :: acc) else List.rev (f :: acc)
      in
      froms []
    end
    else []
  in
  let where = if kw p "WHERE" then Some (parse_expr p) else None in
  let group_by, group_mode =
    if kw p "GROUP" then begin
      expect_kw p "BY";
      match peek p with
      | Token.IDENT "grouping" ->
          (* GROUPING SETS ((e, ...), (e, ...), ..., ()) *)
          advance p;
          (match peek p with
          | Token.IDENT "sets" -> advance p
          | tok ->
              error "expected SETS after GROUPING, got %s" (Token.to_string tok));
          expect_sym p "(";
          let rec one_set acc =
            (* a parenthesized list, or a single bare expression *)
            let exprs =
              if sym p "(" then begin
                if sym p ")" then []
                else begin
                  let rec go acc =
                    let e = parse_expr p in
                    if sym p "," then go (e :: acc) else List.rev (e :: acc)
                  in
                  let es = go [] in
                  expect_sym p ")";
                  es
                end
              end
              else [ parse_expr p ]
            in
            if sym p "," then one_set (exprs :: acc)
            else List.rev (exprs :: acc)
          in
          (* sets share their expressions, so their literals are structure *)
          let sets = List.map (List.map Ast.unslot) (one_set []) in
          expect_sym p ")";
          (* the generator list = first occurrence of each expression *)
          let cols =
            List.fold_left
              (fun acc e -> if List.mem e acc then acc else acc @ [ e ])
              []
              (List.concat sets)
          in
          let index e =
            let rec go i = function
              | [] -> assert false
              | x :: _ when x = e -> i
              | _ :: rest -> go (i + 1) rest
            in
            go 0 cols
          in
          let masks =
            List.map
              (fun set ->
                List.fold_left (fun m e -> m lor (1 lsl index e)) 0 set)
              sets
          in
          (cols, Ast.G_sets masks)
      | _ ->
          let mode =
            match peek p with
            | Token.IDENT "rollup" ->
                advance p;
                expect_sym p "(";
                Ast.G_rollup
            | Token.IDENT "cube" ->
                advance p;
                expect_sym p "(";
                Ast.G_cube
            | _ -> Ast.G_plain
          in
          let rec cols acc =
            let e = parse_expr p in
            if sym p "," then cols (e :: acc) else List.rev (e :: acc)
          in
          let cols = cols [] in
          if mode <> Ast.G_plain then expect_sym p ")";
          (cols, mode)
    end
    else ([], Ast.G_plain)
  in
  let having = if kw p "HAVING" then Some (parse_expr p) else None in
  { Ast.distinct; items; from; where; group_by; group_mode; having }

and parse_body p : Ast.body =
  let left = Ast.Select (parse_select_core p) in
  parse_body_tail p left

and parse_body_tail p left =
  if kw p "UNION" then begin
    let kind = if kw p "ALL" then Ir.Expr.Union_all else Ir.Expr.Union_distinct in
    let right = Ast.Select (parse_select_core p) in
    parse_body_tail p (Ast.Setop (kind, left, right))
  end
  else if kw p "INTERSECT" then begin
    let right = Ast.Select (parse_select_core p) in
    parse_body_tail p (Ast.Setop (Ir.Expr.Intersect, left, right))
  end
  else if kw p "EXCEPT" then begin
    let right = Ast.Select (parse_select_core p) in
    parse_body_tail p (Ast.Setop (Ir.Expr.Except, left, right))
  end
  else left

(* --- full queries --- *)

and parse_query p : Ast.query =
  let ctes =
    if kw p "WITH" then begin
      let rec go acc =
        let name = ident p in
        expect_kw p "AS";
        expect_sym p "(";
        let q = parse_query p in
        expect_sym p ")";
        if sym p "," then go ((name, q) :: acc) else List.rev ((name, q) :: acc)
      in
      go []
    end
    else []
  in
  let body = parse_body p in
  let order_by =
    if kw p "ORDER" then begin
      expect_kw p "BY";
      let rec go acc =
        let e = parse_expr p in
        let dir =
          if kw p "DESC" then `Desc
          else begin
            let _ = kw p "ASC" in
            `Asc
          end
        in
        if sym p "," then go ((e, dir) :: acc) else List.rev ((e, dir) :: acc)
      in
      go []
    end
    else []
  in
  let limit = if kw p "LIMIT" then Some (int_lit p) else None in
  let offset = if kw p "OFFSET" then Some (int_lit p) else None in
  let slot = function Some (_, k) -> k | None -> 0 in
  {
    Ast.ctes;
    body;
    order_by;
    limit = Option.map fst limit;
    offset = Option.map fst offset;
    limit_slots = { Ir.Expr.offset_slot = slot offset; count_slot = slot limit };
  }

let parse (sql : string) : Ast.query =
  let p = { toks = Lexer.tokenize sql; nlits = 0 } in
  let q = parse_query p in
  let _ = sym p ";" in
  (match peek p with
  | Token.EOF -> ()
  | tok -> error "trailing input: %s" (Token.to_string tok));
  q
