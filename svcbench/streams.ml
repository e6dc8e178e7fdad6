(* Request streams: the texts the benchmark sends, made from the seed alone.

   Every text derives from one of the supported TPC-DS queries (its "base").
   Variants and rewrites never change an answer, so each request is checked
   against its base's reference answer.

   - Hot variants change only whitespace and the case of words outside
     string literals: the lexer folds identifiers and keywords, so the
     normalized text, fingerprint and parameter vector are the base's.
   - Cold rewrites permute WHERE and ON conjuncts and comma-separated FROM
     items, mirror simple comparisons ([a = b] to [b = a], [a < b] to
     [b > a]) and wrap conjuncts in redundant parentheses. Each gives a new
     normalized text, hence a new cache shape, with the base's answer. *)

(* ---------------- lexemes ---------------- *)

(* A word is a maximal run of identifier/number characters (qualified names
   and decimals stay whole), a keyword is a word the SQL lexer reserves
   (kept uppercased); a string literal keeps its quotes and [''] escapes
   verbatim; operators made of [<>=!|] stay whole. *)
type lexeme = Word of string | Kw of string | Str of string | Sym of string

let is_word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> true
  | _ -> false

let is_op_char c = match c with '<' | '>' | '=' | '!' | '|' -> true | _ -> false

let lex sql =
  let n = String.length sql in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = sql.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '\'' then begin
      let s = !i in
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then failwith "unterminated string literal";
        if sql.[!i] = '\'' then
          if !i + 1 < n && sql.[!i + 1] = '\'' then i := !i + 2
          else (
            incr i;
            closed := true)
        else incr i
      done;
      out := Str (String.sub sql s (!i - s)) :: !out
    end
    else if is_word_char c then begin
      let s = !i in
      while !i < n && is_word_char sql.[!i] do
        incr i
      done;
      let w = String.sub sql s (!i - s) in
      out :=
        (if Sqlfront.Token.is_keyword w then Kw (String.uppercase_ascii w)
         else Word w)
        :: !out
    end
    else if is_op_char c then begin
      let s = !i in
      while !i < n && is_op_char sql.[!i] do
        incr i
      done;
      out := Sym (String.sub sql s (!i - s)) :: !out
    end
    else begin
      out := Sym (String.make 1 c) :: !out;
      incr i
    end
  done;
  Array.of_list (List.rev !out)

let text = function Word s | Kw s | Str s | Sym s -> s
let render lexemes = String.concat " " (List.map text lexemes)
let is_kw k l = match l with Kw w -> String.equal w k | _ -> false

(* ---------------- hot variants ---------------- *)

(* Re-space every gap with one to three blanks or tabs and re-case every word
   outside string literals. Variant 0 is the base text verbatim. *)
let variant st sql v =
  if v = 0 then sql
  else begin
    let lexemes = lex sql in
    let buf = Buffer.create (String.length sql * 2) in
    let recase w =
      match v mod 3 with
      | 0 -> String.uppercase_ascii w
      | 1 -> String.lowercase_ascii w
      | _ ->
          String.mapi
            (fun i c ->
              if (i + Random.State.int st 2) mod 2 = 0 then Char.uppercase_ascii c
              else Char.lowercase_ascii c)
            w
    in
    Array.iteri
      (fun i l ->
        if i > 0 then
          for _ = 0 to Random.State.int st 3 do
            Buffer.add_char buf (if Random.State.int st 4 = 0 then '\t' else ' ')
          done;
        Buffer.add_string buf
          (match l with Word w | Kw w -> recase w | Str s | Sym s -> s))
      lexemes;
    Buffer.contents buf
  end

(* ---------------- cold rewrites ---------------- *)

let opens l = match l with Sym "(" -> true | _ -> is_kw "CASE" l
let closes l = match l with Sym ")" -> true | _ -> is_kw "END" l

(* The index just past the clause starting at [lo]: the first lexeme at
   nesting depth 0 that is a terminator keyword or [;], else [hi]. *)
let clause_end a lo hi terminators =
  let depth = ref 0 and i = ref lo and stop = ref hi in
  while !i < hi && !stop = hi do
    let l = a.(!i) in
    if opens l then incr depth
    else if closes l then decr depth
    else if
      !depth = 0
      && (l = Sym ";"
         || match l with Kw k -> List.mem k terminators | _ -> false)
    then stop := !i;
    incr i
  done;
  !stop

(* Split [lo, hi) at depth-0 separators; the AND of a BETWEEN is not one.
   Returns [None] when [veto] fires at depth 0 (an OR makes AND-splitting
   wrong; a JOIN makes comma-splitting wrong). *)
let split a lo hi ~sep ~veto =
  let depth = ref 0 and between = ref false in
  let parts = ref [] and start = ref lo and vetoed = ref false in
  for i = lo to hi - 1 do
    let l = a.(i) in
    if opens l then incr depth
    else if closes l then decr depth
    else if !depth = 0 then begin
      if veto l then vetoed := true
      else if is_kw "BETWEEN" l then between := true
      else if sep l then
        if !between && is_kw "AND" l then between := false
        else begin
          parts := (!start, i) :: !parts;
          start := i + 1
        end
    end
  done;
  if !vetoed then None else Some (List.rev ((!start, hi) :: !parts))

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let mirror = function
  | "=" -> Some "="
  | "<>" -> Some "<>"
  | "!=" -> Some "!="
  | "<" -> Some ">"
  | ">" -> Some "<"
  | "<=" -> Some ">="
  | ">=" -> Some "<="
  | _ -> None

let operand l = match l with Word _ | Str _ -> true | Kw _ | Sym _ -> false

let where_terms =
  [ "GROUP"; "HAVING"; "ORDER"; "LIMIT"; "OFFSET"; "UNION"; "INTERSECT"; "EXCEPT" ]

let from_terms = "WHERE" :: where_terms
let on_terms = [ "JOIN"; "LEFT"; "RIGHT"; "FULL"; "INNER"; "CROSS" ] @ from_terms

(* One seeded semantics-preserving rewrite of [sql]. *)
let rewrite st sql =
  let a = lex sql in
  let rec range lo hi =
    let out = ref [] in
    let emit ls = out := List.rev_append ls !out in
    let star = ref false in
    let i = ref lo in
    while !i < hi do
      let l = a.(!i) in
      match l with
      | Sym "(" ->
          let j = matching (!i + 1) hi in
          emit ((Sym "(" :: range (!i + 1) j) @ [ Sym ")" ]);
          i := j + 1
      | Sym "*" ->
          star := true;
          emit [ l ];
          incr i
      | _ when is_kw "SELECT" l ->
          star := false;
          emit [ l ];
          incr i
      | _ when is_kw "WHERE" l || is_kw "ON" l ->
          let terms = if is_kw "ON" l then on_terms else where_terms in
          let j = clause_end a (!i + 1) hi terms in
          emit (l :: conjuncts (!i + 1) j);
          i := j
      | _ when is_kw "FROM" l ->
          let j = clause_end a (!i + 1) hi from_terms in
          emit (l :: from_items ~star:!star (!i + 1) j);
          i := j
      | _ ->
          emit [ l ];
          incr i
    done;
    List.rev !out
  and matching lo hi =
    let depth = ref 1 and i = ref lo in
    while !depth > 0 do
      if !i >= hi then failwith "unbalanced parentheses";
      (match a.(!i) with Sym "(" -> incr depth | Sym ")" -> decr depth | _ -> ());
      if !depth > 0 then incr i
    done;
    !i
  and conjuncts lo hi =
    let parts =
      match split a lo hi ~sep:(is_kw "AND") ~veto:(is_kw "OR") with
      | None -> [ (lo, hi) ]
      | Some parts -> shuffle st parts
    in
    List.concat
      (List.mapi
         (fun k (s, e) ->
           (if k > 0 then [ Kw "AND" ] else []) @ parenthesize (term s e))
         parts)
  and parenthesize ls =
    (* redundant parentheses change the normalized text, not the tree *)
    if Random.State.int st 3 = 0 then (Sym "(" :: ls) @ [ Sym ")" ] else ls
  and term lo hi =
    (* a bare comparison of two operands may be mirrored *)
    if hi - lo = 3 && operand a.(lo) && operand a.(lo + 2) then
      match a.(lo + 1) with
      | Sym op -> (
          match mirror op with
          | Some op' when Random.State.bool st -> [ a.(lo + 2); Sym op'; a.(lo) ]
          | _ -> range lo hi)
      | _ -> range lo hi
    else range lo hi
  and from_items ~star lo hi =
    (* reordering FROM items would reorder the columns of SELECT * *)
    match
      if star then None
      else
        split a lo hi ~sep:(fun l -> l = Sym ",")
          ~veto:(fun l ->
            match l with
            | Kw ("JOIN" | "ON" | "CROSS" | "LEFT" | "RIGHT" | "FULL" | "INNER") -> true
            | _ -> false)
    with
    | None | Some [ _ ] -> range lo hi
    | Some parts ->
        let parts = shuffle st parts in
        List.concat
          (List.mapi
             (fun k (s, e) -> (if k > 0 then [ Sym "," ] else []) @ range s e)
             parts)
  in
  render (range 0 (Array.length a))

(* ---------------- the bases ---------------- *)

(* The 84 TPC-DS texts the service answers when the 111 are sent once each
   in qid order. The other 27 get an error reply: each is a sibling of an
   earlier text with a string constant, and rebinding it raises "bad date
   literal". *)
let supported_qids =
  [ 1; 5; 9; 13; 14; 15; 16; 17; 21; 22; 23; 24; 27; 28; 29; 30; 31; 32; 33;
    34; 35; 36; 37; 38; 39; 40; 41; 42; 43; 44; 45; 46; 47; 48; 49; 50; 51;
    52; 53; 54; 55; 56; 57; 58; 59; 60; 61; 62; 63; 64; 65; 66; 67; 71; 75;
    79; 80; 81; 82; 83; 84; 85; 86; 87; 88; 89; 92; 93; 94; 95; 96; 97; 98;
    99; 100; 101; 102; 103; 104; 105; 106; 107; 108; 109 ]

(* Supported texts whose plan, rebound from a sibling's cached plan, returns
   wrong rows. Freshly optimized (every cold rewrite is), they are right. *)
let wrong_rebind_qids = [ 14; 15; 16; 36; 37; 38; 46; 47; 65; 66; 107; 108 ]

(* The texts a warm server answers right: the warm-up pass and the hot
   stream use only these, so no measured operation fails by a known
   defect. The other 39 texts (the 27 error replies and the 12 wrong
   rebinds) form the defect audit, sent to a warm server outside the
   measured phase and reported on its own. *)
let served_qids = List.filter (fun q -> not (List.mem q wrong_rebind_qids)) supported_qids

let audit_qids () =
  List.filter
    (fun q -> not (List.mem q served_qids))
    (List.map (fun (q : Tpcds.Queries.def) -> q.Tpcds.Queries.qid) (Lazy.force Tpcds.Queries.all))

type base = { qid : int; sql : string; norm : string }

let bases_of qids =
  Array.of_list
    (List.map
       (fun qid ->
         let sql = (Tpcds.Queries.get qid).Tpcds.Queries.sql in
         { qid; sql; norm = (Server.Normalize.normalize sql).Server.Normalize.text })
       qids)

let bases () = bases_of supported_qids

(* One request: the index of its base in [bases ()] and the line sent. *)
type request = { base : int; line : string }

let weighted st cumulative =
  let total = cumulative.(Array.length cumulative - 1) in
  let x = Random.State.float st total in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cumulative.(mid) > x then find lo mid else find (mid + 1) hi
  in
  find 0 (Array.length cumulative - 1)

let cumulate w =
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. x; !acc) w

(* Both streams are made of shuffled blocks with a fixed composition, so
   the seed changes the order of requests but not the mix: throughput and
   the percentiles then measure the service, not the luck of the draw. *)

(* Hot: blocks of 100 requests, every served base once plus [hot_extra], a
   fixed popularity skew. Within a block each request picks one of [variants]
   texts of its base. Every cache shape is touched at least once per 200
   hot requests, fewer than the 222 cold inserts that would evict it from
   the 256-entry LRU beside at most 34 hot shapes; and q75, the slowest reply to
   serialize, holds 3% of requests, so the p99 falls inside its cluster
   rather than on the edge of it. *)
let hot_extra =
  [ (27, 6); (50, 5); (75, 2); (102, 3); (98, 3); (94, 2); (58, 2); (13, 2); (1, 1); (9, 1); (34, 1) ]
let variants = 4

let index_of_qid (bases : base array) qid =
  let rec go i = if bases.(i).qid = qid then i else go (i + 1) in
  go 0

let hot ~seed (bases : base array) n =
  let st = Random.State.make [| seed; 0x407 |] in
  let texts =
    Array.map
      (fun b -> Array.init variants (fun v -> variant (Random.State.make [| seed; b.qid; v |]) b.sql v))
      bases
  in
  let block =
    List.filter (fun i -> List.mem bases.(i).qid served_qids) (List.init (Array.length bases) Fun.id)
    @ List.concat_map (fun (qid, k) -> List.init k (fun _ -> index_of_qid bases qid)) hot_extra
  in
  let out = ref [] and count = ref 0 in
  while !count < n do
    List.iter
      (fun b ->
        if !count < n then begin
          out := { base = b; line = texts.(b).(Random.State.int st variants) } :: !out;
          incr count
        end)
      (shuffle st block)
  done;
  Array.of_list (List.rev !out)

(* Cold: blocks hold every base once plus [cold_extra]: q75, the slowest
   to optimize, three times, so the p99 of cold, and of mixed where cold
   requests are about 40% of the samples, falls inside its cluster rather
   than on the edge of it. Each base has a pool of up to [pool_size]
   rewrites; the pools' normalized texts are distinct across all bases
   (siblings share a shape) and from every warm-up shape. A base starts at a
   seeded place in its pool, takes its rewrites in turn, and sits a slot
   out while the next one was sent within the last [cold_gap] requests.
   Most texts in a run are new; the few bases with small pools repeat one
   only after more inserts than the 256-entry cache holds, so every request
   misses. Bases with no rewrite at all are left out. *)
let cold_extra = [ (75, 2) ]
let pool_size = 150
let cold_gap = 260

let pools (bases : base array) =
  let seen = Hashtbl.create 8192 in
  Array.iter (fun b -> Hashtbl.replace seen b.norm ()) bases;
  Array.map
    (fun b ->
      let st = Random.State.make [| b.qid; 0xc01d |] in
      let pool = ref [] and size = ref 0 and misses = ref 0 in
      while !size < pool_size && !misses < 40 do
        let line = rewrite st b.sql in
        let norm = (Server.Normalize.normalize line).Server.Normalize.text in
        if Hashtbl.mem seen norm then incr misses
        else begin
          misses := 0;
          incr size;
          Hashtbl.replace seen norm ();
          pool := line :: !pool
        end
      done;
      Array.of_list (List.rev !pool))
    bases

let cold ~seed (bases : base array) n =
  let pools = pools bases in
  let st = Random.State.make [| seed; 0xc01d |] in
  let cursor = Array.map (fun p -> Random.State.int st (max 1 (Array.length p))) pools in
  let last = Array.map (fun p -> Array.make (Array.length p) (-cold_gap - 1)) pools in
  let block =
    List.filter
      (fun b -> Array.length pools.(b) > 0)
      (List.init (Array.length bases) Fun.id
      @ List.concat_map (fun (qid, k) -> List.init k (fun _ -> index_of_qid bases qid)) cold_extra)
  in
  let out = ref [] and count = ref 0 in
  while !count < n do
    List.iter
      (fun b ->
        let k = cursor.(b) mod Array.length pools.(b) in
        if !count < n && !count - last.(b).(k) > cold_gap then begin
          last.(b).(k) <- !count;
          cursor.(b) <- cursor.(b) + 1;
          out := { base = b; line = pools.(b).(k) } :: !out;
          incr count
        end)
      (shuffle st block)
  done;
  Array.of_list (List.rev !out)
