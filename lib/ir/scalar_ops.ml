(* Operations on scalar expressions. *)

open Expr

let rec to_string (s : scalar) =
  match s with
  | Col c -> Colref.to_string c
  | Const d | Slot (_, d) -> Datum.to_string d
  | Cmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (cmp_to_string op) (to_string b)
  | And cs -> "(" ^ String.concat " AND " (List.map to_string cs) ^ ")"
  | Or cs -> "(" ^ String.concat " OR " (List.map to_string cs) ^ ")"
  | Not c -> "NOT " ^ to_string c
  | Arith (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (arith_to_string op)
        (to_string b)
  | Is_null c -> to_string c ^ " IS NULL"
  | Case (whens, els) ->
      let ws =
        List.map
          (fun (c, v) -> "WHEN " ^ to_string c ^ " THEN " ^ to_string v)
          whens
      in
      let e = match els with None -> "" | Some v -> " ELSE " ^ to_string v in
      "CASE " ^ String.concat " " ws ^ e ^ " END"
  | In_list (e, ds) ->
      to_string e ^ " IN ("
      ^ String.concat ", " (List.map Datum.to_string ds)
      ^ ")"
  | Like (e, pat) -> to_string e ^ " LIKE '" ^ pat ^ "'"
  | Coalesce cs ->
      "COALESCE(" ^ String.concat ", " (List.map to_string cs) ^ ")"
  | Cast (e, ty) -> "CAST(" ^ to_string e ^ " AS " ^ Dtype.to_string ty ^ ")"
  | Subplan sp ->
      let kind =
        match sp.sp_kind with
        | Sp_scalar -> "SubPlan"
        | Sp_exists -> "Exists-SubPlan"
        | Sp_not_exists -> "NotExists-SubPlan"
        | Sp_in e -> to_string e ^ " IN SubPlan"
        | Sp_not_in e -> to_string e ^ " NOT IN SubPlan"
      in
      Printf.sprintf "%s(params=%d)" kind (List.length sp.sp_params)

(* Iterate over immediate sub-expressions. *)
let iter_children f (s : scalar) =
  match s with
  | Col _ | Const _ | Slot _ -> ()
  | Cmp (_, a, b) | Arith (_, a, b) ->
      f a;
      f b
  | And cs | Or cs | Coalesce cs -> List.iter f cs
  | Not c | Is_null c | Cast (c, _) | Like (c, _) | In_list (c, _) -> f c
  | Case (whens, els) ->
      List.iter
        (fun (c, v) ->
          f c;
          f v)
        whens;
      Option.iter f els
  | Subplan sp -> (
      match sp.sp_kind with Sp_in e | Sp_not_in e -> f e | _ -> ())

let rec map (f : scalar -> scalar option) (s : scalar) : scalar =
  match f s with
  | Some replaced -> replaced
  | None -> (
      let r = map f in
      match s with
      | Col _ | Const _ | Slot _ -> s
      | Cmp (op, a, b) -> Cmp (op, r a, r b)
      | Arith (op, a, b) -> Arith (op, r a, r b)
      | And cs -> And (List.map r cs)
      | Or cs -> Or (List.map r cs)
      | Coalesce cs -> Coalesce (List.map r cs)
      | Not c -> Not (r c)
      | Is_null c -> Is_null (r c)
      | Cast (c, ty) -> Cast (r c, ty)
      | Like (c, p) -> Like (r c, p)
      | In_list (c, ds) -> In_list (r c, ds)
      | Case (whens, els) ->
          Case (List.map (fun (c, v) -> (r c, r v)) whens, Option.map r els)
      | Subplan sp -> (
          match sp.sp_kind with
          | Sp_in e -> Subplan { sp with sp_kind = Sp_in (r e) }
          | Sp_not_in e -> Subplan { sp with sp_kind = Sp_not_in (r e) }
          | Sp_scalar | Sp_exists | Sp_not_exists -> s))

(* Columns referenced by an expression. Subplan correlation parameters count
   as outer references (the executor feeds them from the outer row). *)
let free_cols (s : scalar) : Colref.Set.t =
  let acc = ref Colref.Set.empty in
  let rec go s =
    (match s with
    | Col c -> acc := Colref.Set.add c !acc
    | Subplan sp ->
        List.iter
          (fun (outer, _param) -> acc := Colref.Set.add outer !acc)
          sp.sp_params
    | _ -> ());
    iter_children go s
  in
  go s;
  !acc

let free_cols_of_list ss =
  List.fold_left
    (fun acc s -> Colref.Set.union acc (free_cols s))
    Colref.Set.empty ss

(* Replace column references according to [mapping]. *)
let substitute (mapping : Colref.t Colref.Map.t) (s : scalar) : scalar =
  map
    (function
      | Col c -> (
          match Colref.Map.find_opt c mapping with
          | Some c' -> Some (Col c')
          | None -> None)
      | _ -> None)
    s

(* Split a predicate into its top-level conjuncts. *)
let rec conjuncts (s : scalar) : scalar list =
  match s with
  | And cs -> List.concat_map conjuncts cs
  | Const (Datum.Bool true) | Slot (_, Datum.Bool true) -> []
  | s -> [ s ]

let conjoin = function
  | [] -> Const (Datum.Bool true)
  | [ s ] -> s
  | cs -> And cs

(* Extract equi-join key pairs from a condition given the output column sets
   of the two children. Returns (pairs, residual conjuncts). *)
let extract_equi_keys ~outer_cols ~inner_cols (cond : scalar) =
  (* each side must reference at least one column of exactly one input;
     constant-only expressions are residual predicates, never keys *)
  let belongs cols e =
    let f = free_cols e in
    (not (Colref.Set.is_empty f)) && Colref.Set.subset f cols
  in
  let classify c =
    match c with
    | Cmp (Eq, a, b) ->
        if belongs outer_cols a && belongs inner_cols b then `Key (a, b)
        else if belongs inner_cols a && belongs outer_cols b then `Key (b, a)
        else `Residual c
    | c -> `Residual c
  in
  List.fold_left
    (fun (keys, residual) c ->
      match classify c with
      | `Key (a, b) -> ((a, b) :: keys, residual)
      | `Residual c -> (keys, c :: residual))
    ([], [])
    (conjuncts cond)
  |> fun (keys, residual) -> (List.rev keys, List.rev residual)

(* Static type of an expression. *)
let rec type_of (s : scalar) : Dtype.t =
  match s with
  | Col c -> Colref.ty c
  | Const d | Slot (_, d) -> (
      match Datum.type_of d with Some t -> t | None -> Dtype.Int)
  | Cmp _ | And _ | Or _ | Not _ | Is_null _ | Like _ | In_list _ -> Dtype.Bool
  | Arith (Div, _, _) -> Dtype.Float
  | Arith (_, a, b) ->
      if type_of a = Dtype.Float || type_of b = Dtype.Float then Dtype.Float
      else type_of a
  | Case (whens, els) -> (
      match (whens, els) with
      | (_, v) :: _, _ -> type_of v
      | [], Some v -> type_of v
      | [], None -> Dtype.Int)
  | Coalesce (c :: _) -> type_of c
  | Coalesce [] -> Dtype.Int
  | Cast (_, ty) -> ty
  | Subplan sp -> (
      match sp.sp_kind with
      | Sp_scalar -> (
          match sp.sp_plan.pschema with
          | [ c ] -> Colref.ty c
          | _ -> Dtype.Int)
      | Sp_exists | Sp_not_exists | Sp_in _ | Sp_not_in _ -> Dtype.Bool)

let contains_subplan (s : scalar) =
  let found = ref false in
  let rec go s =
    (match s with Subplan _ -> found := true | _ -> ());
    iter_children go s
  in
  go s;
  !found

(* Structural fingerprint used by the Memo's duplicate detection. *)
let rec fingerprint (s : scalar) : int =
  let h xs = Hashtbl.hash xs in
  match s with
  | Col c -> h (0, Colref.id c)
  | Const d | Slot (_, d) -> h (1, Datum.hash d)
  | Cmp (op, a, b) -> h (2, op, fingerprint a, fingerprint b)
  | And cs -> h (3, List.map fingerprint cs)
  | Or cs -> h (4, List.map fingerprint cs)
  | Not c -> h (5, fingerprint c)
  | Arith (op, a, b) -> h (6, op, fingerprint a, fingerprint b)
  | Is_null c -> h (7, fingerprint c)
  | Case (whens, els) ->
      h
        ( 8,
          List.map (fun (c, v) -> (fingerprint c, fingerprint v)) whens,
          Option.map fingerprint els )
  | In_list (c, ds) -> h (9, fingerprint c, List.map Datum.hash ds)
  | Like (c, p) -> h (10, fingerprint c, p)
  | Coalesce cs -> h (11, List.map fingerprint cs)
  | Cast (c, ty) -> h (12, fingerprint c, ty)
  | Subplan sp -> h (13, Hashtbl.hash sp)

(* [s] with every slot constant turned back into a plain one. *)
let erase_slots s =
  map (function Slot (_, d) -> Some (Const d) | _ -> None) s

(* The slots of [s] (negative for folded constants), in evaluation order. *)
let slots (s : scalar) : int list =
  let acc = ref [] in
  let rec go s =
    (match s with Slot (k, _) -> acc := k :: !acc | _ -> ());
    iter_children go s
  in
  go s;
  List.rev !acc

let equal (a : scalar) (b : scalar) = Stdlib.compare a b = 0

(* LIKE pattern matcher shared by the executor and selectivity estimation. *)
let like_match ~pattern text =
  let np = String.length pattern and nt = String.length text in
  (* dp.(i) = pattern[0..i) matches text[0..j) for current j *)
  let prev = Array.make (np + 1) false in
  let cur = Array.make (np + 1) false in
  prev.(0) <- true;
  for i = 1 to np do
    prev.(i) <- prev.(i - 1) && pattern.[i - 1] = '%'
  done;
  for j = 1 to nt do
    cur.(0) <- false;
    for i = 1 to np do
      cur.(i) <-
        (match pattern.[i - 1] with
        | '%' -> cur.(i - 1) || prev.(i)
        | '_' -> prev.(i - 1)
        | c -> prev.(i - 1) && c = text.[j - 1])
    done;
    Array.blit cur 0 prev 0 (np + 1)
  done;
  prev.(np)
