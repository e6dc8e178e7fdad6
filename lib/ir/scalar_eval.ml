(* Scalar expression evaluation with SQL three-valued logic.

   The evaluator is parameterized by an environment resolving column
   references and by a subplan executor callback (used by the legacy
   Planner's correlated SubPlan nodes; the Orca path never needs it). *)

open Expr

type env = Colref.t -> Datum.t

exception No_subplan_executor

(* [subplan] receives the subplan and the current environment (for
   correlation parameters) and returns the inner plan's result rows. *)
type subplan_exec = subplan -> env -> Datum.t array list

let no_subplan : subplan_exec = fun _ _ -> raise No_subplan_executor

let bool_of = function
  | Datum.Bool b -> Some b
  | Datum.Null -> None
  | d ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Exec_error
        "expected boolean, got %s" (Datum.to_string d)

let of_bool3 = function
  | Some true -> Datum.Bool true
  | Some false -> Datum.Bool false
  | None -> Datum.Null

let cmp_eval op a b =
  match Datum.sql_compare a b with
  | None -> Datum.Null
  | Some c ->
      let r =
        match op with
        | Eq -> c = 0
        | Neq -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
      in
      Datum.Bool r

let arith_tag = function
  | Add -> `Add
  | Sub -> `Sub
  | Mul -> `Mul
  | Div -> `Div
  | Mod -> `Mod

let rec eval ?(subplan = no_subplan) (env : env) (s : scalar) : Datum.t =
  let e x = eval ~subplan env x in
  match s with
  | Col c -> env c
  | Const d | Slot (_, d) -> d
  | Cmp (op, a, b) -> cmp_eval op (e a) (e b)
  | And cs ->
      (* three-valued AND: false dominates, then null *)
      let rec go saw_null = function
        | [] -> if saw_null then Datum.Null else Datum.Bool true
        | c :: rest -> (
            match bool_of (e c) with
            | Some false -> Datum.Bool false
            | Some true -> go saw_null rest
            | None -> go true rest)
      in
      go false cs
  | Or cs ->
      let rec go saw_null = function
        | [] -> if saw_null then Datum.Null else Datum.Bool false
        | c :: rest -> (
            match bool_of (e c) with
            | Some true -> Datum.Bool true
            | Some false -> go saw_null rest
            | None -> go true rest)
      in
      go false cs
  | Not c -> of_bool3 (Option.map not (bool_of (e c)))
  | Arith (op, a, b) -> Datum.arith (arith_tag op) (e a) (e b)
  | Is_null c -> Datum.Bool (Datum.is_null (e c))
  | Case (whens, els) ->
      let rec go = function
        | [] -> ( match els with Some v -> e v | None -> Datum.Null)
        | (cond, v) :: rest -> (
            match bool_of (e cond) with Some true -> e v | _ -> go rest)
      in
      go whens
  | In_list (x, ds) -> (
      let v = e x in
      if Datum.is_null v then Datum.Null
      else
        let found = List.exists (fun d -> Datum.equal d v) ds in
        if found then Datum.Bool true
        else if List.exists Datum.is_null ds then Datum.Null
        else Datum.Bool false)
  | Like (x, pat) -> (
      match e x with
      | Datum.Null -> Datum.Null
      | Datum.String s -> Datum.Bool (Scalar_ops.like_match ~pattern:pat s)
      | d -> Datum.Bool (Scalar_ops.like_match ~pattern:pat (Datum.to_string d)))
  | Coalesce cs ->
      let rec go = function
        | [] -> Datum.Null
        | c :: rest ->
            let v = e c in
            if Datum.is_null v then go rest else v
      in
      go cs
  | Cast (c, ty) -> Datum.cast (e c) ty
  | Subplan sp -> eval_subplan ~subplan env sp

and eval_subplan ~subplan env (sp : subplan) : Datum.t =
  let rows = subplan sp env in
  match sp.sp_kind with
  | Sp_scalar -> (
      match rows with
      | [] -> Datum.Null
      | [ row ] when Array.length row >= 1 -> row.(0)
      | row :: _ when Array.length row >= 1 ->
          (* multiple rows from a scalar subquery: SQL would error; we take
             the first row, as PostgreSQL's pre-9 planner did for SubLinks *)
          row.(0)
      | _ -> Datum.Null)
  | Sp_exists -> Datum.Bool (rows <> [])
  | Sp_not_exists -> Datum.Bool (rows = [])
  | Sp_in tested | Sp_not_in tested -> (
      let v = eval ~subplan env tested in
      let inner_vals =
        List.filter_map
          (fun r -> if Array.length r >= 1 then Some r.(0) else None)
          rows
      in
      let membership =
        if Datum.is_null v then Datum.Null
        else if List.exists (fun d -> Datum.equal d v) inner_vals then
          Datum.Bool true
        else if List.exists Datum.is_null inner_vals then Datum.Null
        else Datum.Bool false
      in
      match sp.sp_kind with
      | Sp_not_in _ -> of_bool3 (Option.map not (bool_of membership))
      | _ -> membership)

(* Predicate evaluation: NULL counts as not passing. *)
let eval_pred ?subplan env s =
  match eval ?subplan env s with Datum.Bool true -> true | _ -> false

(* Constant folding: evaluate subexpressions with no column references. A
   value computed from a literal of the request is marked as folded from
   its first slot, so the plan cache never rebinds that slot; the other
   literals folded into it leave the expression altogether. *)
let fold_constants (s : scalar) : scalar =
  Scalar_ops.map
    (fun sub ->
      match sub with
      | Const _ | Slot _ | Col _ -> None
      | Subplan _ -> None
      | _ ->
          if
            Colref.Set.is_empty (Scalar_ops.free_cols sub)
            && not (Scalar_ops.contains_subplan sub)
          then
            let v = eval (fun _ -> Datum.Null) sub in
            match Scalar_ops.slots sub with
            | [] -> Some (Const v)
            | k :: _ -> Some (Slot (-abs k, v))
          else None)
    s
