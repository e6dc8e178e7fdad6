open Ir

(* Logical-tree normalization run before Memo copy-in: constant folding,
   trivial select elimination, adjacent select merging, and pushing filters
   toward the tables they constrain. The Memo's exploration rules can derive
   the push-downs too; normalizing first keeps the initial plan space small,
   exactly like GPORCA's preprocessing step. *)

let fold_tree_constants (t : Ltree.t) : Ltree.t =
  Ltree.map_bottom_up
    (fun node ->
      let fold_op (op : Expr.logical) : Expr.logical =
        match op with
        | Expr.L_select pred -> Expr.L_select (Scalar_eval.fold_constants pred)
        | Expr.L_join (k, cond) ->
            Expr.L_join (k, Scalar_eval.fold_constants cond)
        | Expr.L_project projs ->
            Expr.L_project
              (List.map
                 (fun p ->
                   {
                     p with
                     Expr.proj_expr = Scalar_eval.fold_constants p.Expr.proj_expr;
                   })
                 projs)
        | op -> op
      in
      { node with Ltree.op = fold_op node.Ltree.op })
    t

let merge_selects (t : Ltree.t) : Ltree.t =
  Ltree.map_bottom_up
    (fun node ->
      match (node.Ltree.op, node.Ltree.children) with
      | Expr.L_select p1, [ { Ltree.op = Expr.L_select p2; children = [ c ] } ]
        ->
          Ltree.make
            (Expr.L_select
               (Scalar_ops.conjoin
                  (Scalar_ops.conjuncts p1 @ Scalar_ops.conjuncts p2)))
            [ c ]
      | Expr.L_select (Expr.Const (Datum.Bool true) | Expr.Slot (_, Datum.Bool true)), [ c ]
        ->
          c
      | _ -> node)
    t

(* Push select conjuncts below inner joins when they reference one side only,
   and merge join-key conjuncts into inner-join conditions. *)
let rec push_selects (t : Ltree.t) : Ltree.t =
  let children = List.map push_selects t.Ltree.children in
  let t = { t with Ltree.children } in
  match (t.Ltree.op, t.Ltree.children) with
  | Expr.L_select pred, [ ({ Ltree.op = Expr.L_join (Expr.Inner, cond); children = [ l; r ] } as _join) ] ->
      let lcols = Colref.Set.of_list (Ltree.output_cols l) in
      let rcols = Colref.Set.of_list (Ltree.output_cols r) in
      let conjuncts = Scalar_ops.conjuncts pred in
      let to_l, rest =
        List.partition
          (fun c -> Colref.Set.subset (Scalar_ops.free_cols c) lcols)
          conjuncts
      in
      let to_r, to_join =
        List.partition
          (fun c -> Colref.Set.subset (Scalar_ops.free_cols c) rcols)
          rest
      in
      let wrap side = function
        | [] -> side
        | cs -> Ltree.make (Expr.L_select (Scalar_ops.conjoin cs)) [ side ]
      in
      let l' = push_selects (wrap l to_l) in
      let r' = push_selects (wrap r to_r) in
      let cond' =
        Scalar_ops.conjoin (Scalar_ops.conjuncts cond @ to_join)
      in
      Ltree.make (Expr.L_join (Expr.Inner, cond')) [ l'; r' ]
  | _ -> t

let run (t : Ltree.t) : Ltree.t =
  t |> fold_tree_constants |> merge_selects |> push_selects |> merge_selects
