open Ir

(* Static partition elimination (paper §7.2.2 "Partition Elimination",
   simplified from [2]): given a predicate over a range-partitioned table's
   partitioning column, compute the partitions that can contain qualifying
   rows. Returns [None] when no pruning is possible. *)

let prune (td : Table_desc.t) (pred : Expr.scalar) : int list option =
  match td.Table_desc.part_col with
  | None -> None
  | Some pc ->
      let all_ids = List.map (fun p -> p.Table_desc.part_id) td.Table_desc.parts in
      let constrain_conjunct ids c =
        let keep_ids parts =
          List.filter
            (fun id ->
              List.exists (fun p -> p.Table_desc.part_id = id) parts)
            ids
        in
        match c with
        | Expr.Cmp (op, Expr.Col col, (Expr.Const v | Expr.Slot (_, v)))
          when Colref.equal col pc && not (Datum.is_null v) -> (
            match op with
            | Expr.Eq -> Some (keep_ids (Table_desc.parts_matching_value td v))
            | Expr.Lt | Expr.Le ->
                Some
                  (keep_ids
                     (Table_desc.parts_matching_range td ~lo:None ~hi:(Some v)))
            | Expr.Gt | Expr.Ge ->
                Some
                  (keep_ids
                     (Table_desc.parts_matching_range td ~lo:(Some v) ~hi:None))
            | Expr.Neq -> None)
        | Expr.Cmp (op, (Expr.Const v | Expr.Slot (_, v)), Expr.Col col)
          when Colref.equal col pc && not (Datum.is_null v) -> (
            match Expr.flip_cmp op with
            | Expr.Eq -> Some (keep_ids (Table_desc.parts_matching_value td v))
            | Expr.Lt | Expr.Le ->
                Some
                  (keep_ids
                     (Table_desc.parts_matching_range td ~lo:None ~hi:(Some v)))
            | Expr.Gt | Expr.Ge ->
                Some
                  (keep_ids
                     (Table_desc.parts_matching_range td ~lo:(Some v) ~hi:None))
            | Expr.Neq -> None)
        | Expr.In_list (Expr.Col col, vs) when Colref.equal col pc ->
            let parts =
              List.concat_map (Table_desc.parts_matching_value td) vs
            in
            Some (keep_ids parts)
        | _ -> None
      in
      let pruned, any =
        List.fold_left
          (fun (ids, any) c ->
            match constrain_conjunct ids c with
            | Some ids' -> (ids', true)
            | None -> (ids, any))
          (all_ids, false)
          (Scalar_ops.conjuncts pred)
      in
      if any then Some (List.sort_uniq Int.compare pruned) else None
