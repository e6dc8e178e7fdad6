open Ir

(* Column pruning: narrow each join input to the columns actually needed
   above it, by inserting pass-through projections. Narrower rows mean fewer
   bytes through motions and smaller hash-join build states — a standard
   optimizer preprocessing step (GPORCA prunes unused columns the same way).

   Runs after decorrelation (no Apply operators remain). Set-operation
   children are never narrowed (their columns map positionally), and CTE
   producers keep their full output (consumers choose their own columns). *)

let narrow (child : Ltree.t) (needed : Colref.Set.t) : Ltree.t =
  let out = Ltree.output_cols child in
  let kept = List.filter (fun c -> Colref.Set.mem c needed) out in
  let is_join =
    match child.Ltree.op with Expr.L_join _ -> true | _ -> false
  in
  (* never narrow to zero columns, skip no-op projections, and never wrap a
     join: a projection between two joins would hide the inner join from the
     associativity rule's pattern and freeze the join order *)
  if kept = [] || List.length kept = List.length out || is_join then child
  else
    Ltree.make
      (Expr.L_project
         (List.map (fun c -> { Expr.proj_expr = Expr.Col c; proj_out = c }) kept))
      [ child ]

(* [required] is what the parent consumes from this node's output. *)
let rec prune (t : Ltree.t) ~(required : Colref.Set.t) : Ltree.t =
  match (t.Ltree.op, t.Ltree.children) with
  | Expr.L_join (kind, cond), [ l; r ] ->
      let needed = Colref.Set.union required (Scalar_ops.free_cols cond) in
      let l' = narrow (prune l ~required:needed) needed in
      let r' = narrow (prune r ~required:needed) needed in
      Ltree.make (Expr.L_join (kind, cond)) [ l'; r' ]
  | Expr.L_select pred, [ c ] ->
      let needed = Colref.Set.union required (Scalar_ops.free_cols pred) in
      Ltree.make (Expr.L_select pred) [ prune c ~required:needed ]
  | Expr.L_project projs, [ c ] ->
      (* keep only projections the parent needs (all of them for the root
         projection, whose outputs are the query's outputs) *)
      let kept =
        List.filter (fun p -> Colref.Set.mem p.Expr.proj_out required) projs
      in
      let kept = if kept = [] then projs else kept in
      let needed =
        Scalar_ops.free_cols_of_list (List.map (fun p -> p.Expr.proj_expr) kept)
      in
      Ltree.make (Expr.L_project kept) [ prune c ~required:needed ]
  | Expr.L_gb_agg (phase, keys, aggs), [ c ] ->
      let needed =
        Colref.Set.union
          (Colref.Set.of_list keys)
          (Scalar_ops.free_cols_of_list (List.filter_map (fun a -> a.Expr.agg_arg) aggs))
      in
      Ltree.make (Expr.L_gb_agg (phase, keys, aggs)) [ prune c ~required:needed ]
  | Expr.L_limit (sort, offset, count, slots), [ c ] ->
      let needed =
        Colref.Set.union required (Colref.Set.of_list (Sortspec.cols sort))
      in
      Ltree.make (Expr.L_limit (sort, offset, count, slots)) [ prune c ~required:needed ]
  | Expr.L_cte_anchor id, [ producer; body ] ->
      (* the producer's output is shared by all consumers: keep it intact *)
      let producer' =
        match (producer.Ltree.op, producer.Ltree.children) with
        | Expr.L_cte_producer pid, [ pc ] ->
            let full = Colref.Set.of_list (Ltree.output_cols pc) in
            Ltree.make (Expr.L_cte_producer pid) [ prune pc ~required:full ]
        | _ -> producer
      in
      Ltree.make (Expr.L_cte_anchor id) [ producer'; prune body ~required ]
  | Expr.L_set (kind, cols), children ->
      (* positional columns: children keep their full output *)
      Ltree.make (Expr.L_set (kind, cols))
        (List.map
           (fun c ->
             prune c ~required:(Colref.Set.of_list (Ltree.output_cols c)))
           children)
  | _, children ->
      (* leaves and anything else: recurse with full child outputs *)
      {
        t with
        Ltree.children =
          List.map
            (fun c ->
              prune c ~required:(Colref.Set.of_list (Ltree.output_cols c)))
            children;
      }

let run (t : Ltree.t) ~(output : Colref.t list) : Ltree.t =
  prune t ~required:(Colref.Set.of_list output)
