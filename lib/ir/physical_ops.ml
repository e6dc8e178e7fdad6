(* Operations on physical operators: arity, output schema, derived physical
   properties given children's derived properties, and printing. *)

open Expr

let arity = function
  | P_table_scan _ | P_index_scan _ | P_cte_consumer _ | P_const_table _ -> 0
  | P_filter _ | P_project _ | P_hash_agg _ | P_stream_agg _ | P_sort _
  | P_limit _ | P_motion _ | P_cte_producer _ | P_partition_selector _
  | P_window _ ->
      1
  | P_hash_join _ | P_merge_join _ | P_nl_join _ | P_sequence _ -> 2
  | P_set _ -> 2

let output_cols (op : physical) (children : Colref.t list list) : Colref.t list
    =
  let child n =
    match List.nth_opt children n with
    | Some c -> c
    | None -> Gpos.Gpos_error.internal "physical op missing child %d" n
  in
  match op with
  | P_table_scan (td, _, _) -> td.Table_desc.cols
  | P_index_scan (td, _, _, _, _) -> td.Table_desc.cols
  | P_filter _ | P_sort _ | P_limit _ | P_motion _ | P_cte_producer _
  | P_partition_selector _ ->
      child 0
  | P_project projs -> List.map (fun p -> p.proj_out) projs
  | P_hash_join ((Inner | Left_outer | Full_outer), _, _)
  | P_merge_join ((Inner | Left_outer | Full_outer), _, _)
  | P_nl_join ((Inner | Left_outer | Full_outer), _) ->
      child 0 @ child 1
  | P_hash_join ((Semi | Anti_semi), _, _)
  | P_merge_join ((Semi | Anti_semi), _, _)
  | P_nl_join ((Semi | Anti_semi), _) ->
      child 0
  | P_hash_agg (_, keys, aggs) | P_stream_agg (_, keys, aggs) ->
      keys @ List.map (fun a -> a.agg_out) aggs
  | P_window (_, _, wfuncs) -> child 0 @ List.map (fun w -> w.wf_out) wfuncs
  | P_sequence _ -> child 1
  | P_cte_consumer (_, cols) -> cols
  | P_set (_, cols) -> cols
  | P_const_table (cols, _) -> cols

(* Distribution of a base table as a delivered property. *)
let table_dist (td : Table_desc.t) : Props.dist =
  match td.Table_desc.dist with
  | Table_desc.Dist_hash cols -> Props.D_hashed cols
  | Table_desc.Dist_random -> Props.D_random
  | Table_desc.Dist_replicated -> Props.D_replicated

(* Does a column survive a projection unchanged? (Pass-through projections
   reuse the input colref as proj_out.) *)
let passes_projection projs col =
  List.exists
    (fun p ->
      match p.proj_expr with
      | Col c -> Colref.equal c col && Colref.equal p.proj_out col
      | _ -> false)
    projs

let dist_after_projection projs (d : Props.dist) : Props.dist =
  match d with
  | Props.D_hashed cols when List.for_all (passes_projection projs) cols -> d
  | Props.D_hashed _ -> Props.D_random
  | d -> d

let order_after_projection projs (o : Sortspec.t) : Sortspec.t =
  let rec keep = function
    | [] -> []
    | (i : Sortspec.item) :: rest ->
        if passes_projection projs i.col then i :: keep rest else []
  in
  keep o

(* Derived properties of [op] given its children's derived properties
   (paper §4.1: each operator combines child properties with local behavior,
   e.g. a hash join delivers the probe side's stream order). *)
let derive (op : physical) (children : Props.derived list) : Props.derived =
  let child n =
    match List.nth_opt children n with
    | Some d -> d
    | None -> Gpos.Gpos_error.internal "derive: missing child %d" n
  in
  match op with
  | P_table_scan (td, _, _) ->
      { Props.ddist = table_dist td; dorder = Sortspec.empty }
  | P_index_scan (td, idx, _, _, _) ->
      {
        Props.ddist = table_dist td;
        dorder = [ Sortspec.asc idx.Table_desc.idx_col ];
      }
  | P_filter _ | P_cte_producer _ | P_partition_selector _ -> child 0
  | P_limit (sort, _, _, _) ->
      (* limit preserves its declared order (it runs after the sort) *)
      let c = child 0 in
      if Sortspec.is_empty sort then c else { c with Props.dorder = sort }
  | P_project projs ->
      let c = child 0 in
      {
        Props.ddist = dist_after_projection projs c.Props.ddist;
        dorder = order_after_projection projs c.Props.dorder;
      }
  | P_hash_join (kind, keys, _) ->
      let o = child 0 and i = child 1 in
      let ddist : Props.dist =
        match (o.Props.ddist, i.Props.ddist) with
        | Props.D_hashed _, Props.D_hashed _ ->
            (* co-located: result follows the outer keys when they are columns *)
            let outer_key_cols =
              List.filter_map
                (fun (k, _) -> match k with Col c -> Some c | _ -> None)
                keys
            in
            if List.length outer_key_cols = List.length keys && keys <> [] then
              Props.D_hashed outer_key_cols
            else Props.D_random
        | d, Props.D_replicated -> d
        | Props.D_replicated, d when kind = Inner -> d
        | Props.D_singleton, Props.D_singleton -> Props.D_singleton
        | _ -> Props.D_random
      in
      (* probe (outer) side streams through the hash table in order *)
      { Props.ddist; dorder = o.Props.dorder }
  | P_merge_join (kind, keys, _) ->
      let o = child 0 and i = child 1 in
      let ddist : Props.dist =
        match (o.Props.ddist, i.Props.ddist) with
        | Props.D_hashed _, Props.D_hashed _ ->
            Props.D_hashed (List.map fst keys)
        | d, Props.D_replicated -> d
        | Props.D_replicated, d when kind = Inner -> d
        | Props.D_singleton, Props.D_singleton -> Props.D_singleton
        | _ -> Props.D_random
      in
      let dorder = List.map (fun (ok, _) -> Sortspec.asc ok) keys in
      { Props.ddist; dorder }
  | P_nl_join (kind, _) ->
      let o = child 0 and i = child 1 in
      let ddist : Props.dist =
        match (o.Props.ddist, i.Props.ddist) with
        | d, Props.D_replicated -> d
        | Props.D_replicated, d when kind = Inner -> d
        | Props.D_singleton, Props.D_singleton -> Props.D_singleton
        | _ -> Props.D_random
      in
      { Props.ddist; dorder = o.Props.dorder }
  | P_hash_agg (_, _, _) ->
      let c = child 0 in
      { Props.ddist = c.Props.ddist; dorder = Sortspec.empty }
  | P_stream_agg (_, _, _) ->
      (* stream agg emits groups in input (group-key) order *)
      child 0
  | P_window (_, _, _) ->
      (* rows pass through in input order, with columns appended *)
      child 0
  | P_sort spec ->
      let c = child 0 in
      { Props.ddist = c.Props.ddist; dorder = spec }
  | P_motion m -> (
      let c = child 0 in
      match m with
      | Gather -> { Props.ddist = Props.D_singleton; dorder = Sortspec.empty }
      | Gather_merge s -> { Props.ddist = Props.D_singleton; dorder = s }
      | Redistribute es ->
          let cols =
            List.filter_map (function Col c -> Some c | _ -> None) es
          in
          let d : Props.dist =
            if List.length cols = List.length es && es <> [] then
              Props.D_hashed cols
            else Props.D_random
          in
          { Props.ddist = d; dorder = Sortspec.empty }
      | Broadcast ->
          ignore c;
          { Props.ddist = Props.D_replicated; dorder = Sortspec.empty })
  | P_sequence _ -> child 1
  | P_cte_consumer _ ->
      (* conservative: alignment with the producer is not tracked *)
      { Props.ddist = Props.D_random; dorder = Sortspec.empty }
  | P_set (_, cols) -> (
      (* aligned-hash set ops deliver hash on output columns when all children
         are hash-distributed; otherwise random *)
      match children with
      | c :: rest
        when List.for_all
               (fun (d : Props.derived) ->
                 match d.Props.ddist with Props.D_hashed _ -> true | _ -> false)
               (c :: rest) ->
          { Props.ddist = Props.D_hashed cols; dorder = Sortspec.empty }
      | c :: rest
        when List.for_all
               (fun (d : Props.derived) -> d.Props.ddist = Props.D_singleton)
               (c :: rest) ->
          { Props.ddist = Props.D_singleton; dorder = Sortspec.empty }
      | _ -> { Props.ddist = Props.D_random; dorder = Sortspec.empty })
  | P_const_table _ ->
      { Props.ddist = Props.D_singleton; dorder = Sortspec.empty }

let motion_to_string = function
  | Gather -> "Gather"
  | Gather_merge s -> "GatherMerge" ^ Sortspec.to_string s
  | Redistribute [] -> "Redistribute(random)"
  | Redistribute es ->
      "Redistribute("
      ^ String.concat "," (List.map Scalar_ops.to_string es)
      ^ ")"
  | Broadcast -> "Broadcast"

let to_string (op : physical) =
  match op with
  | P_table_scan (td, parts, filter) ->
      let p =
        match parts with
        | None -> ""
        | Some ids -> Printf.sprintf " parts=[%s]" (String.concat "," (List.map string_of_int ids))
      in
      let f =
        match filter with
        | None -> ""
        | Some s -> " filter=" ^ Scalar_ops.to_string s
      in
      Printf.sprintf "TableScan(%s)%s%s" td.Table_desc.name p f
  | P_index_scan (td, idx, op, e, residual) ->
      let r =
        match residual with
        | None -> ""
        | Some s -> " filter=" ^ Scalar_ops.to_string s
      in
      Printf.sprintf "IndexScan(%s.%s %s %s)%s" td.Table_desc.name
        idx.Table_desc.idx_name (cmp_to_string op) (Scalar_ops.to_string e) r
  | P_filter pred -> "Filter(" ^ Scalar_ops.to_string pred ^ ")"
  | P_project projs ->
      "Project("
      ^ String.concat ", " (List.map Logical_ops.proj_to_string projs)
      ^ ")"
  | P_hash_join (k, keys, residual) ->
      let ks =
        List.map
          (fun (a, b) ->
            Scalar_ops.to_string a ^ "=" ^ Scalar_ops.to_string b)
          keys
      in
      let r =
        match residual with
        | None -> ""
        | Some s -> " residual=" ^ Scalar_ops.to_string s
      in
      Printf.sprintf "%sHashJoin(%s)%s" (join_kind_to_string k)
        (String.concat " AND " ks) r
  | P_merge_join (k, keys, residual) ->
      let ks =
        List.map
          (fun (a, b) -> Colref.to_string a ^ "=" ^ Colref.to_string b)
          keys
      in
      let r =
        match residual with
        | None -> ""
        | Some s -> " residual=" ^ Scalar_ops.to_string s
      in
      Printf.sprintf "%sMergeJoin(%s)%s" (join_kind_to_string k)
        (String.concat " AND " ks) r
  | P_nl_join (k, cond) ->
      Printf.sprintf "%sNLJoin(%s)" (join_kind_to_string k)
        (Scalar_ops.to_string cond)
  | P_hash_agg (phase, keys, aggs) ->
      Printf.sprintf "%sHashAgg([%s], [%s])" (agg_phase_to_string phase)
        (String.concat ", " (List.map Colref.to_string keys))
        (String.concat ", " (List.map Logical_ops.agg_to_string aggs))
  | P_stream_agg (phase, keys, aggs) ->
      Printf.sprintf "%sStreamAgg([%s], [%s])" (agg_phase_to_string phase)
        (String.concat ", " (List.map Colref.to_string keys))
        (String.concat ", " (List.map Logical_ops.agg_to_string aggs))
  | P_window (partition, order, wfuncs) ->
      Logical_ops.window_to_string partition order wfuncs
  | P_sort spec -> "Sort" ^ Sortspec.to_string spec
  | P_limit (sort, offset, count, _) ->
      Printf.sprintf "Limit(%s, offset=%d, count=%s)" (Sortspec.to_string sort)
        offset
        (match count with None -> "all" | Some c -> string_of_int c)
  | P_motion m -> motion_to_string m
  | P_cte_producer id -> Printf.sprintf "CTEProducer(%d)" id
  | P_cte_consumer (id, _) -> Printf.sprintf "CTEConsumer(%d)" id
  | P_sequence id -> Printf.sprintf "Sequence(cte=%d)" id
  | P_set (k, _) -> set_kind_to_string k
  | P_const_table (cols, rows) ->
      Printf.sprintf "ConstTable(%d cols, %d rows)" (List.length cols)
        (List.length rows)
  | P_partition_selector parts ->
      Printf.sprintf "PartitionSelector([%s])"
        (String.concat "," (List.map string_of_int parts))

(* Coarse operator class for per-class cardinality-accuracy aggregation
   (lib/prov): every constructor maps to a stable kebab-case id, with motions
   subdivided by kind (their row behaviour differs: a broadcast multiplies
   rows by the segment count, a gather only relocates them). *)
let class_name (op : physical) =
  match op with
  | P_table_scan _ -> "table-scan"
  | P_index_scan _ -> "index-scan"
  | P_filter _ -> "filter"
  | P_project _ -> "project"
  | P_hash_join _ -> "hash-join"
  | P_merge_join _ -> "merge-join"
  | P_nl_join _ -> "nl-join"
  | P_window _ -> "window"
  | P_hash_agg _ -> "hash-agg"
  | P_stream_agg _ -> "stream-agg"
  | P_sort _ -> "sort"
  | P_limit _ -> "limit"
  | P_motion Gather -> "motion-gather"
  | P_motion (Gather_merge _) -> "motion-gather-merge"
  | P_motion (Redistribute _) -> "motion-redistribute"
  | P_motion Broadcast -> "motion-broadcast"
  | P_cte_producer _ -> "cte-producer"
  | P_cte_consumer _ -> "cte-consumer"
  | P_sequence _ -> "sequence"
  | P_set _ -> "set"
  | P_const_table _ -> "const-table"
  | P_partition_selector _ -> "partition-selector"

(* Rewrite every scalar of the operator's payload with [f]. *)
let map_scalars f (op : physical) : physical =
  let fo = Option.map f in
  match op with
  | P_table_scan (td, parts, filter) -> P_table_scan (td, parts, fo filter)
  | P_index_scan (td, idx, cmp, key, residual) ->
      P_index_scan (td, idx, cmp, f key, fo residual)
  | P_filter pred -> P_filter (f pred)
  | P_project projs ->
      P_project (List.map (fun p -> { p with proj_expr = f p.proj_expr }) projs)
  | P_hash_join (k, keys, residual) ->
      P_hash_join (k, List.map (fun (a, b) -> (f a, f b)) keys, fo residual)
  | P_merge_join (k, keys, residual) -> P_merge_join (k, keys, fo residual)
  | P_nl_join (k, pred) -> P_nl_join (k, f pred)
  | P_window (partition, order, wfuncs) ->
      P_window
        (partition, order, List.map (fun w -> { w with wf_arg = fo w.wf_arg }) wfuncs)
  | P_hash_agg (phase, keys, aggs) ->
      P_hash_agg
        (phase, keys, List.map (fun a -> { a with agg_arg = fo a.agg_arg }) aggs)
  | P_stream_agg (phase, keys, aggs) ->
      P_stream_agg
        (phase, keys, List.map (fun a -> { a with agg_arg = fo a.agg_arg }) aggs)
  | P_motion (Redistribute es) -> P_motion (Redistribute (List.map f es))
  | P_motion _ | P_sort _ | P_limit _ | P_cte_producer _ | P_cte_consumer _
  | P_sequence _ | P_set _ | P_const_table _ | P_partition_selector _ ->
      op

(* Every scalar of the operator's payload, in [map_scalars] order. *)
let scalars (op : physical) : scalar list =
  let acc = ref [] in
  ignore (map_scalars (fun s -> acc := s :: !acc; s) op);
  List.rev !acc

let fingerprint (op : physical) : int = Hashtbl.hash op

let equal (a : physical) (b : physical) = Stdlib.compare a b = 0
