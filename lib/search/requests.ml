open Ir

(* Request schedules (paper §4.1 step 4, Fig. 7): for an incoming optimization
   request, each physical operator proposes alternative vectors of child
   requests. E.g. a hash join can co-locate both children on the join keys,
   broadcast its inner side, broadcast its outer side (inner joins only), or
   gather both children to the master. Orca "allows extending each operator
   with any number of possible optimization alternatives and cleanly isolates
   these alternatives through the property enforcement framework". *)

let any = Props.any_req

let key_cols keys =
  let outer =
    List.filter_map
      (fun (k, _) -> match k with Expr.Col c -> Some c | _ -> None)
      keys
  in
  let inner =
    List.filter_map
      (fun (_, k) -> match k with Expr.Col c -> Some c | _ -> None)
      keys
  in
  if List.length outer = List.length keys && List.length inner = List.length keys
  then Some (outer, inner)
  else None

(* Distribution alternatives for a binary join. *)
let join_dist_alternatives (kind : Expr.join_kind) ~(hash_keys : (Colref.t list * Colref.t list) option) :
    (Props.dist_req * Props.dist_req) list =
  let colocated =
    match hash_keys with
    | Some (ocols, icols) when ocols <> [] ->
        [ (Props.Req_hashed ocols, Props.Req_hashed icols) ]
    | _ -> []
  in
  let broadcast_inner =
    match kind with
    | Expr.Inner | Expr.Left_outer | Expr.Semi | Expr.Anti_semi ->
        [ (Props.Req_non_singleton, Props.Req_replicated) ]
    | Expr.Full_outer -> []
  in
  let broadcast_outer =
    match kind with
    | Expr.Inner -> [ (Props.Req_replicated, Props.Req_non_singleton) ]
    | _ -> []
  in
  let singleton = [ (Props.Req_singleton, Props.Req_singleton) ] in
  colocated @ broadcast_inner @ broadcast_outer @ singleton

(* Whether [alternatives] reads the incoming request: only the operators
   that pass it through to a child do. *)
let passes_request (op : Expr.physical) =
  match op with
  | Expr.P_filter _ | Expr.P_project _ | Expr.P_sequence _ -> true
  | _ -> false

(* Child request vectors for [op] under incoming request [req].
   [child_out_cols] lists each child group's output columns. *)
let alternatives (op : Expr.physical) ~(req : Props.req)
    ~(child_out_cols : Colref.t list list) : Props.req list list =
  match op with
  | Expr.P_table_scan _ | Expr.P_index_scan _ | Expr.P_cte_consumer _
  | Expr.P_const_table _ ->
      [ [] ]
  | Expr.P_filter _ ->
      (* filters preserve order and distribution: pass the request through *)
      [ [ req ] ]
  | Expr.P_project projs ->
      (* pass through only what survives the projection *)
      let dist_ok =
        match req.Props.rdist with
        | Props.Req_hashed cols ->
            List.for_all (Physical_ops.passes_projection projs) cols
        | _ -> true
      in
      let order_ok =
        List.for_all
          (fun (i : Sortspec.item) ->
            Physical_ops.passes_projection projs i.Sortspec.col)
          req.Props.rorder
      in
      let passed =
        {
          Props.rdist = (if dist_ok then req.Props.rdist else Props.Any_dist);
          rorder = (if order_ok then req.Props.rorder else Sortspec.empty);
        }
      in
      (* also offer enforcing *above* the projection: when it narrows the
         rows, sorting/moving the projected stream is cheaper than moving the
         wide input *)
      if Props.req_equal passed any then [ [ any ] ]
      else [ [ passed ]; [ any ] ]
  | Expr.P_hash_join (kind, keys, _) ->
      join_dist_alternatives kind ~hash_keys:(key_cols keys)
      |> List.map (fun (o, i) -> [ Props.req_dist o; Props.req_dist i ])
  | Expr.P_merge_join (kind, keys, _) ->
      let order side =
        List.map (fun (o, i) -> Sortspec.asc (side (o, i))) keys
      in
      let outer_order = order fst and inner_order = order snd in
      let hash_keys = Some (List.map fst keys, List.map snd keys) in
      join_dist_alternatives kind ~hash_keys
      |> List.filter_map (fun (o, i) ->
             (* merge join needs both inputs sorted; broadcast variants break
                the pairing of sorted runs only for non-inner joins *)
             match (o, i) with
             | Props.Req_replicated, _ | _, Props.Req_replicated
               when kind <> Expr.Inner ->
                 None
             | _ ->
                 Some
                   [
                     { Props.rdist = o; rorder = outer_order };
                     { Props.rdist = i; rorder = inner_order };
                   ])
  | Expr.P_nl_join (kind, _) ->
      let broadcast_inner =
        match kind with
        | Expr.Inner | Expr.Left_outer | Expr.Semi | Expr.Anti_semi ->
            [ [ Props.req_dist Props.Req_non_singleton;
                Props.req_dist Props.Req_replicated ] ]
        | Expr.Full_outer -> []
      in
      let broadcast_outer =
        match kind with
        | Expr.Inner ->
            [ [ Props.req_dist Props.Req_replicated;
                Props.req_dist Props.Req_non_singleton ] ]
        | _ -> []
      in
      let singleton =
        [ [ Props.req_dist Props.Req_singleton;
            Props.req_dist Props.Req_singleton ] ]
      in
      broadcast_inner @ broadcast_outer @ singleton
  | Expr.P_hash_agg (phase, keys, _) | Expr.P_stream_agg (phase, keys, _) ->
      let order =
        match op with
        | Expr.P_stream_agg _ -> List.map Sortspec.asc keys
        | _ -> Sortspec.empty
      in
      let dists =
        match (phase, keys) with
        | Expr.Partial, _ -> [ Props.Any_dist ]
        | (Expr.One_phase | Expr.Final), [] -> [ Props.Req_singleton ]
        | (Expr.One_phase | Expr.Final), keys ->
            [ Props.Req_hashed keys; Props.Req_singleton ]
      in
      List.map (fun d -> [ { Props.rdist = d; rorder = order } ]) dists
  | Expr.P_window (partition, worder, _) ->
      (* each partition must be complete on one segment, sorted by the
         partition keys then the window order *)
      let order = List.map Sortspec.asc partition @ worder in
      let dists =
        match partition with
        | [] -> [ Props.Req_singleton ]
        | cols -> [ Props.Req_hashed cols; Props.Req_singleton ]
      in
      List.map (fun d -> [ { Props.rdist = d; rorder = order } ]) dists
  | Expr.P_sort _ -> [ [ any ] ]
  | Expr.P_limit (sort, _, _, _) ->
      (* a global limit runs on the master over ordered input *)
      [ [ { Props.rdist = Props.Req_singleton; rorder = sort } ] ]
  | Expr.P_motion _ -> [ [ any ] ]
  | Expr.P_cte_producer _ -> [ [ any ] ]
  | Expr.P_sequence _ ->
      (* producer first (any properties), then the body under the incoming
         request *)
      [ [ any; req ] ]
  | Expr.P_set (kind, _) -> (
      match kind with
      | Expr.Union_all -> [ List.map (fun _ -> any) child_out_cols ]
      | Expr.Union_distinct | Expr.Intersect | Expr.Except ->
          let aligned =
            List.map
              (fun cols -> Props.req_dist (Props.Req_hashed cols))
              child_out_cols
          in
          let singleton =
            List.map (fun _ -> Props.req_dist Props.Req_singleton) child_out_cols
          in
          [ aligned; singleton ])
  | Expr.P_partition_selector _ -> [ [ any ] ]
