open Ir

(* Reference evaluator: executes *logical* trees directly, single-node, with
   textbook semantics (correlated Apply by literal re-evaluation). It is the
   oracle for differential testing — every optimized, distributed plan must
   produce the same bag of rows as this evaluator on the same data. *)

let table_rows (cluster : Cluster.t) (td : Table_desc.t) : Datum.t array list =
  let data = Cluster.table cluster td.Table_desc.name in
  (* replicated tables store a full copy per segment: take one *)
  match td.Table_desc.dist with
  | Table_desc.Dist_replicated -> data.Cluster.segments.(0)
  | _ -> List.concat (Array.to_list data.Cluster.segments)

let env_of ~(params : Datum.t Colref.Map.t) (schema : Colref.t list)
    (row : Datum.t array) : Scalar_eval.env =
  let arr = Array.of_list schema in
  fun col ->
    let rec find i =
      if i >= Array.length arr then
        match Colref.Map.find_opt col params with
        | Some d -> d
        | None ->
            Gpos.Gpos_error.raise_error Gpos.Gpos_error.Exec_error
              "naive: unbound column %s" (Colref.to_string col)
      else if Colref.equal arr.(i) col then row.(i)
      else find (i + 1)
    in
    find 0

let rec eval (cluster : Cluster.t) ~(params : Datum.t Colref.Map.t)
    ~(cte : (int, Datum.t array list) Hashtbl.t) (t : Ltree.t) :
    Datum.t array list =
  let child n = List.nth t.Ltree.children n in
  let schema_of n = Ltree.output_cols (child n) in
  let scalar schema row s =
    Scalar_eval.eval (env_of ~params schema row) s
  in
  let pred schema row s =
    match scalar schema row s with Datum.Bool true -> true | _ -> false
  in
  match t.Ltree.op with
  | Expr.L_get td -> table_rows cluster td
  | Expr.L_select p ->
      let rows = eval cluster ~params ~cte (child 0) in
      let schema = schema_of 0 in
      List.filter (fun r -> pred schema r p) rows
  | Expr.L_project projs ->
      let rows = eval cluster ~params ~cte (child 0) in
      let schema = schema_of 0 in
      List.map
        (fun r ->
          Array.of_list
            (List.map (fun pr -> scalar schema r pr.Expr.proj_expr) projs))
        rows
  | Expr.L_join (kind, cond) -> (
      let l = eval cluster ~params ~cte (child 0) in
      let r = eval cluster ~params ~cte (child 1) in
      let ls = schema_of 0 and rs = schema_of 1 in
      let combined = ls @ rs in
      let matches orow =
        List.filter (fun irow -> pred combined (Array.append orow irow) cond) r
      in
      match kind with
      | Expr.Inner ->
          List.concat_map
            (fun orow -> List.map (fun irow -> Array.append orow irow) (matches orow))
            l
      | Expr.Left_outer ->
          let width = List.length rs in
          List.concat_map
            (fun orow ->
              match matches orow with
              | [] -> [ Array.append orow (Array.make width Datum.Null) ]
              | ms -> List.map (fun irow -> Array.append orow irow) ms)
            l
      | Expr.Full_outer ->
          let width_r = List.length rs and width_l = List.length ls in
          let matched_inner = Hashtbl.create 16 in
          let from_outer =
            List.concat_map
              (fun orow ->
                match matches orow with
                | [] -> [ Array.append orow (Array.make width_r Datum.Null) ]
                | ms ->
                    List.map
                      (fun irow ->
                        Hashtbl.replace matched_inner irow ();
                        Array.append orow irow)
                      ms)
              l
          in
          let from_inner =
            List.filter_map
              (fun irow ->
                if Hashtbl.mem matched_inner irow then None
                else Some (Array.append (Array.make width_l Datum.Null) irow))
              r
          in
          from_outer @ from_inner
      | Expr.Semi -> List.filter (fun orow -> matches orow <> []) l
      | Expr.Anti_semi -> List.filter (fun orow -> matches orow = []) l)
  | Expr.L_gb_agg (_, keys, aggs) ->
      let rows = eval cluster ~params ~cte (child 0) in
      let schema = schema_of 0 in
      naive_agg ~params schema keys aggs rows
  | Expr.L_window (partition, worder, wfuncs) ->
      let rows = eval cluster ~params ~cte (child 0) in
      let schema = schema_of 0 in
      naive_window ~params schema partition worder wfuncs rows
  | Expr.L_limit (sort, offset, count, _) ->
      let rows = eval cluster ~params ~cte (child 0) in
      let schema = schema_of 0 in
      let rows =
        if Sortspec.is_empty sort then rows
        else List.stable_sort (Sortspec.row_compare sort ~schema) rows
      in
      let rec drop n = function
        | rows when n <= 0 -> rows
        | [] -> []
        | _ :: rest -> drop (n - 1) rest
      in
      let rec keep n = function
        | [] -> []
        | _ when n = 0 -> []
        | r :: rest -> r :: keep (n - 1) rest
      in
      let rows = drop offset rows in
      (match count with None -> rows | Some c -> keep c rows)
  | Expr.L_apply (kind, _corr) -> (
      let outer = eval cluster ~params ~cte (child 0) in
      let oschema = schema_of 0 in
      let inner_for orow =
        (* re-evaluate the inner side with the outer row's bindings *)
        let params' =
          List.fold_left2
            (fun acc col v -> Colref.Map.add col v acc)
            params oschema (Array.to_list orow)
        in
        eval cluster ~params:params' ~cte (child 1)
      in
      match kind with
      | Expr.Apply_scalar _ ->
          List.map
            (fun orow ->
              let inner = inner_for orow in
              let v =
                match inner with
                | [] -> Datum.Null
                | row :: _ when Array.length row >= 1 -> row.(0)
                | _ -> Datum.Null
              in
              Array.append orow [| v |])
            outer
      | Expr.Apply_exists -> List.filter (fun o -> inner_for o <> []) outer
      | Expr.Apply_not_exists -> List.filter (fun o -> inner_for o = []) outer
      | Expr.Apply_in (e, _) ->
          List.filter
            (fun orow ->
              let v = scalar oschema orow e in
              (not (Datum.is_null v))
              && List.exists
                   (fun irow -> Array.length irow >= 1 && Datum.equal irow.(0) v)
                   (inner_for orow))
            outer
      | Expr.Apply_not_in (e, _) ->
          List.filter
            (fun orow ->
              let v = scalar oschema orow e in
              let inner = inner_for orow in
              (not (Datum.is_null v))
              && (not
                    (List.exists
                       (fun irow ->
                         Array.length irow >= 1
                         && (Datum.equal irow.(0) v || Datum.is_null irow.(0)))
                       inner)))
            outer)
  | Expr.L_cte_producer id ->
      let rows = eval cluster ~params ~cte (child 0) in
      Hashtbl.replace cte id rows;
      rows
  | Expr.L_cte_anchor _ ->
      let _ = eval cluster ~params ~cte (child 0) in
      eval cluster ~params ~cte (child 1)
  | Expr.L_cte_consumer (id, _) -> (
      match Hashtbl.find_opt cte id with
      | Some rows -> rows
      | None ->
          Gpos.Gpos_error.raise_error Gpos.Gpos_error.Exec_error
            "naive: CTE %d not materialized" id)
  | Expr.L_set (kind, _) -> (
      let children = List.map (eval cluster ~params ~cte) t.Ltree.children in
      let key row = String.concat "\x00" (List.map Datum.serialize (Array.to_list row)) in
      let distinct rows =
        let seen = Hashtbl.create 64 in
        List.filter
          (fun r ->
            let k = key r in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.replace seen k ();
              true
            end)
          rows
      in
      match (kind, children) with
      | Expr.Union_all, cs -> List.concat cs
      | Expr.Union_distinct, cs -> distinct (List.concat cs)
      | Expr.Intersect, [ a; b ] ->
          let right = Hashtbl.create 64 in
          List.iter (fun r -> Hashtbl.replace right (key r) ()) b;
          distinct (List.filter (fun r -> Hashtbl.mem right (key r)) a)
      | Expr.Except, [ a; b ] ->
          let right = Hashtbl.create 64 in
          List.iter (fun r -> Hashtbl.replace right (key r) ()) b;
          distinct (List.filter (fun r -> not (Hashtbl.mem right (key r))) a)
      | _ ->
          Gpos.Gpos_error.raise_error Gpos.Gpos_error.Exec_error
            "naive: set op arity")
  | Expr.L_const_table (_, rows) -> List.map Array.of_list rows

and naive_agg ~params schema keys aggs rows =
  let kpos = List.map (Colref.position_exn schema) keys in
  let scalar row s = Scalar_eval.eval (env_of ~params schema row) s in
  let groups : (string, Datum.t list * Datum.t list list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun row ->
      let kvs = List.map (fun p -> row.(p)) kpos in
      let k = String.concat "\x00" (List.map Datum.serialize kvs) in
      match Hashtbl.find_opt groups k with
      | Some (_, args) ->
          args :=
            List.map
              (fun (a : Expr.agg) ->
                match a.Expr.agg_arg with
                | None -> Datum.Bool true
                | Some e -> scalar row e)
              aggs
            :: !args
      | None ->
          order := k :: !order;
          Hashtbl.replace groups k
            ( kvs,
              ref
                [
                  List.map
                    (fun (a : Expr.agg) ->
                      match a.Expr.agg_arg with
                      | None -> Datum.Bool true
                      | Some e -> scalar row e)
                    aggs;
                ] ))
    rows;
  let finish (a : Expr.agg) (vals : Datum.t list) : Datum.t =
    let non_null = List.filter (fun v -> not (Datum.is_null v)) vals in
    let non_null =
      if a.Expr.agg_distinct then
        List.sort_uniq Datum.compare non_null
      else non_null
    in
    match a.Expr.agg_kind with
    | Expr.Count_star -> Datum.Int (List.length vals)
    | Expr.Count -> Datum.Int (List.length non_null)
    | Expr.Sum ->
        List.fold_left
          (fun acc v -> if Datum.is_null acc then v else Datum.arith `Add acc v)
          Datum.Null non_null
    | Expr.Min ->
        List.fold_left
          (fun acc v ->
            if Datum.is_null acc || Datum.compare v acc < 0 then v else acc)
          Datum.Null non_null
    | Expr.Max ->
        List.fold_left
          (fun acc v ->
            if Datum.is_null acc || Datum.compare v acc > 0 then v else acc)
          Datum.Null non_null
  in
  if keys = [] && Hashtbl.length groups = 0 then
    [ Array.of_list (List.map (fun a -> finish a []) aggs) ]
  else
    List.rev_map
      (fun k ->
        let kvs, arg_rows = Hashtbl.find groups k in
        let per_agg =
          List.mapi (fun i a -> finish a (List.map (fun r -> List.nth r i) !arg_rows)) aggs
        in
        Array.of_list (kvs @ per_agg))
      !order

(* Textbook window computation: partition, order, then per function either
   whole-partition aggregation (no ORDER BY) or the SQL default running frame
   with peers included. *)
and naive_window ~params schema partition worder (wfuncs : Expr.wfunc list)
    rows =
  let scalar row s = Scalar_eval.eval (env_of ~params schema row) s in
  let ppos = List.map (Colref.position_exn schema) partition in
  let sort_spec = List.map Sortspec.asc partition @ worder in
  let sorted =
    if sort_spec = [] then rows
    else List.stable_sort (Sortspec.row_compare sort_spec ~schema) rows
  in
  let order_cmp =
    if Sortspec.is_empty worder then fun _ _ -> 0
    else Sortspec.row_compare worder ~schema
  in
  let part_key row = List.map (fun p -> row.(p)) ppos in
  let rec split acc current current_key = function
    | [] -> List.rev (List.rev current :: acc)
    | row :: rest ->
        let k = part_key row in
        if current = [] || k = current_key then split acc (row :: current) k rest
        else split (List.rev current :: acc) [ row ] k rest
  in
  let partitions = match sorted with [] -> [] | _ -> split [] [] [] sorted in
  let agg_value kind arg_values =
    let non_null = List.filter (fun v -> not (Datum.is_null v)) arg_values in
    match kind with
    | Expr.Count_star -> Datum.Int (List.length arg_values)
    | Expr.Count -> Datum.Int (List.length non_null)
    | Expr.Sum ->
        List.fold_left
          (fun acc v -> if Datum.is_null acc then v else Datum.arith `Add acc v)
          Datum.Null non_null
    | Expr.Min ->
        List.fold_left
          (fun acc v ->
            if Datum.is_null acc || Datum.compare v acc < 0 then v else acc)
          Datum.Null non_null
    | Expr.Max ->
        List.fold_left
          (fun acc v ->
            if Datum.is_null acc || Datum.compare v acc > 0 then v else acc)
          Datum.Null non_null
  in
  List.concat_map
    (fun prows ->
      let arr = Array.of_list prows in
      let n = Array.length arr in
      let value_of (w : Expr.wfunc) i =
        match w.Expr.wf_kind with
        | Expr.W_row_number -> Datum.Int (i + 1)
        | Expr.W_rank ->
            (* first peer's index + 1 *)
            let rec first j =
              if j > 0 && order_cmp arr.(j - 1) arr.(i) = 0 then first (j - 1)
              else j
            in
            Datum.Int (first i + 1)
        | Expr.W_dense_rank ->
            (* one per distinct order value in the prefix *)
            let r = ref 1 in
            for j = 1 to i do
              if order_cmp arr.(j - 1) arr.(j) <> 0 then incr r
            done;
            Datum.Int !r
        | Expr.W_agg kind ->
            let framed = not (Sortspec.is_empty worder) in
            let included j =
              if not framed then true
              else
                order_cmp arr.(j) arr.(i) < 0 || order_cmp arr.(j) arr.(i) = 0
            in
            let args =
              List.filteri (fun j _ -> included j) (Array.to_list arr)
              |> List.map (fun row ->
                     match w.Expr.wf_arg with
                     | None -> Datum.Bool true
                     | Some e -> scalar row e)
            in
            agg_value kind args
      in
      List.init n (fun i ->
          Array.append arr.(i)
            (Array.of_list (List.map (fun w -> value_of w i) wfuncs))))
    partitions

(* Evaluate a full DXL query naively. The tree is normalized first (filters
   pushed toward tables) so cross products are never materialized; the
   normalizer is itself covered by dedicated tests. *)
let run (cluster : Cluster.t) (q : Dxl.Dxl_query.t) : Datum.t array list =
  let tree = Xform.Normalize.run q.Dxl.Dxl_query.tree in
  let rows =
    eval cluster ~params:Colref.Map.empty ~cte:(Hashtbl.create 8) tree
  in
  let schema = Ltree.output_cols tree in
  (* project to the requested output columns, apply the root ordering *)
  let positions =
    List.map (fun c -> Colref.position_exn schema c) q.Dxl.Dxl_query.output
  in
  let rows =
    if Sortspec.is_empty q.Dxl.Dxl_query.order then rows
    else
      List.stable_sort
        (Sortspec.row_compare q.Dxl.Dxl_query.order ~schema)
        rows
  in
  List.map (fun r -> Array.of_list (List.map (fun p -> r.(p)) positions)) rows
