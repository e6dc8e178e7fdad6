open Ir

(* Row-level interpreter for physical plans over the simulated cluster.

   Every operator transforms per-segment row sets; motions move rows between
   segments for real, so row counts, duplicates, skew and co-location
   mistakes surface as actual wrong work (and wrong results, caught by
   tests). Each operator charges measured work to the metrics, from which
   simulated elapsed time is derived (see Machine).

   Memory behaviour is configurable: [Spill_to_disk] (GPDB-like) charges
   spill I/O when an operator's state exceeds the per-segment budget;
   [Fail_on_oom] (Impala/Presto-like, paper §7.3.2) raises Out_of_memory. *)

type mode = Spill_to_disk | Fail_on_oom

type ctx = {
  cluster : Cluster.t;
  metrics : Metrics.t;
  mode : mode;
  dpe : bool; (* dynamic partition elimination in hash joins *)
  cte : (int, Datum.t array list array) Hashtbl.t;
  subplan_cache : (string, Datum.t array list * float) Hashtbl.t;
  observe : (Expr.plan -> rows:float -> sim_s:float -> unit) option;
      (* per-operator hook: actual output rows and inclusive simulated time
         (EXPLAIN ANALYZE); None costs nothing on the eval path *)
  mutable node_ids : (Expr.plan * int) list;
      (* plan node (by physical identity) -> stable preorder id
         (Plan_ops.number); set by [run], drives per-node actuals *)
  mutable dpe_aliases : (Expr.plan * Expr.plan) list;
      (* DPE builds restricted copies of scan subtrees; aliases map each
         copy back to the original node so actuals and observe calls
         attribute to the plan the optimizer produced *)
}

let create_ctx ?(mode = Spill_to_disk) ?(dpe = true) ?observe
    (cluster : Cluster.t) : ctx =
  {
    cluster;
    metrics = Metrics.create cluster.Cluster.nsegs;
    mode;
    dpe;
    cte = Hashtbl.create 8;
    subplan_cache = Hashtbl.create 64;
    observe;
    node_ids = [];
    dpe_aliases = [];
  }

let mach ctx = ctx.cluster.Cluster.machine

(* Environment resolving columns positionally in [schema], falling back to
   correlation [params]. *)
let env_of ~(params : Datum.t Colref.Map.t) (schema : Colref.t list)
    (row : Datum.t array) : Scalar_eval.env =
  let positions = Array.of_list schema in
  fun col ->
    let rec find i =
      if i >= Array.length positions then
        match Colref.Map.find_opt col params with
        | Some d -> d
        | None ->
            Gpos.Gpos_error.raise_error Gpos.Gpos_error.Exec_error
              "unbound column %s at execution" (Colref.to_string col)
      else if Colref.equal positions.(i) col then row.(i)
      else find (i + 1)
    in
    find 0

let key_string (ds : Datum.t list) =
  String.concat "\x00" (List.map Datum.serialize ds)

(* The distribution a plan subtree delivers, recomputed from operator
   semantics. Used to recognize replicated inputs (which contribute a single
   copy to motions) and singleton streams. *)
let delivered_dist (p : Expr.plan) : Props.dist =
  let rec go p = Physical_ops.derive p.Expr.pop (List.map go p.Expr.pchildren) in
  (go p).Props.ddist

let rows_bytes rows =
  List.fold_left (fun acc r -> acc +. float_of_int (Cluster.row_bytes r)) 0.0 rows

let check_memory ctx bytes ~stream_bytes =
  Metrics.note_state ctx.metrics bytes;
  if bytes > ctx.cluster.Cluster.mem_per_seg then begin
    match ctx.mode with
    | Fail_on_oom ->
        raise
          (Gpos.Gpos_error.Error
             ( Gpos.Gpos_error.Out_of_memory,
               Printf.sprintf "operator state %.0f bytes exceeds budget %.0f"
                 bytes ctx.cluster.Cluster.mem_per_seg ))
    | Spill_to_disk ->
        let spilled = bytes +. stream_bytes in
        ctx.metrics.Metrics.spill_bytes <-
          ctx.metrics.Metrics.spill_bytes +. spilled;
        Metrics.charge ctx.metrics (spilled *. (mach ctx).Machine.spill_byte)
  end

(* --- aggregation --- *)

type agg_state = {
  mutable a_rows : int; (* rows seen, for COUNT-star *)
  mutable a_count : int; (* non-null args *)
  mutable a_sum : Datum.t;
  mutable a_min : Datum.t;
  mutable a_max : Datum.t;
  mutable a_distinct : (string, unit) Hashtbl.t option;
}

let new_agg_state (a : Expr.agg) =
  {
    a_rows = 0;
    a_count = 0;
    a_sum = Datum.Null;
    a_min = Datum.Null;
    a_max = Datum.Null;
    a_distinct = (if a.Expr.agg_distinct then Some (Hashtbl.create 8) else None);
  }

let agg_accumulate (a : Expr.agg) (st : agg_state) (arg : Datum.t) =
  st.a_rows <- st.a_rows + 1;
  if not (Datum.is_null arg) then begin
    let fresh =
      match st.a_distinct with
      | None -> true
      | Some tbl ->
          let k = Datum.serialize arg in
          if Hashtbl.mem tbl k then false
          else begin
            Hashtbl.replace tbl k ();
            true
          end
    in
    if fresh then begin
      st.a_count <- st.a_count + 1;
      (match a.Expr.agg_kind with
      | Expr.Sum ->
          st.a_sum <-
            (if Datum.is_null st.a_sum then arg
             else Datum.arith `Add st.a_sum arg)
      | _ -> ());
      if Datum.is_null st.a_min || Datum.compare arg st.a_min < 0 then
        st.a_min <- arg;
      if Datum.is_null st.a_max || Datum.compare arg st.a_max > 0 then
        st.a_max <- arg
    end
  end

let agg_finish (a : Expr.agg) (st : agg_state) : Datum.t =
  match a.Expr.agg_kind with
  | Expr.Count_star -> Datum.Int st.a_rows
  | Expr.Count -> Datum.Int st.a_count
  | Expr.Sum -> st.a_sum
  | Expr.Min -> st.a_min
  | Expr.Max -> st.a_max

(* --- the interpreter --- *)

(* DPE-rewritten records resolve back to the node they were copied from. *)
let rec resolve_original (ctx : ctx) (p : Expr.plan) : Expr.plan =
  match List.find_opt (fun (copy, _) -> copy == p) ctx.dpe_aliases with
  | Some (_, orig) -> resolve_original ctx orig
  | None -> p

let node_id (ctx : ctx) (p : Expr.plan) : int option =
  List.find_opt (fun (n, _) -> n == p) ctx.node_ids |> Option.map snd

let rec eval (ctx : ctx) ~(params : Datum.t Colref.Map.t) (p : Expr.plan) :
    Datum.t array list array =
  ctx.metrics.Metrics.operators_run <- ctx.metrics.Metrics.operators_run + 1;
  match (ctx.observe, ctx.node_ids) with
  | None, [] -> eval_node ctx ~params p
  | observe, _ ->
      let t0 = ctx.metrics.Metrics.sim_seconds in
      let segs = eval_node ctx ~params p in
      let rows =
        Array.fold_left (fun acc l -> acc + List.length l) 0 segs
      in
      let orig = resolve_original ctx p in
      (match node_id ctx orig with
      | Some id -> Metrics.note_node_rows ctx.metrics id (float_of_int rows)
      | None -> ());
      (match observe with
      | Some f ->
          f orig ~rows:(float_of_int rows)
            ~sim_s:(ctx.metrics.Metrics.sim_seconds -. t0)
      | None -> ());
      segs

and eval_node (ctx : ctx) ~(params : Datum.t Colref.Map.t) (p : Expr.plan) :
    Datum.t array list array =
  let nsegs = ctx.cluster.Cluster.nsegs in
  let m = mach ctx in
  let child n = List.nth p.Expr.pchildren n in
  let child_schema n = (child n).Expr.pschema in
  let eval_scalar schema row s =
    Scalar_eval.eval ~subplan:(subplan_exec ctx params) (env_of ~params schema row) s
  in
  let eval_pred schema row s =
    match eval_scalar schema row s with Datum.Bool true -> true | _ -> false
  in
  let charge_rows segs per_row =
    Metrics.charge_max ctx.metrics
      (Array.map (fun rows -> float_of_int (List.length rows) *. per_row) segs)
  in
  match p.Expr.pop with
  | Expr.P_table_scan (td, parts, filter) ->
      let data = Cluster.table ctx.cluster td.Table_desc.name in
      let part_keep =
        match (parts, td.Table_desc.part_col) with
        | Some kept, Some pc ->
            let pos = Colref.position_exn td.Table_desc.cols pc in
            let ranges =
              List.filter
                (fun (prt : Table_desc.part) ->
                  List.mem prt.Table_desc.part_id kept)
                td.Table_desc.parts
            in
            Some
              (fun (row : Datum.t array) ->
                let v = row.(pos) in
                List.exists
                  (fun (prt : Table_desc.part) ->
                    Datum.compare prt.Table_desc.lo v <= 0
                    && Datum.compare v prt.Table_desc.hi < 0)
                  ranges)
        | _ -> None
      in
      let out =
        Array.map
          (fun rows ->
            (* partition pruning skips reading pruned partitions *)
            let scanned =
              match part_keep with
              | None -> rows
              | Some keep -> List.filter keep rows
            in
            ctx.metrics.Metrics.rows_scanned <-
              ctx.metrics.Metrics.rows_scanned
              +. float_of_int (List.length scanned);
            match filter with
            | None -> scanned
            | Some f ->
                List.filter (fun r -> eval_pred td.Table_desc.cols r f) scanned)
          data.Cluster.segments
      in
      Metrics.charge_max ctx.metrics
        (Array.map
           (fun rows ->
             let n = float_of_int (List.length rows) in
             n *. (m.Machine.cpu_tuple +. (64.0 *. m.Machine.scan_byte)))
           data.Cluster.segments);
      out
  | Expr.P_index_scan (td, idx, cmp, key, residual) ->
      let data = Cluster.table ctx.cluster td.Table_desc.name in
      let pos = Colref.position_exn td.Table_desc.cols idx.Table_desc.idx_col in
      let key_val = eval_scalar [] [||] key in
      let matches row =
        match Datum.sql_compare row.(pos) key_val with
        | None -> false
        | Some c -> (
            match cmp with
            | Expr.Eq -> c = 0
            | Expr.Neq -> c <> 0
            | Expr.Lt -> c < 0
            | Expr.Le -> c <= 0
            | Expr.Gt -> c > 0
            | Expr.Ge -> c >= 0)
      in
      let out =
        Array.map
          (fun rows ->
            let selected = List.filter matches rows in
            let selected =
              match residual with
              | None -> selected
              | Some f ->
                  List.filter (fun r -> eval_pred td.Table_desc.cols r f) selected
            in
            ctx.metrics.Metrics.rows_scanned <-
              ctx.metrics.Metrics.rows_scanned
              +. float_of_int (List.length selected);
            selected)
          data.Cluster.segments
      in
      (* index access: log descent + per-match fetch *)
      Metrics.charge_max ctx.metrics
        (Array.map
           (fun rows ->
             let n = float_of_int (List.length rows) in
             (Float.log (Float.max 2.0
                  (float_of_int (List.length rows) +. 2.0))
             *. m.Machine.cpu_tuple)
             +. (n *. m.Machine.cpu_tuple *. 0.1))
           out);
      out
  | Expr.P_filter pred ->
      let segs = eval ctx ~params (child 0) in
      let schema = child_schema 0 in
      let nconj = List.length (Scalar_ops.conjuncts pred) in
      charge_rows segs (float_of_int nconj *. m.Machine.cpu_op);
      Array.map (List.filter (fun r -> eval_pred schema r pred)) segs
  | Expr.P_project projs ->
      let segs = eval ctx ~params (child 0) in
      let schema = child_schema 0 in
      (* pass-through columns are slot copies; computed expressions pay *)
      let computed =
        List.length
          (List.filter
             (fun p -> match p.Expr.proj_expr with Expr.Col _ -> false | _ -> true)
             projs)
      in
      charge_rows segs
        ((float_of_int computed *. m.Machine.cpu_op)
        +. (0.05 *. m.Machine.cpu_tuple));
      let compiled =
        List.map
          (fun pr ->
            match pr.Expr.proj_expr with
            | Expr.Col c ->
                let pos = Colref.position_exn schema c in
                `Slot pos
            | e -> `Expr e)
          projs
      in
      Array.map
        (List.map (fun r ->
             Array.of_list
               (List.map
                  (function
                    | `Slot pos -> r.(pos)
                    | `Expr e -> eval_scalar schema r e)
                  compiled)))
        segs
  | Expr.P_hash_join (kind, keys, residual) ->
      (* Dynamic partition elimination (paper §7.2.2, simplified from its
         reference [2]): when one side is a scan of a range-partitioned table
         whose partition column is a join key, evaluate the other side first
         and skip the partitions that cannot contain its observed key values.
         Pruning the probe (outer) side is sound for inner/semi joins;
         pruning the build (inner) side is additionally sound for left outer
         joins (unmatched build rows never reach the output). *)
      let probe_prunable =
        match kind with
        | Expr.Inner | Expr.Semi -> true
        | Expr.Left_outer | Expr.Full_outer | Expr.Anti_semi -> false
      in
      let build_prunable =
        match kind with
        | Expr.Inner | Expr.Semi | Expr.Left_outer -> true
        | Expr.Full_outer | Expr.Anti_semi -> false
      in
      let outer, inner =
        if
          probe_prunable
          && dpe_candidate ctx (child 0)
               (List.map (fun (o, _) -> o) keys)
        then begin
          let inner = eval ctx ~params (child 1) in
          let outer =
            match
              dpe_restriction ctx (child 0)
                (List.map (fun (o, i) -> (o, i)) keys)
                inner (child_schema 1)
            with
            | Some restricted -> eval ctx ~params restricted
            | None -> eval ctx ~params (child 0)
          in
          (outer, inner)
        end
        else if
          build_prunable
          && dpe_candidate ctx (child 1)
               (List.map (fun (_, i) -> i) keys)
        then begin
          let outer = eval ctx ~params (child 0) in
          let inner =
            match
              dpe_restriction ctx (child 1)
                (List.map (fun (o, i) -> (i, o)) keys)
                outer (child_schema 0)
            with
            | Some restricted -> eval ctx ~params restricted
            | None -> eval ctx ~params (child 1)
          in
          (outer, inner)
        end
        else
          let outer = eval ctx ~params (child 0) in
          let inner = eval ctx ~params (child 1) in
          (outer, inner)
      in
      let oschema = child_schema 0 and ischema = child_schema 1 in
      let combined = oschema @ ischema in
      Array.init nsegs (fun seg ->
          hash_join_segment ctx ~params ~kind ~keys ~residual ~oschema ~ischema
            ~combined outer.(seg) inner.(seg))
  | Expr.P_merge_join (kind, keys, residual) ->
      let outer = eval ctx ~params (child 0) in
      let inner = eval ctx ~params (child 1) in
      let oschema = child_schema 0 and ischema = child_schema 1 in
      Array.init nsegs (fun seg ->
          merge_join_segment ctx ~params ~kind ~keys ~residual ~oschema ~ischema
            outer.(seg) inner.(seg))
  | Expr.P_nl_join (kind, cond) ->
      let outer = eval ctx ~params (child 0) in
      let inner = eval ctx ~params (child 1) in
      let oschema = child_schema 0 and ischema = child_schema 1 in
      let combined = oschema @ ischema in
      let inner_width = List.length ischema in
      Metrics.charge_max ctx.metrics
        (Array.init nsegs (fun seg ->
             float_of_int (List.length outer.(seg))
             *. float_of_int (List.length inner.(seg))
             *. m.Machine.nl_pair));
      Array.init nsegs (fun seg ->
          let inner_rows = inner.(seg) in
          List.concat_map
            (fun orow ->
              let matches =
                List.filter
                  (fun irow ->
                    let full = Array.append orow irow in
                    eval_pred combined full cond)
                  inner_rows
              in
              match kind with
              | Expr.Inner ->
                  List.map (fun irow -> Array.append orow irow) matches
              | Expr.Left_outer ->
                  if matches = [] then
                    [ Array.append orow (Array.make inner_width Datum.Null) ]
                  else List.map (fun irow -> Array.append orow irow) matches
              | Expr.Semi -> if matches = [] then [] else [ orow ]
              | Expr.Anti_semi -> if matches = [] then [ orow ] else []
              | Expr.Full_outer ->
                  Gpos.Gpos_error.raise_error Gpos.Gpos_error.Exec_error
                    "full outer NL join not supported")
            outer.(seg))
  | Expr.P_hash_agg (phase, gkeys, aggs) ->
      let segs = eval ctx ~params (child 0) in
      let schema = child_schema 0 in
      charge_rows segs m.Machine.hash_build;
      Array.mapi
        (fun seg rows ->
          hash_agg_segment ctx ~params ~schema ~phase ~seg gkeys aggs rows)
        segs
  | Expr.P_stream_agg (phase, gkeys, aggs) ->
      let segs = eval ctx ~params (child 0) in
      let schema = child_schema 0 in
      charge_rows segs m.Machine.cpu_tuple;
      Array.mapi
        (fun seg rows ->
          stream_agg_segment ctx ~params ~schema ~phase ~seg gkeys aggs rows)
        segs
  | Expr.P_window (partition, worder, wfuncs) ->
      let segs = eval ctx ~params (child 0) in
      let schema = child_schema 0 in
      charge_rows segs (m.Machine.cpu_tuple +. m.Machine.cpu_op);
      Array.map
        (fun rows -> window_segment ctx ~params ~schema partition worder wfuncs rows)
        segs
  | Expr.P_sort spec ->
      let segs = eval ctx ~params (child 0) in
      let schema = child_schema 0 in
      let cmp = Sortspec.row_compare spec ~schema in
      Metrics.charge_max ctx.metrics
        (Array.map
           (fun rows ->
             let n = Float.max 1.0 (float_of_int (List.length rows)) in
             n *. Float.log n *. m.Machine.sort_cmp)
           segs);
      Array.iter
        (fun rows -> check_memory ctx (rows_bytes rows) ~stream_bytes:(rows_bytes rows))
        segs;
      Array.map (fun rows -> List.stable_sort cmp rows) segs
  | Expr.P_limit (_, offset, count, _) ->
      let segs = eval ctx ~params (child 0) in
      let take rows =
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
        match count with None -> rows | Some c -> keep c rows
      in
      Array.map take segs
  | Expr.P_motion motion -> run_motion ctx ~params p motion
  | Expr.P_cte_producer id ->
      let segs = eval ctx ~params (child 0) in
      (* normalize replicated inputs to one copy: consumers are treated as
         unaligned (D_random) by the optimizer, so motions above them would
         otherwise multiply the rows *)
      let segs =
        if delivered_dist (child 0) = Props.D_replicated then
          Array.init nsegs (fun i -> if i = 0 then segs.(0) else [])
        else segs
      in
      Hashtbl.replace ctx.cte id segs;
      let bytes = Array.fold_left (fun a rows -> a +. rows_bytes rows) 0.0 segs in
      Metrics.charge ctx.metrics (bytes *. m.Machine.scan_byte);
      segs
  | Expr.P_cte_consumer (id, _) -> (
      match Hashtbl.find_opt ctx.cte id with
      | Some segs ->
          charge_rows segs (m.Machine.cpu_tuple *. 0.5);
          segs
      | None ->
          Gpos.Gpos_error.raise_error Gpos.Gpos_error.Exec_error
            "CTE %d consumed before production" id)
  | Expr.P_sequence _ ->
      let _producer = eval ctx ~params (child 0) in
      eval ctx ~params (child 1)
  | Expr.P_set (kind, _) ->
      let children = List.map (eval ctx ~params) p.Expr.pchildren in
      run_set ctx kind children
  | Expr.P_const_table (_, rows) ->
      let segs = Array.make nsegs [] in
      segs.(0) <- List.map Array.of_list rows;
      segs
  | Expr.P_partition_selector _ -> eval ctx ~params (child 0)

(* Is [side] (possibly behind projections/filters) a scan of a
   range-partitioned table whose partition column is one of [side_keys]? *)
and dpe_candidate (ctx : ctx) (side : Expr.plan) (side_keys : Expr.scalar list)
    : bool =
  ctx.dpe
  &&
  match side.Expr.pop with
  | Expr.P_table_scan (td, _, _) when td.Table_desc.parts <> [] -> (
      match td.Table_desc.part_col with
      | Some pc ->
          List.exists
            (function Expr.Col c -> Colref.equal c pc | _ -> false)
            side_keys
      | None -> false)
  | Expr.P_project _ | Expr.P_filter _ | Expr.P_partition_selector _ -> (
      (* projections/filters between the join and the scan do not affect
         which partitions can match *)
      match side.Expr.pchildren with
      | [ child ] -> dpe_candidate ctx child side_keys
      | _ -> false)
  | _ -> false

(* Restrict the partitioned scan [side] to the partitions that can contain
   the key values observed on the already-evaluated other side. [keys] pairs
   (this side's key expr, other side's key expr). *)
and dpe_restriction (ctx : ctx) (side : Expr.plan)
    (keys : (Expr.scalar * Expr.scalar) list)
    (other_segs : Datum.t array list array) (other_schema : Colref.t list) :
    Expr.plan option =
  match side.Expr.pop with
  | Expr.P_project _ | Expr.P_filter _ | Expr.P_partition_selector _ -> (
      (* rebuild the wrapper around the restricted scan *)
      match side.Expr.pchildren with
      | [ child ] -> (
          match dpe_restriction ctx child keys other_segs other_schema with
          | Some child' ->
              let side' = { side with Expr.pchildren = [ child' ] } in
              ctx.dpe_aliases <- (side', side) :: ctx.dpe_aliases;
              Some side'
          | None -> None)
      | _ -> None)
  | Expr.P_table_scan (td, kept, filter) when td.Table_desc.parts <> [] -> (
      match td.Table_desc.part_col with
      | None -> None
      | Some pc -> (
          let pair =
            List.find_opt
              (fun (this_k, other_k) ->
                match (this_k, other_k) with
                | Expr.Col c, Expr.Col _ -> Colref.equal c pc
                | _ -> false)
              keys
          in
          match pair with
          | Some (_, Expr.Col other_col) ->
              let pos = Colref.position_exn other_schema other_col in
              let interesting = Hashtbl.create 64 in
              Array.iter
                (List.iter (fun row ->
                     let v = row.(pos) in
                     if not (Datum.is_null v) then
                       List.iter
                         (fun (p : Table_desc.part) ->
                           if
                             Datum.compare p.Table_desc.lo v <= 0
                             && Datum.compare v p.Table_desc.hi < 0
                           then
                             Hashtbl.replace interesting p.Table_desc.part_id ())
                         td.Table_desc.parts))
                other_segs;
              let candidate =
                match kept with
                | None ->
                    List.map (fun p -> p.Table_desc.part_id) td.Table_desc.parts
                | Some ids -> ids
              in
              let selected =
                List.filter (fun id -> Hashtbl.mem interesting id) candidate
              in
              if List.length selected < List.length candidate then begin
                ctx.metrics.Metrics.partitions_pruned_dynamically <-
                  ctx.metrics.Metrics.partitions_pruned_dynamically
                  + (List.length candidate - List.length selected);
                let side' =
                  {
                    side with
                    Expr.pop = Expr.P_table_scan (td, Some selected, filter);
                  }
                in
                ctx.dpe_aliases <- (side', side) :: ctx.dpe_aliases;
                Some side'
              end
              else None
          | _ -> None))
  | _ -> None

and hash_join_segment ctx ~params ~kind ~keys ~residual ~oschema ~ischema
    ~combined outer_rows inner_rows =
  let m = mach ctx in
  let eval_scalar schema row s =
    Scalar_eval.eval ~subplan:(subplan_exec ctx params) (env_of ~params schema row) s
  in
  let inner_width = List.length ischema in
  (* build side: inner *)
  let table : (string, (Datum.t array * int) list ref) Hashtbl.t =
    Hashtbl.create (List.length inner_rows)
  in
  let inner_key row = List.map (fun (_, ik) -> eval_scalar ischema row ik) keys in
  let outer_key row = List.map (fun (ok, _) -> eval_scalar oschema row ok) keys in
  check_memory ctx (rows_bytes inner_rows) ~stream_bytes:(rows_bytes outer_rows);
  List.iteri
    (fun i row ->
      let kvs = inner_key row in
      if not (List.exists Datum.is_null kvs) then begin
        let k = key_string kvs in
        match Hashtbl.find_opt table k with
        | Some l -> l := (row, i) :: !l
        | None -> Hashtbl.replace table k (ref [ (row, i) ])
      end)
    inner_rows;
  Metrics.charge ctx.metrics
    (float_of_int (List.length inner_rows) *. m.Machine.hash_build
    +. float_of_int (List.length outer_rows) *. m.Machine.hash_probe);
  let matched_inner = Hashtbl.create 16 in
  let residual_ok full =
    match residual with
    | None -> true
    | Some f -> (
        match eval_scalar combined full f with
        | Datum.Bool true -> true
        | _ -> false)
  in
  let null_inner = Array.make inner_width Datum.Null in
  let out = ref [] in
  List.iter
    (fun orow ->
      let kvs = outer_key orow in
      let matches =
        if List.exists Datum.is_null kvs then []
        else
          match Hashtbl.find_opt table (key_string kvs) with
          | Some l ->
              List.filter
                (fun (irow, _) -> residual_ok (Array.append orow irow))
                !l
          | None -> []
      in
      (match kind with
      | Expr.Inner ->
          List.iter
            (fun (irow, _) -> out := Array.append orow irow :: !out)
            matches
      | Expr.Full_outer ->
          if matches = [] then out := Array.append orow null_inner :: !out
          else
            List.iter
              (fun (irow, idx) ->
                Hashtbl.replace matched_inner idx ();
                out := Array.append orow irow :: !out)
              matches
      | Expr.Left_outer ->
          if matches = [] then out := Array.append orow null_inner :: !out
          else
            List.iter
              (fun (irow, _) -> out := Array.append orow irow :: !out)
              matches
      | Expr.Semi -> if matches <> [] then out := orow :: !out
      | Expr.Anti_semi -> if matches = [] then out := orow :: !out))
    outer_rows;
  (* full outer: emit unmatched inner rows null-extended on the outer side *)
  (if kind = Expr.Full_outer then
     let outer_width = List.length oschema in
     let null_outer = Array.make outer_width Datum.Null in
     List.iteri
       (fun i irow ->
         if not (Hashtbl.mem matched_inner i) then
           out := Array.append null_outer irow :: !out)
       inner_rows);
  List.rev !out

and merge_join_segment ctx ~params ~kind ~keys ~residual ~oschema ~ischema
    outer_rows inner_rows =
  ignore params;
  (match kind with
  | Expr.Inner -> ()
  | _ ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Exec_error
        "merge join supports inner joins only");
  let m = mach ctx in
  Metrics.charge ctx.metrics
    (float_of_int (List.length outer_rows + List.length inner_rows)
    *. m.Machine.cpu_tuple);
  let opos =
    List.map (fun (ok, _) -> Colref.position_exn oschema ok) keys
  in
  let ipos =
    List.map (fun (_, ik) -> Colref.position_exn ischema ik) keys
  in
  let key_of positions (row : Datum.t array) =
    List.map (fun p -> row.(p)) positions
  in
  let cmp_keys a b =
    let rec go = function
      | [] -> 0
      | (x, y) :: rest ->
          let c = Datum.compare x y in
          if c <> 0 then c else go rest
    in
    go (List.combine a b)
  in
  let oarr = Array.of_list outer_rows and iarr = Array.of_list inner_rows in
  let residual_ok full =
    match residual with
    | None -> true
    | Some f ->
        Scalar_eval.eval_pred
          ~subplan:(subplan_exec ctx Colref.Map.empty)
          (env_of ~params:Colref.Map.empty (oschema @ ischema) full)
          f
  in
  let out = ref [] in
  let i = ref 0 and j = ref 0 in
  let no = Array.length oarr and ni = Array.length iarr in
  while !i < no && !j < ni do
    let ok = key_of opos oarr.(!i) and ik = key_of ipos iarr.(!j) in
    if List.exists Datum.is_null ok then incr i
    else if List.exists Datum.is_null ik then incr j
    else
      let c = cmp_keys ok ik in
      if c < 0 then incr i
      else if c > 0 then incr j
      else begin
        (* equal-key blocks *)
        let i_end = ref !i in
        while
          !i_end < no && cmp_keys (key_of opos oarr.(!i_end)) ok = 0
        do
          incr i_end
        done;
        let j_end = ref !j in
        while
          !j_end < ni && cmp_keys (key_of ipos iarr.(!j_end)) ik = 0
        do
          incr j_end
        done;
        for a = !i to !i_end - 1 do
          for b = !j to !j_end - 1 do
            let full = Array.append oarr.(a) iarr.(b) in
            if residual_ok full then out := full :: !out
          done
        done;
        i := !i_end;
        j := !j_end
      end
  done;
  List.rev !out

and hash_agg_segment ctx ~params ~schema ~phase ~seg gkeys aggs rows =
  let eval_scalar row s =
    Scalar_eval.eval ~subplan:(subplan_exec ctx params) (env_of ~params schema row) s
  in
  let kpos = List.map (Colref.position_exn schema) gkeys in
  let groups : (string, Datum.t list * agg_state list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun row ->
      let kvs = List.map (fun p -> row.(p)) kpos in
      let k = key_string kvs in
      let _, states =
        match Hashtbl.find_opt groups k with
        | Some entry -> entry
        | None ->
            let entry = (kvs, List.map new_agg_state aggs) in
            Hashtbl.replace groups k entry;
            entry
      in
      List.iter2
        (fun (a : Expr.agg) st ->
          let arg =
            match a.Expr.agg_arg with
            | None -> Datum.Bool true (* COUNT-star marker: any non-null value *)
            | Some e -> eval_scalar row e
          in
          agg_accumulate a st arg)
        aggs states)
    rows;
  let state_bytes = float_of_int (Hashtbl.length groups) *. 64.0 in
  check_memory ctx state_bytes ~stream_bytes:(rows_bytes rows);
  if gkeys = [] && Hashtbl.length groups = 0 then
    (* global aggregate over empty input: one identity row — on every segment
       for Partial (local) aggregation, on the master otherwise (the input is
       Singleton-distributed by construction) *)
    (if phase = Expr.Partial || seg = 0 then
       [ Array.of_list (List.map (fun a -> agg_finish a (new_agg_state a)) aggs) ]
     else [])
  else
    Hashtbl.fold
      (fun _ (kvs, states) acc ->
        Array.of_list (kvs @ List.map2 agg_finish aggs states) :: acc)
      groups []

and stream_agg_segment ctx ~params ~schema ~phase ~seg gkeys aggs rows =
  let eval_scalar row s =
    Scalar_eval.eval ~subplan:(subplan_exec ctx params) (env_of ~params schema row) s
  in
  let kpos = List.map (Colref.position_exn schema) gkeys in
  let out = ref [] in
  let current_key = ref None in
  let states = ref [] in
  let flush () =
    match !current_key with
    | None -> ()
    | Some kvs ->
        out := Array.of_list (kvs @ List.map2 agg_finish aggs !states) :: !out
  in
  List.iter
    (fun row ->
      let kvs = List.map (fun p -> row.(p)) kpos in
      (match !current_key with
      | Some prev when List.for_all2 Datum.equal prev kvs -> ()
      | _ ->
          flush ();
          current_key := Some kvs;
          states := List.map new_agg_state aggs);
      List.iter2
        (fun (a : Expr.agg) st ->
          let arg =
            match a.Expr.agg_arg with
            | None -> Datum.Bool true
            | Some e -> eval_scalar row e
          in
          agg_accumulate a st arg)
        aggs !states)
    rows;
  flush ();
  (if gkeys = [] && !out = [] then
     (if phase = Expr.Partial || seg = 0 then
        [ Array.of_list (List.map (fun a -> agg_finish a (new_agg_state a)) aggs) ]
      else [])
   else List.rev !out)

(* Window computation over one segment: rows are sorted by (partition keys,
   window order); each partition is processed as a block. With an ORDER BY,
   aggregate windows use the SQL default frame (peers included up to the
   current row) and rank/row_number follow the order; without one, aggregates
   cover the whole partition and row_number follows input order. *)
and window_segment ctx ~params ~schema partition worder
    (wfuncs : Expr.wfunc list) rows =
  let eval_scalar row s =
    Scalar_eval.eval ~subplan:(subplan_exec ctx params) (env_of ~params schema row) s
  in
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
  (* split into partitions (consecutive after the sort) *)
  let partitions =
    let rec split acc current current_key = function
      | [] -> List.rev (List.rev current :: acc)
      | row :: rest ->
          let k = part_key row in
          if current = [] || k = current_key then
            split acc (row :: current) k rest
          else split (List.rev current :: acc) [ row ] k rest
    in
    match sorted with [] -> [] | _ -> split [] [] [] sorted
  in
  let process_partition (prows : Datum.t array list) : Datum.t array list =
    let arr = Array.of_list prows in
    let n = Array.length arr in
    (* for each function, the output value per row index *)
    let outputs =
      List.map
        (fun (w : Expr.wfunc) ->
          match w.Expr.wf_kind with
          | Expr.W_row_number ->
              Array.init n (fun i -> Datum.Int (i + 1))
          | Expr.W_rank ->
              let ranks = Array.make n (Datum.Int 1) in
              let current_rank = ref 1 in
              for i = 0 to n - 1 do
                if i > 0 && order_cmp arr.(i - 1) arr.(i) <> 0 then
                  current_rank := i + 1;
                ranks.(i) <- Datum.Int !current_rank
              done;
              ranks
          | Expr.W_dense_rank ->
              let ranks = Array.make n (Datum.Int 1) in
              let current_rank = ref 1 in
              for i = 0 to n - 1 do
                if i > 0 && order_cmp arr.(i - 1) arr.(i) <> 0 then
                  incr current_rank;
                ranks.(i) <- Datum.Int !current_rank
              done;
              ranks
          | Expr.W_agg kind ->
              let arg_of i =
                match w.Expr.wf_arg with
                | None -> Datum.Bool true
                | Some e -> eval_scalar arr.(i) e
              in
              let framed = not (Sortspec.is_empty worder) in
              let out = Array.make n Datum.Null in
              if not framed then begin
                (* whole partition *)
                let a =
                  {
                    Expr.agg_kind =
                      (match kind with k -> k);
                    agg_arg = w.Expr.wf_arg;
                    agg_distinct = false;
                    agg_out = w.Expr.wf_out;
                  }
                in
                let st = new_agg_state a in
                for i = 0 to n - 1 do
                  agg_accumulate a st (arg_of i)
                done;
                let v = agg_finish a st in
                Array.fill out 0 n v
              end
              else begin
                (* running frame, peers included: accumulate row by row, and
                   assign the value at the last peer of each group *)
                let a =
                  {
                    Expr.agg_kind = kind;
                    agg_arg = w.Expr.wf_arg;
                    agg_distinct = false;
                    agg_out = w.Expr.wf_out;
                  }
                in
                let st = new_agg_state a in
                let i = ref 0 in
                while !i < n do
                  (* find the peer block [i, j) *)
                  let j = ref (!i + 1) in
                  while !j < n && order_cmp arr.(!i) arr.(!j) = 0 do incr j done;
                  for k = !i to !j - 1 do
                    agg_accumulate a st (arg_of k)
                  done;
                  let v = agg_finish a st in
                  for k = !i to !j - 1 do
                    out.(k) <- v
                  done;
                  i := !j
                done
              end;
              out)
        wfuncs
    in
    List.init n (fun i ->
        Array.append arr.(i)
          (Array.of_list (List.map (fun o -> o.(i)) outputs)))
  in
  List.concat_map process_partition partitions

and run_motion ctx ~params (p : Expr.plan) (motion : Expr.motion) :
    Datum.t array list array =
  let nsegs = ctx.cluster.Cluster.nsegs in
  let m = mach ctx in
  let child = List.hd p.Expr.pchildren in
  let segs = eval ctx ~params child in
  let schema = child.Expr.pschema in
  (* replicated inputs contribute a single copy (segment 0's) *)
  let is_replicated = delivered_dist child = Props.D_replicated in
  let sources =
    if is_replicated then
      Array.init nsegs (fun i -> if i = 0 then segs.(0) else [])
    else segs
  in
  let charge_net rows =
    let n = float_of_int (List.length rows) in
    let bytes = rows_bytes rows in
    ctx.metrics.Metrics.rows_moved <- ctx.metrics.Metrics.rows_moved +. n;
    ctx.metrics.Metrics.net_bytes <- ctx.metrics.Metrics.net_bytes +. bytes;
    (n *. m.Machine.net_tuple) +. (bytes *. m.Machine.net_byte)
  in
  match motion with
  | Expr.Gather ->
      let all = List.concat (Array.to_list sources) in
      (* receive at the master is serial *)
      Metrics.charge ctx.metrics (charge_net all);
      let out = Array.make nsegs [] in
      out.(0) <- all;
      out
  | Expr.Gather_merge spec ->
      let all = List.concat (Array.to_list sources) in
      Metrics.charge ctx.metrics (charge_net all);
      Metrics.charge ctx.metrics
        (float_of_int (List.length all) *. m.Machine.cpu_tuple *. 0.3);
      let out = Array.make nsegs [] in
      out.(0) <- List.stable_sort (Sortspec.row_compare spec ~schema) all;
      out
  | Expr.Redistribute es ->
      let out = Array.make nsegs [] in
      let counter = ref 0 in
      let dest row =
        match es with
        | [] ->
            (* round-robin *)
            incr counter;
            !counter mod nsegs
        | es ->
            let vals =
              List.map
                (fun e ->
                  Scalar_eval.eval
                    ~subplan:(subplan_exec ctx params)
                    (env_of ~params schema row) e)
                es
            in
            Cluster.hash_datums vals mod nsegs
      in
      let per_seg_recv = Array.make nsegs 0.0 in
      Array.iter
        (List.iter (fun row ->
             let d = dest row in
             out.(d) <- row :: out.(d);
             per_seg_recv.(d) <-
               per_seg_recv.(d)
               +. m.Machine.net_tuple
               +. (float_of_int (Cluster.row_bytes row) *. m.Machine.net_byte);
             ctx.metrics.Metrics.rows_moved <-
               ctx.metrics.Metrics.rows_moved +. 1.0;
             ctx.metrics.Metrics.net_bytes <-
               ctx.metrics.Metrics.net_bytes
               +. float_of_int (Cluster.row_bytes row)))
        sources;
      (* elapsed: the busiest receiving segment *)
      Metrics.charge_max ctx.metrics per_seg_recv;
      Array.map List.rev out
  | Expr.Broadcast ->
      let all = List.concat (Array.to_list sources) in
      (* every segment receives the full input *)
      Metrics.charge ctx.metrics (charge_net all *. float_of_int 1);
      Metrics.charge ctx.metrics
        (float_of_int (List.length all)
        *. float_of_int (nsegs - 1)
        *. m.Machine.net_tuple /. float_of_int nsegs);
      Array.make nsegs all

and run_set ctx kind (children : Datum.t array list array list) :
    Datum.t array list array =
  let nsegs = ctx.cluster.Cluster.nsegs in
  match (kind, children) with
  | Expr.Union_all, _ ->
      Array.init nsegs (fun seg ->
          List.concat_map (fun c -> c.(seg)) children)
  | Expr.Union_distinct, _ ->
      Array.init nsegs (fun seg ->
          let seen = Hashtbl.create 64 in
          List.concat_map (fun c -> c.(seg)) children
          |> List.filter (fun row ->
                 let k = key_string (Array.to_list row) in
                 if Hashtbl.mem seen k then false
                 else begin
                   Hashtbl.replace seen k ();
                   true
                 end))
  | Expr.Intersect, [ a; b ] ->
      Array.init nsegs (fun seg ->
          let right = Hashtbl.create 64 in
          List.iter
            (fun row -> Hashtbl.replace right (key_string (Array.to_list row)) ())
            b.(seg);
          let seen = Hashtbl.create 64 in
          List.filter
            (fun row ->
              let k = key_string (Array.to_list row) in
              Hashtbl.mem right k && not (Hashtbl.mem seen k)
              && begin
                   Hashtbl.replace seen k ();
                   true
                 end)
            a.(seg))
  | Expr.Except, [ a; b ] ->
      Array.init nsegs (fun seg ->
          let right = Hashtbl.create 64 in
          List.iter
            (fun row -> Hashtbl.replace right (key_string (Array.to_list row)) ())
            b.(seg);
          let seen = Hashtbl.create 64 in
          List.filter
            (fun row ->
              let k = key_string (Array.to_list row) in
              (not (Hashtbl.mem right k))
              && (not (Hashtbl.mem seen k))
              && begin
                   Hashtbl.replace seen k ();
                   true
                 end)
            a.(seg))
  | (Expr.Intersect | Expr.Except), _ ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Exec_error
        "set operation requires exactly two inputs"

(* Correlated SubPlan execution (legacy Planner). Results are memoized per
   parameter binding for wall-clock speed, but every logical re-execution is
   charged its full simulated cost — precisely the repeated-execution penalty
   the paper's Figure 12 attributes to the Planner. *)
and subplan_exec (ctx : ctx) (outer_params : Datum.t Colref.Map.t)
    (sp : Expr.subplan) (env : Scalar_eval.env) : Datum.t array list =
  let m = mach ctx in
  let inner_params =
    List.fold_left
      (fun acc (outer_col, param_col) ->
        Colref.Map.add param_col (env outer_col) acc)
      outer_params sp.Expr.sp_params
  in
  let cache_key =
    Printf.sprintf "%d/%s"
      (Hashtbl.hash sp.Expr.sp_plan)
      (key_string
         (List.map (fun (_, pc) -> Colref.Map.find pc inner_params) sp.Expr.sp_params))
  in
  match Hashtbl.find_opt ctx.subplan_cache cache_key with
  | Some (rows, dt) ->
      ctx.metrics.Metrics.subplan_cache_hits <-
        ctx.metrics.Metrics.subplan_cache_hits + 1;
      (* the Planner would re-execute: charge the full cost again *)
      Metrics.charge ctx.metrics dt;
      rows
  | None ->
      ctx.metrics.Metrics.subplan_executions <-
        ctx.metrics.Metrics.subplan_executions + 1;
      let t0 = ctx.metrics.Metrics.sim_seconds in
      Metrics.charge ctx.metrics m.Machine.subplan_start;
      let segs = eval ctx ~params:inner_params sp.Expr.sp_plan in
      let rows = List.concat (Array.to_list segs) in
      let dt = ctx.metrics.Metrics.sim_seconds -. t0 in
      Hashtbl.replace ctx.subplan_cache cache_key (rows, dt);
      rows

(* Run a plan and return the result rows (the plan is expected to deliver a
   Singleton result at the master, segment 0). *)
let run ?(mode = Spill_to_disk) ?(dpe = true) ?observe (cluster : Cluster.t)
    (plan : Expr.plan) : Datum.t array list * Metrics.t =
  let ctx = create_ctx ~mode ~dpe ?observe cluster in
  ctx.node_ids <-
    List.map (fun (id, _, node) -> (node, id)) (Plan_ops.number plan);
  let segs = eval ctx ~params:Colref.Map.empty plan in
  let rows = List.concat (Array.to_list segs) in
  (* always-on telemetry: fold this run into the global registry *)
  let m = ctx.metrics in
  Telemetry.Metrics.inc Telemetry.Std.exec_queries;
  Telemetry.Metrics.add Telemetry.Std.exec_rows_scanned
    (int_of_float m.Metrics.rows_scanned);
  Telemetry.Metrics.add Telemetry.Std.exec_rows_moved
    (int_of_float m.Metrics.rows_moved);
  Telemetry.Metrics.add Telemetry.Std.exec_net_bytes
    (int_of_float m.Metrics.net_bytes);
  Telemetry.Metrics.add Telemetry.Std.exec_spill_bytes
    (int_of_float m.Metrics.spill_bytes);
  Telemetry.Metrics.add Telemetry.Std.exec_operators m.Metrics.operators_run;
  Telemetry.Metrics.add Telemetry.Std.exec_subplan_hits
    m.Metrics.subplan_cache_hits;
  Telemetry.Metrics.observe Telemetry.Std.exec_sim_ms
    (m.Metrics.sim_seconds *. 1000.0);
  (rows, ctx.metrics)
