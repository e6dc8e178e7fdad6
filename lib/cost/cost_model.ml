open Ir

(* The MPP cost model (paper §4.1 step 4).

   Costs approximate elapsed time: per-operator work is charged per segment
   (max over segments approximated as mean x skew), so a plan that keeps work
   distributed is cheaper than one that funnels data through the master.
   The model's parameters are deliberately exposed — TAQO (§6.2) measures how
   well the resulting cost ordering predicts actual simulated runtimes. *)

type t = {
  segments : int;
  cpu_tuple_cost : float;       (* touch one tuple *)
  cpu_operator_cost : float;    (* evaluate one scalar operator on one tuple *)
  seq_io_cost : float;          (* read one byte sequentially *)
  random_io_cost : float;       (* read one byte via an index *)
  hash_build_cost : float;      (* insert one tuple into a hash table *)
  hash_probe_cost : float;      (* probe one tuple *)
  sort_factor : float;          (* multiplier on n log n comparisons *)
  net_tuple_cost : float;       (* per tuple crossing the interconnect *)
  net_byte_cost : float;        (* per byte crossing the interconnect *)
  broadcast_factor : float;     (* penalty factor for broadcast fan-out *)
  materialize_cost : float;     (* write one byte to a spool/CTE buffer *)
  nl_tuple_cost : float;        (* per (outer x inner) pair in an NL join *)
  mem_per_segment : float;      (* working memory per segment, bytes *)
  spill_io_cost : float;        (* per byte spilled and re-read *)
}

let default =
  {
    segments = 16;
    cpu_tuple_cost = 1.0;
    cpu_operator_cost = 0.15;
    seq_io_cost = 0.01;
    random_io_cost = 0.1;
    hash_build_cost = 1.6;
    hash_probe_cost = 1.1;
    sort_factor = 0.35;
    net_tuple_cost = 2.0;
    net_byte_cost = 0.04;
    broadcast_factor = 1.3;
    materialize_cost = 0.01;
    nl_tuple_cost = 0.25;
    mem_per_segment = 64.0 *. 1024.0 *. 1024.0;
    spill_io_cost = 0.03;
  }

let with_segments t segments = { t with segments }

(* Rows processed by one segment for a stream with the given distribution. *)
let rows_per_segment t (dist : Props.dist) rows =
  match dist with
  | Props.D_singleton -> rows
  | Props.D_replicated -> rows (* each segment holds a full copy *)
  | Props.D_hashed _ | Props.D_random ->
      rows /. float_of_int (max 1 t.segments)

(* Extra memory-pressure cost: operators whose state exceeds the per-segment
   working memory spill to disk (GPDB-style). The SQL-on-Hadoop simulations
   instead *fail* in this situation; here it just costs. *)
let spill_cost t ~state_bytes ~stream_bytes =
  if state_bytes <= t.mem_per_segment then 0.0
  else (state_bytes +. stream_bytes) *. t.spill_io_cost

(* Description of one child input to a costed operator. *)
type input = { rows : float; width : float; dist : Props.dist; skew : float }

let input ?(skew = 1.0) ~rows ~width ~dist () = { rows; width; dist; skew }

let per_seg t (i : input) = rows_per_segment t i.dist i.rows *. i.skew

let nlog2n n =
  let n = Float.max n 2.0 in
  n *. (Float.log n /. Float.log 2.0)

(* Incremental cost of a physical operator (children costs excluded).
   [rows_out]/[width_out] describe the operator's output; [inputs] its
   children's outputs; [scan_rows] the pre-filter base cardinality for scans;
   [out_dist] the operator's delivered distribution. *)
let op_cost (t : t) (op : Expr.physical) ~(rows_out : float)
    ~(width_out : float) ~(inputs : input list) ~(scan_rows : float)
    ~(out_dist : Props.dist) : float =
  let in0 () =
    match inputs with
    | i :: _ -> i
    | [] -> { rows = 0.0; width = 0.0; dist = Props.D_random; skew = 1.0 }
  in
  let in1 () =
    match inputs with
    | _ :: i :: _ -> i
    | _ -> { rows = 0.0; width = 0.0; dist = Props.D_random; skew = 1.0 }
  in
  let out_per_seg = rows_per_segment t out_dist rows_out in
  match op with
  | Expr.P_table_scan (td, parts, filter) ->
      let frac =
        match parts with
        | None -> 1.0
        | Some kept ->
            let total = max 1 (Table_desc.npartitions td) in
            float_of_int (List.length kept) /. float_of_int total
      in
      let base = rows_per_segment t (Physical_ops.table_dist td) scan_rows *. frac in
      let filter_ops =
        match filter with
        | None -> 0.0
        | Some f -> float_of_int (List.length (Scalar_ops.conjuncts f))
      in
      base *. (t.cpu_tuple_cost +. (width_out *. t.seq_io_cost))
      +. (base *. filter_ops *. t.cpu_operator_cost)
  | Expr.P_index_scan (td, _, _, _, _) ->
      let base = rows_per_segment t (Physical_ops.table_dist td) scan_rows in
      (* btree descent + selective fetch *)
      (Float.log (Float.max 2.0 base) *. t.random_io_cost *. 100.0)
      +. (out_per_seg *. (t.cpu_tuple_cost +. (width_out *. t.random_io_cost)))
  | Expr.P_filter pred ->
      let i = in0 () in
      per_seg t i
      *. float_of_int (List.length (Scalar_ops.conjuncts pred))
      *. t.cpu_operator_cost
  | Expr.P_project projs ->
      (* pass-through columns are nearly free (slot projection); only
         computed expressions pay per-operator cost *)
      let computed =
        List.length
          (List.filter
             (fun p -> match p.Expr.proj_expr with Expr.Col _ -> false | _ -> true)
             projs)
      in
      let i = in0 () in
      per_seg t i
      *. ((float_of_int computed *. t.cpu_operator_cost)
         +. (0.05 *. t.cpu_tuple_cost))
  | Expr.P_hash_join (_, keys, _) ->
      let o = in0 () and i = in1 () in
      let build_rows = per_seg t i and probe_rows = per_seg t o in
      let key_ops = float_of_int (max 1 (List.length keys)) in
      let state = build_rows *. i.width in
      build_rows *. t.hash_build_cost
      +. (probe_rows *. t.hash_probe_cost *. key_ops)
      +. (out_per_seg *. t.cpu_tuple_cost)
      +. spill_cost t ~state_bytes:state ~stream_bytes:(probe_rows *. o.width)
  | Expr.P_merge_join (_, _, _) ->
      let o = in0 () and i = in1 () in
      ((per_seg t o +. per_seg t i) *. t.cpu_tuple_cost *. 1.15)
      +. (out_per_seg *. t.cpu_tuple_cost)
  | Expr.P_nl_join (_, cond) ->
      let o = in0 () and i = in1 () in
      let inner_local = per_seg t i in
      let cond_ops =
        float_of_int (max 1 (List.length (Scalar_ops.conjuncts cond)))
      in
      (per_seg t o *. Float.max 1.0 inner_local *. t.nl_tuple_cost *. cond_ops)
      +. (inner_local *. i.width *. t.materialize_cost)
      +. (out_per_seg *. t.cpu_tuple_cost)
  | Expr.P_hash_agg (_, keys, aggs) ->
      let i = in0 () in
      let input_rows = per_seg t i in
      let groups = out_per_seg in
      let state = groups *. width_out in
      input_rows *. t.hash_build_cost
      +. (input_rows
          *. float_of_int (max 1 (List.length keys + List.length aggs))
          *. t.cpu_operator_cost)
      +. spill_cost t ~state_bytes:state ~stream_bytes:(input_rows *. i.width)
  | Expr.P_stream_agg (_, keys, aggs) ->
      let i = in0 () in
      per_seg t i
      *. float_of_int (max 1 (List.length keys + List.length aggs))
      *. t.cpu_operator_cost
      +. (per_seg t i *. t.cpu_tuple_cost *. 0.5)
  | Expr.P_window (_, _, wfuncs) ->
      let i = in0 () in
      per_seg t i
      *. float_of_int (max 1 (List.length wfuncs))
      *. t.cpu_operator_cost
      +. (per_seg t i *. t.cpu_tuple_cost *. 0.3)
  | Expr.P_sort _ ->
      let i = in0 () in
      let n = per_seg t i in
      let bytes = n *. i.width in
      nlog2n n *. t.sort_factor *. t.cpu_tuple_cost
      +. spill_cost t ~state_bytes:bytes ~stream_bytes:bytes
  | Expr.P_limit _ -> out_per_seg *. t.cpu_tuple_cost *. 0.1
  | Expr.P_motion m -> (
      let i = in0 () in
      let tuple_net w = t.net_tuple_cost +. (w *. t.net_byte_cost) in
      match m with
      | Expr.Gather | Expr.Gather_merge _ ->
          (* every row lands on the master: serial receive *)
          let merge =
            match m with
            | Expr.Gather_merge _ -> i.rows *. t.cpu_tuple_cost *. 0.3
            | _ -> 0.0
          in
          (i.rows *. tuple_net i.width) +. merge
      | Expr.Redistribute _ ->
          (* parallel exchange; destination skew concentrates receive work *)
          per_seg t i *. tuple_net i.width
          *. Float.max 1.0 (match out_dist with
             | Props.D_hashed _ -> 1.0
             | _ -> 1.0)
          *. i.skew
      | Expr.Broadcast ->
          (* every segment receives the full input *)
          i.rows *. tuple_net i.width *. t.broadcast_factor)
  | Expr.P_cte_producer _ ->
      let i = in0 () in
      per_seg t i *. (t.cpu_tuple_cost +. (i.width *. t.materialize_cost))
  | Expr.P_cte_consumer _ -> out_per_seg *. t.cpu_tuple_cost *. 0.5
  | Expr.P_sequence _ -> 0.0
  | Expr.P_set (kind, _) -> (
      let total_in = List.fold_left (fun a i -> a +. per_seg t i) 0.0 inputs in
      match kind with
      | Expr.Union_all -> total_in *. t.cpu_tuple_cost *. 0.2
      | Expr.Union_distinct | Expr.Intersect | Expr.Except ->
          total_in *. t.hash_build_cost)
  | Expr.P_const_table (_, rows) ->
      float_of_int (List.length rows) *. t.cpu_tuple_cost
  | Expr.P_partition_selector _ -> t.cpu_tuple_cost

(* Cost of an enforcer applied on a stream with the given properties. *)
let enforcer_cost (t : t) (enf : Props.enforcer) ~(rows : float)
    ~(width : float) ~(dist : Props.dist) ~(skew : float) : float =
  let i = { rows; width; dist; skew } in
  match enf with
  | Props.E_sort spec ->
      let out_dist = dist in
      op_cost t (Expr.P_sort spec) ~rows_out:rows ~width_out:width
        ~inputs:[ i ] ~scan_rows:0.0 ~out_dist
  | Props.E_motion m ->
      let out_dist = (Props.apply_enforcer { Props.ddist = dist; dorder = [] } enf).Props.ddist in
      op_cost t (Expr.P_motion m) ~rows_out:rows ~width_out:width ~inputs:[ i ]
        ~scan_rows:0.0 ~out_dist
