open Ir

(* The legacy "Planner" baseline (paper §7.2): a PostgreSQL-style bottom-up
   optimizer. It is a robust planner — it uses base-table row counts and
   simple selectivity constants, runs a System-R dynamic program over
   left-deep join trees, and plans motions — but it lacks exactly the four
   features the paper credits for Orca's largest wins:

     - join ordering degrades to syntactic order beyond [dp_limit] relations,
       and its estimates ignore histograms entirely;
     - correlated subqueries run as SubPlans re-executed per outer row;
     - WITH/CTE producers are inlined (re-planned and re-executed) per
       consumer instead of shared;
     - partitioned tables are always scanned in full (no elimination);
     - joins are always planned by redistributing both sides (never
       broadcast), and non-equi joins are gathered to the master. *)

type config = {
  segments : int;
  dp_limit : int; (* max relations considered by the join-order DP *)
  broadcast_inner : bool;
      (* Impala-style motion planning: always replicate the join's inner side
         to every node instead of redistributing both sides. Cheap for small
         dimensions, catastrophic (and memory-hungry) for fact-fact joins. *)
}

let default_config = { segments = 16; dp_limit = 5; broadcast_inner = false }

(* --- crude cardinality estimation: row counts + magic constants --- *)

let eq_sel = 0.02
let range_sel = 1.0 /. 3.0
let like_sel = 0.1
let default_sel = 0.25

let rec pred_selectivity (p : Expr.scalar) : float =
  match p with
  | Expr.Const (Datum.Bool true) | Expr.Slot (_, Datum.Bool true) -> 1.0
  | Expr.Const (Datum.Bool false) | Expr.Slot (_, Datum.Bool false) -> 0.0
  | Expr.Cmp (Expr.Eq, _, _) -> eq_sel
  | Expr.Cmp (_, _, _) -> range_sel
  | Expr.And ps -> List.fold_left (fun a p -> a *. pred_selectivity p) 1.0 ps
  | Expr.Or ps ->
      1.0 -. List.fold_left (fun a p -> a *. (1.0 -. pred_selectivity p)) 1.0 ps
  | Expr.Not p -> 1.0 -. pred_selectivity p
  | Expr.In_list (_, vs) ->
      Float.min 1.0 (eq_sel *. float_of_int (List.length vs))
  | Expr.Like _ -> like_sel
  | Expr.Is_null _ -> 0.05
  | _ -> default_sel

(* --- planner state --- *)

type t = {
  config : config;
  accessor : Catalog.Accessor.t;
  factory : Colref.Factory.t;
}

let create ?(config = default_config) (accessor : Catalog.Accessor.t) : t =
  { config; accessor; factory = Catalog.Accessor.factory accessor }

let table_rows t (td : Table_desc.t) =
  Float.max 1.0 (Stats.Relstats.rows (Catalog.Accessor.base_stats t.accessor td))

(* simple cost used by the DP: rows processed plus motion charges *)
let motion_charge = 2.5

(* a planned subtree with its crude estimated row count *)
type sub = { plan : Expr.plan; rows : float }

let node op children ~rows =
  let cost =
    rows +. List.fold_left (fun a c -> a +. c.Expr.pcost) 0.0 children
  in
  Plan_ops.node op children ~est_rows:rows ~cost

let schema_set (p : Expr.plan) = Colref.Set.of_list p.Expr.pschema

let delivered_dist (p : Expr.plan) : Props.dist =
  (* recompute the delivered distribution bottom-up *)
  let rec go p =
    Physical_ops.derive p.Expr.pop (List.map go p.Expr.pchildren)
  in
  (go p).Props.ddist

let gather (s : sub) : sub =
  match delivered_dist s.plan with
  | Props.D_singleton -> s
  | _ ->
      {
        plan =
          node (Expr.P_motion Expr.Gather) [ s.plan ]
            ~rows:(s.rows +. (motion_charge *. s.rows));
        rows = s.rows;
      }

let redistribute (s : sub) (cols : Expr.scalar list) : sub =
  let already =
    match delivered_dist s.plan with
    | Props.D_hashed have ->
        let want = List.filter_map (function Expr.Col c -> Some c | _ -> None) cols in
        List.length have = List.length want
        && List.for_all2 Colref.equal have want
    | _ -> false
  in
  if already then s
  else
    {
      plan =
        node (Expr.P_motion (Expr.Redistribute cols)) [ s.plan ]
          ~rows:(s.rows +. (motion_charge *. s.rows));
      rows = s.rows;
    }

let add_filter (s : sub) (pred : Expr.scalar) : sub =
  let rows = Float.max 1.0 (s.rows *. pred_selectivity pred) in
  { plan = node (Expr.P_filter pred) [ s.plan ] ~rows; rows }

(* --- join planning --- *)

(* Join two planned inputs: hash join on equi keys with both sides
   redistributed onto the keys; otherwise gather both to the master and
   nested-loop there. *)
let join_pair t (kind : Expr.join_kind) (cond : Expr.scalar) (l : sub) (r : sub)
    : sub =
  let keys, residual =
    Scalar_ops.extract_equi_keys ~outer_cols:(schema_set l.plan)
      ~inner_cols:(schema_set r.plan) cond
  in
  let join_rows =
    Float.max 1.0
      (l.rows *. r.rows
      *. (if keys = [] then pred_selectivity cond
         else eq_sel /. float_of_int (List.length keys)))
  in
  if keys <> [] && kind <> Expr.Full_outer then begin
    let res = if residual = [] then None else Some (Scalar_ops.conjoin residual) in
    let l', r' =
      if t.config.broadcast_inner && kind = Expr.Inner then
        ( l,
          {
            plan =
              node (Expr.P_motion Expr.Broadcast) [ r.plan ]
                ~rows:(r.rows *. 2.0);
            rows = r.rows;
          } )
      else
        let lkeys = List.map fst keys and rkeys = List.map snd keys in
        (redistribute l lkeys, redistribute r rkeys)
    in
    {
      plan =
        node (Expr.P_hash_join (kind, keys, res)) [ l'.plan; r'.plan ]
          ~rows:join_rows;
      rows = join_rows;
    }
  end
  else begin
    (* no equi keys: gather to the master and nested-loop *)
    let l' = gather l and r' = gather r in
    match kind with
    | Expr.Full_outer ->
        let res = if residual = [] then None else Some (Scalar_ops.conjoin residual) in
        {
          plan =
            node (Expr.P_hash_join (kind, keys, res)) [ l'.plan; r'.plan ]
              ~rows:join_rows;
          rows = join_rows;
        }
    | _ ->
        {
          plan =
            node (Expr.P_nl_join (kind, cond)) [ l'.plan; r'.plan ]
              ~rows:join_rows;
          rows = join_rows;
        }
  end

(* Flatten a tree of inner joins and selects into base inputs + predicates. *)
let rec flatten (tree : Ltree.t) : Ltree.t list * Expr.scalar list =
  match (tree.Ltree.op, tree.Ltree.children) with
  | Expr.L_join (Expr.Inner, cond), [ l; r ] ->
      let ls, lp = flatten l in
      let rs, rp = flatten r in
      (ls @ rs, lp @ rp @ Scalar_ops.conjuncts cond)
  | Expr.L_select pred, [ c ] ->
      let cs, cp = flatten c in
      (cs, cp @ Scalar_ops.conjuncts pred)
  | _ -> ([ tree ], [])

(* --- the planner --- *)

let rec plan_tree (t : t) (tree : Ltree.t) : sub =
  match (tree.Ltree.op, tree.Ltree.children) with
  | Expr.L_get td, [] ->
      (* note: no partition elimination — all partitions scanned *)
      let rows = table_rows t td in
      { plan = node (Expr.P_table_scan (td, None, None)) [] ~rows; rows }
  | Expr.L_select _, _ | Expr.L_join (Expr.Inner, _), _ ->
      plan_join_block t tree
  | Expr.L_join (kind, cond), [ l; r ] ->
      let ls = plan_tree t l and rs = plan_tree t r in
      join_pair t kind cond ls rs
  | Expr.L_project projs, [ c ] ->
      let s = plan_tree t c in
      { plan = node (Expr.P_project projs) [ s.plan ] ~rows:s.rows; rows = s.rows }
  | Expr.L_gb_agg (_, keys, aggs), [ c ] ->
      let s = plan_tree t c in
      let s =
        if keys = [] then gather s
        else redistribute s (List.map (fun k -> Expr.Col k) keys)
      in
      let groups =
        if keys = [] then 1.0 else Float.max 1.0 (s.rows *. 0.1)
      in
      {
        plan =
          node (Expr.P_hash_agg (Expr.One_phase, keys, aggs)) [ s.plan ]
            ~rows:groups;
        rows = groups;
      }
  | Expr.L_window (partition, worder, wfuncs), [ c ] ->
      let s = plan_tree t c in
      let s =
        if partition = [] then gather s
        else redistribute s (List.map (fun k -> Expr.Col k) partition)
      in
      let sort_spec = List.map Sortspec.asc partition @ worder in
      let s =
        if sort_spec = [] then s
        else { s with plan = node (Expr.P_sort sort_spec) [ s.plan ] ~rows:s.rows }
      in
      {
        plan =
          node (Expr.P_window (partition, worder, wfuncs)) [ s.plan ] ~rows:s.rows;
        rows = s.rows;
      }
  | Expr.L_limit (sort, offset, count, slots), [ c ] ->
      let s = plan_tree t c in
      let s = gather s in
      let s =
        if Sortspec.is_empty sort then s
        else { s with plan = node (Expr.P_sort sort) [ s.plan ] ~rows:s.rows }
      in
      let rows =
        match count with
        | None -> s.rows
        | Some n -> Float.min s.rows (float_of_int n)
      in
      {
        plan = node (Expr.P_limit (sort, offset, count, slots)) [ s.plan ] ~rows;
        rows;
      }
  | Expr.L_apply (kind, corr), [ outer; inner ] -> plan_apply t kind corr outer inner
  | Expr.L_cte_anchor _, [ _producer; body ] ->
      (* no CTE sharing: consumers were inlined below; skip the producer *)
      plan_tree t body
  | Expr.L_cte_producer _, [ c ] -> plan_tree t c
  | Expr.L_cte_consumer _, _ ->
      Gpos.Gpos_error.internal
        "planner: CTE consumers must be inlined before planning"
  | Expr.L_set (kind, cols), children ->
      let subs = List.map (fun c -> gather (plan_tree t c)) children in
      let rows =
        List.fold_left (fun a s -> a +. s.rows) 0.0 subs
        *. match kind with Expr.Union_all -> 1.0 | _ -> 0.7
      in
      {
        plan =
          node (Expr.P_set (kind, cols)) (List.map (fun s -> s.plan) subs) ~rows;
        rows;
      }
  | Expr.L_const_table (cols, rows), [] ->
      let n = float_of_int (List.length rows) in
      { plan = node (Expr.P_const_table (cols, rows)) [] ~rows:n; rows = n }
  | op, _ ->
      Gpos.Gpos_error.internal "planner: unexpected operator %s"
        (Logical_ops.to_string op)

(* System-R DP over left-deep join orders, or syntactic order when the block
   is too large. *)
and plan_join_block (t : t) (tree : Ltree.t) : sub =
  let inputs, preds = flatten tree in
  let planned = List.map (plan_tree t) inputs in
  let n = List.length planned in
  if n = 1 then
    let s = List.hd planned in
    apply_predicates t s preds
  else begin
    let arr = Array.of_list planned in
    let cols_of s = schema_set s.plan in
    (* predicates applicable once the given column set is available *)
    let applicable available used =
      List.mapi (fun i p -> (i, p)) preds
      |> List.filter (fun (i, p) ->
             (not (List.mem i used))
             && Colref.Set.subset (Scalar_ops.free_cols p) available)
    in
    let join_step (acc : sub * int list) (next : sub) =
      let current, used = acc in
      let available = Colref.Set.union (cols_of current) (cols_of next) in
      let ready = applicable available used in
      let cond = Scalar_ops.conjoin (List.map snd ready) in
      let joined = join_pair t Expr.Inner cond current next in
      (joined, used @ List.map fst ready)
    in
    let order =
      if n <= t.config.dp_limit then begin
        (* greedy-DP: repeatedly pick the join partner minimizing the
           intermediate result estimate (left-deep) *)
        let remaining = ref (List.init n (fun i -> i)) in
        let pick_first =
          List.fold_left
            (fun best i ->
              match best with
              | None -> Some i
              | Some b -> if arr.(i).rows < arr.(b).rows then Some i else Some b)
            None !remaining
          |> Option.get
        in
        remaining := List.filter (fun i -> i <> pick_first) !remaining;
        let order = ref [ pick_first ] in
        let current_cols = ref (cols_of arr.(pick_first)) in
        while !remaining <> [] do
          (* prefer partners connected by a predicate; break ties by size *)
          let scored =
            List.map
              (fun i ->
                let both = Colref.Set.union !current_cols (cols_of arr.(i)) in
                let connected =
                  List.exists
                    (fun p ->
                      let f = Scalar_ops.free_cols p in
                      Colref.Set.subset f both
                      && (not (Colref.Set.subset f !current_cols))
                      && not (Colref.Set.subset f (cols_of arr.(i))))
                    preds
                in
                (i, connected, arr.(i).rows))
              !remaining
          in
          let best =
            List.fold_left
              (fun best (i, conn, rows) ->
                match best with
                | None -> Some (i, conn, rows)
                | Some (_, bconn, brows) ->
                    if conn && not bconn then Some (i, conn, rows)
                    else if conn = bconn && rows < brows then Some (i, conn, rows)
                    else best)
              None scored
            |> Option.get
          in
          let i, _, _ = best in
          remaining := List.filter (fun j -> j <> i) !remaining;
          order := !order @ [ i ];
          current_cols := Colref.Set.union !current_cols (cols_of arr.(i))
        done;
        !order
      end
      else
        (* too many relations: literal syntactic order *)
        List.init n (fun i -> i)
    in
    match order with
    | [] -> Gpos.Gpos_error.internal "planner: empty join block"
    | first :: rest ->
        let init = (arr.(first), []) in
        let final, used =
          List.fold_left (fun acc i -> join_step acc arr.(i)) init rest
        in
        (* leftover predicates (single-input ones) as a filter on top *)
        let leftover =
          List.mapi (fun i p -> (i, p)) preds
          |> List.filter (fun (i, _) -> not (List.mem i used))
          |> List.map snd
        in
        if leftover = [] then final
        else apply_predicates t final leftover
  end

and apply_predicates t (s : sub) (preds : Expr.scalar list) : sub =
  ignore t;
  if preds = [] then s else add_filter s (Scalar_ops.conjoin preds)

(* Correlated subqueries: plan the inner side as a gathered SubPlan that the
   executor re-runs per outer row (PostgreSQL SubPlan semantics). *)
and plan_apply (t : t) (kind : Expr.apply_kind) (corr : Colref.t list)
    (outer : Ltree.t) (inner : Ltree.t) : sub =
  let outer_sub = plan_tree t outer in
  let inner_sub = gather (plan_tree t inner) in
  let params = List.map (fun c -> (c, c)) corr in
  let subplan sp_kind =
    Expr.Subplan { Expr.sp_kind; sp_plan = inner_sub.plan; sp_params = params }
  in
  match kind with
  | Expr.Apply_scalar out_col ->
      let pass =
        List.map
          (fun c -> { Expr.proj_expr = Expr.Col c; proj_out = c })
          outer_sub.plan.Expr.pschema
      in
      let projs =
        pass @ [ { Expr.proj_expr = subplan Expr.Sp_scalar; proj_out = out_col } ]
      in
      {
        plan = node (Expr.P_project projs) [ outer_sub.plan ] ~rows:outer_sub.rows;
        rows = outer_sub.rows;
      }
  | Expr.Apply_exists -> add_filter outer_sub (subplan Expr.Sp_exists)
  | Expr.Apply_not_exists -> add_filter outer_sub (subplan Expr.Sp_not_exists)
  | Expr.Apply_in (e, _) -> add_filter outer_sub (subplan (Expr.Sp_in e))
  | Expr.Apply_not_in (e, _) -> add_filter outer_sub (subplan (Expr.Sp_not_in e))

(* Inline CTE consumers: each consumer gets its own copy of the producer
   body, topped with a projection mapping producer outputs onto the
   consumer's column ids. *)
let rec inline_ctes (defs : (int * Ltree.t) list) (tree : Ltree.t) : Ltree.t =
  match (tree.Ltree.op, tree.Ltree.children) with
  | Expr.L_cte_anchor id, [ producer; body ] ->
      let producer_body =
        match (producer.Ltree.op, producer.Ltree.children) with
        | Expr.L_cte_producer _, [ b ] -> b
        | _ -> producer
      in
      let producer_body = inline_ctes defs producer_body in
      inline_ctes ((id, producer_body) :: defs) body
  | Expr.L_cte_consumer (id, cols), [] -> (
      match List.assoc_opt id defs with
      | Some producer ->
          let out = Ltree.output_cols producer in
          let projs =
            List.map2
              (fun src dst -> { Expr.proj_expr = Expr.Col src; proj_out = dst })
              out cols
          in
          Ltree.make (Expr.L_project projs) [ producer ]
      | None ->
          Gpos.Gpos_error.internal "planner: CTE %d has no definition" id)
  | _ ->
      {
        tree with
        Ltree.children = List.map (inline_ctes defs) tree.Ltree.children;
      }

(* Plan a DXL query. *)
let plan (t : t) (query : Dxl.Dxl_query.t) : Expr.plan =
  let tree = Xform.Normalize.run query.Dxl.Dxl_query.tree in
  let tree = inline_ctes [] tree in
  let s = plan_tree t tree in
  (* deliver the root requirements: singleton + order *)
  let s = gather s in
  let s =
    let order = query.Dxl.Dxl_query.order in
    if Sortspec.is_empty order then s
    else { s with plan = node (Expr.P_sort order) [ s.plan ] ~rows:s.rows }
  in
  let out = query.Dxl.Dxl_query.output in
  let same =
    List.length s.plan.Expr.pschema = List.length out
    && List.for_all2 Colref.equal s.plan.Expr.pschema out
  in
  if same || out = [] then s.plan
  else
    let projs =
      List.map (fun c -> { Expr.proj_expr = Expr.Col c; proj_out = c }) out
    in
    node (Expr.P_project projs) [ s.plan ] ~rows:s.rows

let plan_sql ?config accessor (query : Dxl.Dxl_query.t) : Expr.plan =
  plan (create ?config accessor) query
