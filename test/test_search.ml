open Ir
module Memo = Memolib.Memo

(* Tests for the search engine: request schedules and deep invariants over
   the optimization contexts of a fully optimized Memo. *)

let a = Fixtures.col 11 "a"
let b = Fixtures.col 12 "b"

let test_join_request_schedules () =
  let op =
    Expr.P_hash_join (Expr.Inner, [ (Expr.Col a, Expr.Col b) ], None)
  in
  let alts =
    Search.Requests.alternatives op ~req:Props.any_req
      ~child_out_cols:[ [ a ]; [ b ] ]
  in
  (* inner join: co-located + broadcast-inner + broadcast-outer + singleton *)
  Alcotest.(check int) "four alternatives" 4 (List.length alts);
  List.iter
    (fun reqs -> Alcotest.(check int) "binary" 2 (List.length reqs))
    alts;
  (* full outer: no broadcast variants *)
  let fo =
    Search.Requests.alternatives
      (Expr.P_hash_join (Expr.Full_outer, [ (Expr.Col a, Expr.Col b) ], None))
      ~req:Props.any_req ~child_out_cols:[ [ a ]; [ b ] ]
  in
  Alcotest.(check int) "full outer restricted" 2 (List.length fo);
  List.iter
    (fun reqs ->
      List.iter
        (fun (r : Props.req) ->
          Alcotest.(check bool) "no replicated requests" true
            (r.Props.rdist <> Props.Req_replicated))
        reqs)
    fo;
  (* left outer: broadcast-inner ok, broadcast-outer not *)
  let lo =
    Search.Requests.alternatives
      (Expr.P_hash_join (Expr.Left_outer, [ (Expr.Col a, Expr.Col b) ], None))
      ~req:Props.any_req ~child_out_cols:[ [ a ]; [ b ] ]
  in
  Alcotest.(check bool) "left outer keeps broadcast-inner" true
    (List.exists
       (fun reqs ->
         match reqs with
         | [ _; (r : Props.req) ] -> r.Props.rdist = Props.Req_replicated
         | _ -> false)
       lo);
  Alcotest.(check bool) "left outer drops broadcast-outer" true
    (not
       (List.exists
          (fun reqs ->
            match reqs with
            | [ (r : Props.req); _ ] -> r.Props.rdist = Props.Req_replicated
            | _ -> false)
          lo))

let test_agg_request_schedules () =
  let agg =
    { Expr.agg_kind = Expr.Count_star; agg_arg = None; agg_distinct = false;
      agg_out = Fixtures.col 13 "c" }
  in
  (* a global (no-keys) one-phase aggregate must run on the master *)
  let global =
    Search.Requests.alternatives
      (Expr.P_hash_agg (Expr.One_phase, [], [ agg ]))
      ~req:Props.any_req ~child_out_cols:[ [ a ] ]
  in
  Alcotest.(check bool) "global agg needs singleton" true
    (List.for_all
       (fun reqs ->
         match reqs with
         | [ (r : Props.req) ] -> r.Props.rdist = Props.Req_singleton
         | _ -> false)
       global);
  (* a partial aggregate takes anything *)
  let partial =
    Search.Requests.alternatives
      (Expr.P_hash_agg (Expr.Partial, [ a ], [ agg ]))
      ~req:Props.any_req ~child_out_cols:[ [ a ] ]
  in
  Alcotest.(check bool) "partial agg requests Any" true
    (List.for_all
       (fun reqs ->
         match reqs with
         | [ (r : Props.req) ] -> r.Props.rdist = Props.Any_dist
         | _ -> false)
       partial);
  (* a stream aggregate asks its child for group-key order *)
  let stream =
    Search.Requests.alternatives
      (Expr.P_stream_agg (Expr.One_phase, [ a ], [ agg ]))
      ~req:Props.any_req ~child_out_cols:[ [ a ] ]
  in
  Alcotest.(check bool) "stream agg requests order" true
    (List.for_all
       (fun reqs ->
         match reqs with
         | [ (r : Props.req) ] -> not (Sortspec.is_empty r.Props.rorder)
         | _ -> false)
       stream)

let test_filter_passes_request_through () =
  let req = { Props.rdist = Props.Req_singleton; rorder = [ Sortspec.asc a ] } in
  match
    Search.Requests.alternatives
      (Expr.P_filter (Expr.Const (Datum.Bool true)))
      ~req ~child_out_cols:[ [ a ] ]
  with
  | [ [ child ] ] ->
      Alcotest.(check bool) "same request" true (Props.req_equal child req)
  | _ -> Alcotest.fail "expected one pass-through alternative"

let test_project_blocks_lost_columns () =
  (* projecting away the ordering column must not pass the order through *)
  let projs = [ { Expr.proj_expr = Expr.Col b; proj_out = b } ] in
  let req = { Props.rdist = Props.Any_dist; rorder = [ Sortspec.asc a ] } in
  match
    Search.Requests.alternatives (Expr.P_project projs) ~req
      ~child_out_cols:[ [ a; b ] ]
  with
  | [ [ (child : Props.req) ] ] ->
      Alcotest.(check bool) "order dropped" true
        (Sortspec.is_empty child.Props.rorder)
  | _ -> Alcotest.fail "expected one alternative"

(* Deep invariant: after optimizing a real query, every costed alternative
   delivers properties satisfying its context's request, every child context
   it references exists with a best plan, and the context best is minimal. *)
let test_context_invariants () =
  let _, report, _, _ =
    Fixtures.run_orca_sql
      "SELECT t1.a, count(*) AS c FROM t1, t2 WHERE t1.a = t2.b AND t2.a < \
       150 GROUP BY t1.a ORDER BY c DESC, t1.a LIMIT 7"
  in
  let memo = report.Orca.Optimizer.memo in
  let checked = ref 0 in
  List.iter
    (fun gid ->
      List.iter
        (fun (ctx : Memo.context) ->
          (match ctx.Memo.cx_best with
          | Some best ->
              List.iter
                (fun (alt : Memo.alternative) ->
                  incr checked;
                  Alcotest.(check bool) "alternative satisfies request" true
                    (Props.satisfies alt.Memo.a_derived ctx.Memo.cx_req);
                  Alcotest.(check bool) "best is minimal" true
                    (best.Memo.a_cost <= alt.Memo.a_cost +. 1e-9);
                  List.iter2
                    (fun cg cr ->
                      match Memo.find_context memo cg cr with
                      | Some cctx ->
                          Alcotest.(check bool) "child context has a plan" true
                            (cctx.Memo.cx_best <> None)
                      | None -> Alcotest.fail "dangling child context")
                    alt.Memo.a_gexpr.Memo.ge_children alt.Memo.a_child_reqs)
                (Memo.alternatives memo gid ctx)
          | None -> ()))
        (Memo.contexts_of_group memo gid))
    (Memo.group_ids memo);
  Alcotest.(check bool)
    (Printf.sprintf "checked %d alternatives" !checked)
    true (!checked > 20)

let test_goal_queue_effectiveness () =
  (* optimizing shares work through goal queues: hits must be substantial *)
  let _, report, _, _ =
    Fixtures.run_orca_sql
      "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY t1.a LIMIT 3"
  in
  Alcotest.(check bool)
    (Printf.sprintf "goal hits (%d)" report.Orca.Optimizer.goal_hits)
    true
    (report.Orca.Optimizer.goal_hits > 0)

let test_timeout_still_produces_plan () =
  let s = Lazy.force Fixtures.small in
  let accessor =
    Catalog.Accessor.create ~provider:s.Fixtures.provider ~cache:s.Fixtures.cache ()
  in
  let sql = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY t1.a LIMIT 3" in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  (* a zero-millisecond exploration budget: the plan must still come out *)
  let config =
    Orca.Orca_config.with_stages
      (Lazy.force Fixtures.orca_config)
      [ Xform.Ruleset.stage ~timeout_ms:(Some 0.0) ~name:"rushed"
          Xform.Ruleset.default ]
  in
  let report = Orca.Optimizer.optimize ~config accessor query in
  let rows, _ = Exec.Executor.run s.Fixtures.cluster report.Orca.Optimizer.plan in
  Alcotest.(check bool) "correct under timeout" true
    (Fixtures.rows_equal rows (Fixtures.run_naive_sql sql))

let test_index_scan_end_to_end () =
  (* the date_dim d_date_sk index: an equality predicate should admit an
     IndexScan alternative, and whatever wins must execute correctly *)
  let cluster = Fixtures.tpcds_cluster () in
  let accessor = Fixtures.tpcds_accessor () in
  let sql = "SELECT d_year, d_moy FROM date_dim WHERE d_date_sk = 725" in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  let config = Orca.Orca_config.with_segments Orca.Orca_config.default 4 in
  let report = Orca.Optimizer.optimize ~config accessor query in
  let memo = report.Orca.Optimizer.memo in
  let has_index_alternative =
    List.exists
      (fun gid ->
        List.exists
          (fun (_, op) ->
            match op with Expr.P_index_scan _ -> true | _ -> false)
          (Memo.physical_exprs (Memo.group memo gid)))
      (Memo.group_ids memo)
  in
  Alcotest.(check bool) "index scan in the plan space" true
    has_index_alternative;
  let rows, _ = Exec.Executor.run cluster report.Orca.Optimizer.plan in
  Alcotest.(check bool) "correct result" true
    (Fixtures.rows_equal rows (Exec.Naive.run cluster query))

(* Contexts keep only their winner; [Memo.alternatives] rebuilds the rest.
   Over all 111 TPC-DS queries the rebuilt lists must be the lists costing
   recorded, pinned by test/alt_digests_fixture.ml (generated from the
   eagerly recorded lists, see Alt_digest): same alternatives in the same
   order with bit-identical costs, and the same root plan count, under the
   default configuration. The scheduled configurations offer alternatives
   in job order, so there the lists need only hold the same alternatives. *)
let test_derived_alternatives_exact () =
  let accessor = Fixtures.tpcds_accessor in
  let alternatives = Memo.alternatives in
  List.iter
    (fun (qid, ordered, multiset, count) ->
      let q = Tpcds.Queries.get qid in
      let d =
        Alt_digest.digest ~alternatives ~accessor
          ~config:Alt_digest.default_config q
      in
      Alcotest.(check string) (Printf.sprintf "q%d: lists" qid) ordered
        d.Alt_digest.ordered;
      Alcotest.(check string) (Printf.sprintf "q%d: multisets" qid) multiset
        d.Alt_digest.multiset;
      Alcotest.(check (float 0.0)) (Printf.sprintf "q%d: plan count" qid)
        count d.Alt_digest.count;
      List.iter
        (fun (label, config) ->
          let d = Alt_digest.digest ~alternatives ~accessor ~config q in
          Alcotest.(check string)
            (Printf.sprintf "q%d, %s: multisets" qid label)
            multiset d.Alt_digest.multiset)
        Alt_digest.other_configs)
    Alt_digests_fixture.rows;
  Alcotest.(check int) "every query pinned"
    (Tpcds.Queries.count ())
    (List.length Alt_digests_fixture.rows)

(* The incumbent bound skips enforcer chains without offering them, but
   [Memo.alternatives] still rebuilds them, since their vectors' base costs
   are in the table: summed over every context, the derived lists hold
   exactly the offered plus the pruned alternatives. *)
let test_bound_accounts_for_every_alternative () =
  List.iter
    (fun qid ->
      let config = Orca.Orca_config.with_obs Alt_digest.default_config in
      let report =
        Alt_digest.optimize ~accessor:Fixtures.tpcds_accessor ~config
          (Tpcds.Queries.get qid)
      in
      let memo = report.Orca.Optimizer.memo in
      let derived =
        List.fold_left
          (fun acc gid ->
            List.fold_left
              (fun acc ctx ->
                acc + List.length (Memo.alternatives memo gid ctx))
              acc
              (Memo.contexts_of_group memo gid))
          0 (Memo.group_ids memo)
      in
      let obs = Option.get report.Orca.Optimizer.obs in
      let offered = Obs.Report.alternatives_offered obs.Obs.Report.memo in
      let pruned = obs.Obs.Report.search.Obs.Report.c_alternatives_pruned in
      Alcotest.(check int)
        (Printf.sprintf "q%d: derived = offered + pruned" qid)
        derived (offered + pruned);
      Alcotest.(check bool) (Printf.sprintf "q%d: the bound pruned" qid) true
        (pruned > 0))
    [ 5; 75 ]

(* One default-configuration stage over a TPC-DS query, built the way
   [Orca.Optimizer] builds it, so the engine's request-vector table can be
   read after costing. *)
let costed_engine qid =
  let config = Alt_digest.default_config in
  let accessor = Fixtures.tpcds_accessor () in
  let query =
    Sqlfront.Binder.bind_sql accessor (Tpcds.Queries.get qid).Tpcds.Queries.sql
  in
  let factory = Catalog.Accessor.factory accessor in
  Colref.Factory.bump factory (Dxl.Dxl_query.max_col_id query);
  let tree =
    (Xform.Decorrelate.run factory query.Dxl.Dxl_query.tree)
      .Xform.Decorrelate.tree
    |> Xform.Normalize.run
    |> Xform.Prune_columns.run ~output:query.Dxl.Dxl_query.output
  in
  let rec to_mexpr (t : Ltree.t) : Memolib.Mexpr.t =
    {
      Memolib.Mexpr.op = Expr.Logical t.Ltree.op;
      children =
        List.map (fun c -> Memolib.Mexpr.Node (to_mexpr c)) t.Ltree.children;
    }
  in
  let memo = Memo.create () in
  let root = Memo.insert memo (to_mexpr tree) in
  Memo.set_root memo (Memo.find memo root.Memo.ge_group);
  let stage = List.hd config.Orca.Orca_config.stages in
  let engine =
    Search.Engine.create ~ruleset:stage.Xform.Ruleset.stage_rules
      ~model:config.Orca.Orca_config.model ~factory
      ~base:(Catalog.Accessor.base_stats accessor)
      memo
  in
  let plan = Search.Engine.run engine (Orca.Optimizer.root_req query) in
  (engine, memo, plan)

(* The request-vector table prices each base once: every operator cost
   model call fills one vector record, so on q5 and q75 the calls equal the
   records holding a base. Each expression's vectors are what
   [Requests.alternatives] asks under every context of its group, and a
   pass-through operator's [[any]] vector is one record across the parent
   requests that produce it. *)
let test_each_base_priced_once () =
  List.iter
    (fun qid ->
      let engine, memo, plan = costed_engine qid in
      let report =
        Alt_digest.optimize ~accessor:Fixtures.tpcds_accessor
          ~config:(Orca.Orca_config.with_obs Alt_digest.default_config)
          (Tpcds.Queries.get qid)
      in
      let obs = Option.get report.Orca.Optimizer.obs in
      let costings =
        (Search.Engine.search_profile engine).Obs.Report.c_op_costings
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q%d: the optimizer's plan cost" qid)
        report.Orca.Optimizer.plan.Expr.pcost plan.Expr.pcost;
      Alcotest.(check int)
        (Printf.sprintf "q%d: the optimizer's op costings" qid)
        obs.Obs.Report.search.Obs.Report.c_op_costings costings;
      Alcotest.(check int)
        (Printf.sprintf "q%d: op costings = priced vectors" qid)
        costings
        (Search.Engine.priced_vectors engine);
      let shared = ref 0 in
      List.iter
        (fun gid ->
          let reqs =
            List.map
              (fun (c : Memo.context) -> c.Memo.cx_req)
              (Memo.contexts_of_group memo gid)
          in
          List.iter
            (fun ((ge : Memo.gexpr), op) ->
              let per_req =
                List.map
                  (fun req -> (req, Search.Engine.request_vectors engine ge op req))
                  reqs
              in
              List.iter
                (fun (req, vs) ->
                  let asked =
                    Search.Requests.alternatives op ~req
                      ~child_out_cols:
                        (List.map (Memo.output_cols memo) ge.Memo.ge_children)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "q%d: ge %d's vectors under %s" qid
                       ge.Memo.ge_id (Props.req_to_string req))
                    true
                    (List.equal (List.equal Props.req_equal) asked
                       (List.map Search.Engine.vector_reqs vs)))
                per_req;
              if Search.Requests.passes_request op then
                match
                  List.concat_map
                    (fun (_, vs) ->
                      List.filter
                        (fun v ->
                          List.equal Props.req_equal
                            (Search.Engine.vector_reqs v) [ Props.any_req ])
                        vs)
                    per_req
                with
                | v :: (_ :: _ as rest) ->
                    incr shared;
                    Alcotest.(check bool)
                      (Printf.sprintf "q%d: ge %d's [any] is one record" qid
                         ge.Memo.ge_id)
                      true
                      (List.for_all (fun w -> w == v) rest);
                    Alcotest.(check bool)
                      (Printf.sprintf "q%d: ge %d's [any] is priced" qid
                         ge.Memo.ge_id)
                      true
                      (Search.Engine.vector_priced v)
                | _ -> ())
            (Memo.physical_exprs (Memo.group memo gid)))
        (Memo.group_ids memo);
      Alcotest.(check bool)
        (Printf.sprintf "q%d: an [any] vector serves several requests" qid)
        true (!shared > 0))
    [ 5; 75 ]

(* Rules fire in promise order, highest first. Each rule application on a
   source expression inserts its new expressions at once, so walking the
   expressions one source's exploration (or implementation) rules created,
   in gexpr-id order, the recorded promises must never rise. *)
let test_rules_fire_in_promise_order () =
  let accessor = Fixtures.small_accessor () in
  let sql =
    "SELECT x.a FROM t1 x, t1 y, t2 z WHERE x.a = y.a AND y.b = z.b"
  in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  let config = Orca.Orca_config.with_prov (Lazy.force Fixtures.orca_config) in
  let memo =
    (Orca.Optimizer.optimize ~config accessor query).Orca.Optimizer.memo
  in
  let exploration name =
    match Xform.Ruleset.find_by_name Xform.Ruleset.default name with
    | Some r -> Xform.Rule.is_exploration r
    | None -> Alcotest.failf "unknown rule %s" name
  in
  (* (kind, source ge_id) -> (ge_id, promise) of every expression created *)
  let created = Hashtbl.create 64 in
  List.iter
    (fun gid ->
      let g = Memo.group memo gid in
      List.iter
        (fun (ge : Memo.gexpr) ->
          Option.iter
            (fun (o : Memo.origin) ->
              let key = (exploration o.Memo.o_rule, o.Memo.o_source) in
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt created key)
              in
              Hashtbl.replace created key
                ((ge.Memo.ge_id, o.Memo.o_promise) :: prev))
            ge.Memo.ge_origin)
        (List.map fst (Memo.logical_exprs g)
        @ List.map fst (Memo.physical_exprs g)))
    (Memo.group_ids memo);
  let mixed = Hashtbl.create 2 in
  Hashtbl.iter
    (fun (explore, src) made ->
      let promises = List.map snd (List.sort compare made) in
      let rec non_rising = function
        | p :: (q :: _ as rest) -> p >= q && non_rising rest
        | _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s rules on gexpr %d: promises never rise"
           (if explore then "exploration" else "implementation") src)
        true (non_rising promises);
      if List.length (List.sort_uniq compare promises) > 1 then
        Hashtbl.replace mixed explore ())
    created;
  (* not vacuous: some source saw rules of different promise fire *)
  Alcotest.(check bool) "an exploration source fired mixed promises" true
    (Hashtbl.mem mixed true);
  Alcotest.(check bool) "an implementation source fired mixed promises" true
    (Hashtbl.mem mixed false)

let suite =
  [
    Alcotest.test_case "join request schedules" `Quick test_join_request_schedules;
    Alcotest.test_case "agg request schedules" `Quick test_agg_request_schedules;
    Alcotest.test_case "filter pass-through" `Quick test_filter_passes_request_through;
    Alcotest.test_case "project blocks lost cols" `Quick test_project_blocks_lost_columns;
    Alcotest.test_case "context invariants" `Quick test_context_invariants;
    Alcotest.test_case "derived alternatives exact (111 queries)" `Quick
      test_derived_alternatives_exact;
    Alcotest.test_case "goal queue effectiveness" `Quick test_goal_queue_effectiveness;
    Alcotest.test_case "timeout still plans" `Quick test_timeout_still_produces_plan;
    Alcotest.test_case "index scan end to end" `Quick test_index_scan_end_to_end;
    Alcotest.test_case "bound: offered + pruned = derived (q5, q75)" `Quick
      test_bound_accounts_for_every_alternative;
    Alcotest.test_case "each base priced once (q5, q75)" `Quick
      test_each_base_priced_once;
    Alcotest.test_case "rules fire in promise order" `Quick
      test_rules_fire_in_promise_order;
  ]
