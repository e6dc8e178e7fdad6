open Ir

(* lib/prov: plan provenance (explain --why), cardinality accuracy (Q-error),
   the structural plan diff, and the provenance lint (lib/verify). *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let prov_config =
  lazy (Orca.Orca_config.with_prov (Lazy.force Fixtures.orca_config))

let optimize_sql ~config accessor sql =
  let query = Sqlfront.Binder.bind_sql accessor sql in
  Orca.Optimizer.optimize ~config accessor query

let prov_of (report : Orca.Optimizer.report) =
  match report.Orca.Optimizer.prov with
  | Some p -> p
  | None -> Alcotest.fail "prov annotation missing with with_prov config"

(* The workload-template 3-join: store_sales ⋈ date_dim ⋈ item with an
   aggregate, sort and limit on top — exercises rule lineage (agg split,
   join commutativity), losing alternatives, and all three enforcer kinds. *)
let three_join_sql =
  "SELECT i_brand, sum(ss_ext_sales_price) AS revenue FROM store_sales, \
   date_dim, item WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = \
   i_item_sk AND d_year = 1998 GROUP BY i_brand ORDER BY revenue DESC, \
   i_brand LIMIT 10"

let three_join_report =
  lazy
    (Gpos.Clock.with_fake ~start:0.0 ~step:0.001 (fun () ->
         optimize_sql
           ~config:(Lazy.force prov_config)
           (Fixtures.tpcds_accessor ()) three_join_sql))

(* --- the --why golden --- *)

let golden_why =
  {golden|plan provenance (stage full):
-> Limit(<revenue#26 desc, i_brand#21 asc>, offset=0, count=10)  (rows=10 cost=5575.79)
     lineage: Limit2Limit(stage full, promise 0) <- copy-in
     only costed alternative in group 11
  -> GatherMerge<revenue#26 desc, i_brand#21 asc>  (rows=22 cost=5574.79)
       [enforcer] enforces required distribution Singleton via GatherMerge<revenue#26 desc, i_brand#21 asc> (child delivers elsewhere)
    -> Sort<revenue#26 desc, i_brand#21 asc>  (rows=22 cost=5496.03)
         [enforcer] enforces required order [<revenue#26 desc, i_brand#21 asc>] the child does not deliver
      -> Project(i_brand#21 AS i_brand#21, sum#25 AS revenue#26)  (rows=22 cost=5491.29)
           lineage: Project2ComputeScalar(stage full, promise 0) <- copy-in
           beat 2 alternatives in group 10:
             Project(i_brand#21 AS i_brand#21, sum#25 AS revenue#26) cost=5597.79 (+23.00) via Project2ComputeScalar +2 enforcers
             Project(i_brand#21 AS i_brand#21, sum#25 AS revenue#26) cost=5598.62 (+23.83) via Project2ComputeScalar +1 enforcer
        -> FinalHashAgg([i_brand#21], [sum(sum_partial#27) AS sum#25])  (rows=22 cost=5491.02)
             lineage: GbAgg2HashAgg(stage full, promise 5) <- SplitGbAgg(stage full, promise 6) <- copy-in
             beat 7 alternatives in group 9:
               FinalStreamAgg([i_brand#21], [sum(sum_partial#27) AS sum#25]) cost=5579.02 (+88.00) via GbAgg2StreamAgg
               FinalStreamAgg([i_brand#21], [sum(sum_partial#27) AS sum#25]) cost=6558.51 (+1067.50) via GbAgg2StreamAgg
               FinalHashAgg([i_brand#21], [sum(sum_partial#27) AS sum#25]) cost=6724.51 (+1233.49) via GbAgg2HashAgg
               StreamAgg([i_brand#21], [sum(ss_ext_sales_price#8) AS sum#25]) cost=6901.42 (+1410.40) via GbAgg2StreamAgg
               ... and 3 more
          -> Redistribute(i_brand#21)  (rows=318 cost=5340.21)
               [enforcer] enforces required distribution Hashed(i_brand#21) via Redistribute(i_brand#21) (child delivers elsewhere)
            -> PartialHashAgg([i_brand#21], [sum(ss_ext_sales_price#8) AS sum_partial#27])  (rows=318 cost=5079.85)
                 lineage: GbAgg2HashAgg(stage full, promise 5) <- SplitGbAgg(stage full, promise 6) <- copy-in
                 beat 1 alternative in group 13:
                   PartialStreamAgg([i_brand#21], [sum(ss_ext_sales_price#8) AS sum_partial#27]) cost=5428.21 (+88.00) via GbAgg2StreamAgg +1 enforcer
              -> InnerHashJoin(ss_item_sk#1=i_item_sk#18)  (rows=318 cost=4929.04)
                   lineage: Join2HashJoin(stage full, promise 8) <- copy-in
                   beat 43 alternatives in group 8:
                     InnerHashJoin(i_item_sk#18=ss_item_sk#1) cost=4981.89 (+52.85) via Join2HashJoin
                     InnerHashJoin(d_date_sk#11=ss_sold_date_sk#0) cost=5029.79 (+100.75) via Join2HashJoin
                     InnerHashJoin(ss_item_sk#1=i_item_sk#18) cost=5065.64 (+136.60) via Join2HashJoin
                     InnerHashJoin(i_item_sk#18=ss_item_sk#1) cost=5109.12 (+180.08) via Join2HashJoin
                     ... and 39 more
                -> InnerHashJoin(d_date_sk#11=ss_sold_date_sk#0)  (rows=448 cost=4702.45)
                     lineage: Join2HashJoin(stage full, promise 8) <- JoinCommutativity(stage full, promise 10) <- copy-in
                     beat 21 alternatives in group 5:
                       InnerHashJoin(ss_sold_date_sk#0=d_date_sk#11) cost=4757.45 (+55.00) via Join2HashJoin
                       InnerMergeJoin(ss_sold_date_sk#0=d_date_sk#11) cost=6374.93 (+1672.48) via Join2MergeJoin
                       InnerMergeJoin(d_date_sk#11=ss_sold_date_sk#0) cost=6374.93 (+1672.48) via Join2MergeJoin
                       InnerHashJoin(ss_sold_date_sk#0=d_date_sk#11) cost=8482.87 (+3780.41) via Join2HashJoin +1 enforcer
                       ... and 17 more
                  -> Project(d_date_sk#11 AS d_date_sk#11)  (rows=360 cost=3312.00)
                       lineage: Project2ComputeScalar(stage full, promise 0) <- copy-in
                       beat 1 alternative in group 4:
                         Project(d_date_sk#11 AS d_date_sk#11) cost=3312.00 (+0.00) via Project2ComputeScalar
                    -> TableScan(date_dim) filter=(d_year#13 = 1998)  (rows=360 cost=3294.00)
                         lineage: Select2Scan(stage full, promise 5) <- copy-in
                         beat 1 alternative in group 3:
                           Filter((d_year#13 = 1998)) cost=3294.00 (+0.00) via Select2Filter
                  -> Project(ss_sold_date_sk#0 AS ss_sold_date_sk#0, ss_item_sk#1 AS ss_item_sk#1, ss_ext_sales_price#8 AS ss_ext_sales_price#8)  (rows=1000 cost=482.50)
                       lineage: Project2ComputeScalar(stage full, promise 0) <- copy-in
                       beat 1 alternative in group 1:
                         Project(ss_sold_date_sk#0 AS ss_sold_date_sk#0, ss_item_sk#1 AS ss_item_sk#1, ss_ext_sales_price#8 AS ss_ext_sales_price#8) cost=482.50 (+0.00) via Project2ComputeScalar
                    -> TableScan(store_sales)  (rows=1000 cost=470.00)
                         lineage: Get2Scan(stage full, promise 0) <- copy-in
                         only costed alternative in group 0
                -> Project(i_item_sk#18 AS i_item_sk#18, i_brand#21 AS i_brand#21)  (rows=25 cost=14.06)
                     lineage: Project2ComputeScalar(stage full, promise 0) <- copy-in
                     beat 1 alternative in group 7:
                       Project(i_item_sk#18 AS i_item_sk#18, i_brand#21 AS i_brand#21) cost=14.06 (+0.00) via Project2ComputeScalar
                  -> TableScan(item)  (rows=25 cost=13.75)
                       lineage: Get2Scan(stage full, promise 0) <- copy-in
                       only costed alternative in group 6
|golden}

let test_why_golden () =
  let report = Lazy.force three_join_report in
  Alcotest.(check string)
    "golden --why rendering" golden_why
    (Prov.Provenance.why_to_string (prov_of report))

(* --- the AMPERe dump's provenance section --- *)

let golden_dump_prov = {golden|<?xml version="1.0" encoding="UTF-8"?>
<dxl:Provenance Stage="full">
  <dxl:NodeProv Id="0" Path="root" Op="Limit(&lt;revenue#26 desc, i_brand#21 asc&gt;, offset=0, count=10)" Kind="operator" Lineage="Limit2Limit(stage full, promise 0) &lt;- copy-in" Cost="5575.787687" EstRows="10.000000" Losers="0" BestDelta="0.000000"/>
  <dxl:NodeProv Id="1" Path="root.0" Op="GatherMerge&lt;revenue#26 desc, i_brand#21 asc&gt;" Kind="enforcer" Lineage="enforces required distribution Singleton via GatherMerge&lt;revenue#26 desc, i_brand#21 asc&gt; (child delivers elsewhere)" Cost="5574.787687" EstRows="22.000000" Losers="0" BestDelta="0.000000"/>
  <dxl:NodeProv Id="2" Path="root.0.0" Op="Sort&lt;revenue#26 desc, i_brand#21 asc&gt;" Kind="enforcer" Lineage="enforces required order [&lt;revenue#26 desc, i_brand#21 asc&gt;] the child does not deliver" Cost="5496.027687" EstRows="22.000000" Losers="0" BestDelta="0.000000"/>
  <dxl:NodeProv Id="3" Path="root.0.0.0" Op="Project(i_brand#21 AS i_brand#21, sum#25 AS revenue#26)" Kind="operator" Lineage="Project2ComputeScalar(stage full, promise 0) &lt;- copy-in" Cost="5491.293281" EstRows="22.000000" Losers="2" BestDelta="23.003218"/>
  <dxl:NodeProv Id="4" Path="root.0.0.0.0" Op="FinalHashAgg([i_brand#21], [sum(sum_partial#27) AS sum#25])" Kind="operator" Lineage="GbAgg2HashAgg(stage full, promise 5) &lt;- SplitGbAgg(stage full, promise 6) &lt;- copy-in" Cost="5491.018281" EstRows="22.000000" Losers="7" BestDelta="88.004726"/>
  <dxl:NodeProv Id="5" Path="root.0.0.0.0.0" Op="Redistribute(i_brand#21)" Kind="enforcer" Lineage="enforces required distribution Hashed(i_brand#21) via Redistribute(i_brand#21) (child delivers elsewhere)" Cost="5340.205175" EstRows="317.501277" Losers="0" BestDelta="0.000000"/>
  <dxl:NodeProv Id="6" Path="root.0.0.0.0.0.0" Op="PartialHashAgg([i_brand#21], [sum(ss_ext_sales_price#8) AS sum_partial#27])" Kind="operator" Lineage="GbAgg2HashAgg(stage full, promise 5) &lt;- SplitGbAgg(stage full, promise 6) &lt;- copy-in" Cost="5079.854128" EstRows="317.501277" Losers="1" BestDelta="88.004726"/>
  <dxl:NodeProv Id="7" Path="root.0.0.0.0.0.0.0" Op="InnerHashJoin(ss_item_sk#1=i_item_sk#18)" Kind="operator" Lineage="Join2HashJoin(stage full, promise 8) &lt;- copy-in" Cost="4929.041021" EstRows="317.501277" Losers="43" BestDelta="52.851953"/>
  <dxl:NodeProv Id="8" Path="root.0.0.0.0.0.0.0.0" Op="InnerHashJoin(d_date_sk#11=ss_sold_date_sk#0)" Kind="operator" Lineage="Join2HashJoin(stage full, promise 8) &lt;- JoinCommutativity(stage full, promise 10) &lt;- copy-in" Cost="4702.453906" EstRows="447.815623" Losers="21" BestDelta="55.000000"/>
  <dxl:NodeProv Id="9" Path="root.0.0.0.0.0.0.0.0.0" Op="Project(d_date_sk#11 AS d_date_sk#11)" Kind="operator" Lineage="Project2ComputeScalar(stage full, promise 0) &lt;- copy-in" Cost="3312.000000" EstRows="360.000000" Losers="1" BestDelta="0.000000"/>
  <dxl:NodeProv Id="10" Path="root.0.0.0.0.0.0.0.0.0.0" Op="TableScan(date_dim) filter=(d_year#13 = 1998)" Kind="operator" Lineage="Select2Scan(stage full, promise 5) &lt;- copy-in" Cost="3294.000000" EstRows="360.000000" Losers="1" BestDelta="0.000000"/>
  <dxl:NodeProv Id="11" Path="root.0.0.0.0.0.0.0.0.1" Op="Project(ss_sold_date_sk#0 AS ss_sold_date_sk#0, ss_item_sk#1 AS ss_item_sk#1, ss_ext_sales_price#8 AS ss_ext_sales_price#8)" Kind="operator" Lineage="Project2ComputeScalar(stage full, promise 0) &lt;- copy-in" Cost="482.500000" EstRows="1000.000000" Losers="1" BestDelta="0.000000"/>
  <dxl:NodeProv Id="12" Path="root.0.0.0.0.0.0.0.0.1.0" Op="TableScan(store_sales)" Kind="operator" Lineage="Get2Scan(stage full, promise 0) &lt;- copy-in" Cost="470.000000" EstRows="1000.000000" Losers="0" BestDelta="0.000000"/>
  <dxl:NodeProv Id="13" Path="root.0.0.0.0.0.0.0.1" Op="Project(i_item_sk#18 AS i_item_sk#18, i_brand#21 AS i_brand#21)" Kind="operator" Lineage="Project2ComputeScalar(stage full, promise 0) &lt;- copy-in" Cost="14.062500" EstRows="25.000000" Losers="1" BestDelta="0.000000"/>
  <dxl:NodeProv Id="14" Path="root.0.0.0.0.0.0.0.1.0" Op="TableScan(item)" Kind="operator" Lineage="Get2Scan(stage full, promise 0) &lt;- copy-in" Cost="13.750000" EstRows="25.000000" Losers="0" BestDelta="0.000000"/>
</dxl:Provenance>
|golden}

(* The dxl:Provenance element of a provenance-on dump of the 3-join, read
   back from the serialized dump: element, attributes and %.6f floats are
   pinned, and a DXL round trip keeps the section byte for byte. *)
let test_dump_prov_golden () =
  let report = Lazy.force three_join_report in
  let accessor = Fixtures.tpcds_accessor () in
  let query = Sqlfront.Binder.bind_sql accessor three_join_sql in
  let dump =
    Orca.Ampere.embed_report (Orca.Ampere.capture accessor query) report
  in
  Catalog.Accessor.release accessor;
  let prov_section text =
    let thread =
      Dxl.Xml.find_child_exn (Dxl.Xml.of_string text) "dxl:Thread"
    in
    Dxl.Xml.to_string (Dxl.Xml.find_child_exn thread "dxl:Provenance")
  in
  let text = Orca.Ampere.to_string dump in
  Alcotest.(check string)
    "golden dxl:Provenance" golden_dump_prov (prov_section text);
  Alcotest.(check string)
    "round trip keeps the section" (prov_section text)
    (prov_section (Orca.Ampere.to_string (Orca.Ampere.of_string text)))

(* Every plan node carries an annotation aligned with the stable preorder
   numbering; the lineage of every operator terminates at a copy-in. *)
let test_annotation_coverage () =
  let report = Lazy.force three_join_report in
  let prov = prov_of report in
  let plan = report.Orca.Optimizer.plan in
  Alcotest.(check int)
    "annotation covers every plan node"
    (Plan_ops.node_count plan)
    (List.length prov.Prov.Provenance.p_nodes);
  List.iteri
    (fun i np ->
      Alcotest.(check int) "preorder ids" i np.Prov.Provenance.np_id)
    prov.Prov.Provenance.p_nodes;
  let enforcers =
    List.filter
      (fun np ->
        match np.Prov.Provenance.np_kind with
        | Prov.Provenance.K_enforcer _ -> true
        | _ -> false)
      prov.Prov.Provenance.p_nodes
  in
  Alcotest.(check int) "three enforcers in the plan" 3 (List.length enforcers);
  List.iter
    (fun np ->
      match np.Prov.Provenance.np_kind with
      | Prov.Provenance.K_operator oi ->
          (* losers are sorted by cost and never include the winner *)
          let rec sorted = function
            | a :: (b :: _ as rest) ->
                a.Prov.Provenance.lo_cost <= b.Prov.Provenance.lo_cost
                && sorted rest
            | _ -> true
          in
          Alcotest.(check bool)
            ("losers sorted at " ^ np.Prov.Provenance.np_path)
            true
            (sorted oi.Prov.Provenance.oi_losers);
          List.iter
            (fun lo ->
              Alcotest.(check bool)
                "loser delta nonnegative" true
                (lo.Prov.Provenance.lo_delta >= 0.0))
            oi.Prov.Provenance.oi_losers
      | _ -> ())
    prov.Prov.Provenance.p_nodes

(* Off by default, and free when off: no annotation on the report and no
   origin record anywhere in the Memo. *)
let test_prov_off_by_default () =
  let _, report, _, _ =
    Fixtures.run_orca_sql "SELECT t1.a FROM t1, t2 WHERE t1.b = t2.a"
  in
  Alcotest.(check bool)
    "no annotation without the prov flag" true
    (report.Orca.Optimizer.prov = None);
  let memo = report.Orca.Optimizer.memo in
  List.iter
    (fun gid ->
      List.iter
        (fun ge ->
          Alcotest.(check bool)
            "no origin allocated with prov off" true
            (ge.Memolib.Memo.ge_origin = None))
        (Memolib.Memo.group memo gid).Memolib.Memo.g_exprs)
    (Memolib.Memo.group_ids memo)

(* A plan that did not come out of this Memo's winner linkage is corrupted
   provenance: annotate must refuse it rather than fabricate lineage. *)
let test_annotate_rejects_foreign_plan () =
  let report = Lazy.force three_join_report in
  let foreign =
    optimize_sql
      ~config:(Lazy.force prov_config)
      (Fixtures.small_accessor ())
      "SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.b = t2.a ORDER BY t1.a"
  in
  match
    Prov.Provenance.annotate report.Orca.Optimizer.memo
      ~req:report.Orca.Optimizer.root_req ~stage:"full"
      foreign.Orca.Optimizer.plan
  with
  | _ -> Alcotest.fail "annotate accepted a plan from a different Memo"
  | exception Gpos.Gpos_error.Error _ -> ()

(* --- Q-error --- *)

let test_qerror_hand_computed () =
  let check_q name expected ~est ~act =
    Alcotest.(check (float 1e-9))
      name expected
      (Prov.Accuracy.qerror ~est ~act)
  in
  check_q "overestimate 4x" 4.0 ~est:100.0 ~act:25.0;
  check_q "underestimate 100x" 100.0 ~est:10.0 ~act:1000.0;
  check_q "exact" 1.0 ~est:7.0 ~act:7.0;
  (* both sides clamp to >= 1 row *)
  check_q "empty vs empty" 1.0 ~est:0.0 ~act:0.0;
  check_q "empty estimate" 10.0 ~est:0.0 ~act:10.0;
  check_q "fractional estimate clamps" 2.0 ~est:0.5 ~act:2.0

(* Synthetic actuals (2x the estimate on even ids, missing on odd ids)
   against a real optimized plan: per-node Q-errors and the per-class
   aggregation must come out exactly as hand-computed. *)
let test_accuracy_join_hand_computed () =
  let _, report, _, _ =
    Fixtures.run_orca_sql
      "SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.b = t2.a ORDER BY t1.a"
  in
  let plan = report.Orca.Optimizer.plan in
  let numbered = Plan_ops.number plan in
  let actual id =
    if id mod 2 <> 0 then None
    else
      match List.find_opt (fun (i, _, _) -> i = id) numbered with
      | Some (_, _, node) -> Some (node.Expr.pest_rows *. 2.0)
      | None -> None
  in
  let acc = Prov.Accuracy.of_plan ~actual plan in
  Alcotest.(check int)
    "one row per plan node"
    (Plan_ops.node_count plan)
    (List.length acc.Prov.Accuracy.nodes);
  List.iter
    (fun na ->
      (* estimates in this plan are all >= 1 row, so doubling gives q = 2 *)
      Alcotest.(check bool)
        "fixture estimate >= 1" true
        (na.Prov.Accuracy.na_est >= 1.0);
      if na.Prov.Accuracy.na_id mod 2 = 0 then
        Alcotest.(check (option (float 1e-9)))
          "observed node q-error" (Some 2.0) na.Prov.Accuracy.na_qerr
      else (
        Alcotest.(check (option (float 1e-9)))
          "unobserved node has no actual" None na.Prov.Accuracy.na_act;
        Alcotest.(check (option (float 1e-9)))
          "unobserved node has no q-error" None na.Prov.Accuracy.na_qerr))
    acc.Prov.Accuracy.nodes;
  let stats = Prov.Accuracy.to_acc_stats acc in
  let all =
    match
      List.find_opt
        (fun a -> a.Obs.Report.a_class = "(all)")
        stats
    with
    | Some a -> a
    | None -> Alcotest.fail "no (all) row"
  in
  let n = Plan_ops.node_count plan in
  Alcotest.(check int) "(all) observed nodes" ((n + 1) / 2) all.Obs.Report.a_nodes;
  Alcotest.(check int)
    "(all) unobserved nodes" (n / 2) all.Obs.Report.a_unobserved;
  Alcotest.(check (float 1e-9))
    "(all) geomean of uniform 2x errors" 2.0
    (Obs.Report.acc_geomean all);
  Alcotest.(check (float 1e-9)) "(all) max" 2.0 all.Obs.Report.a_max;
  (* class rows partition the plan's nodes *)
  let per_class = List.filter (fun a -> a.Obs.Report.a_class <> "(all)") stats in
  Alcotest.(check int)
    "class observed counts sum" all.Obs.Report.a_nodes
    (List.fold_left (fun s a -> s + a.Obs.Report.a_nodes) 0 per_class);
  Alcotest.(check int)
    "class unobserved counts sum" all.Obs.Report.a_unobserved
    (List.fold_left (fun s a -> s + a.Obs.Report.a_unobserved) 0 per_class)

(* The executor attributes actual rows to every plan node by stable id —
   Motion and enforcer nodes included — and surfaces them in the kv view. *)
let test_exec_per_node_actuals () =
  let _, report, rows, metrics =
    Fixtures.run_orca_sql "SELECT a, b FROM t1 ORDER BY b LIMIT 7"
  in
  let plan = report.Orca.Optimizer.plan in
  let nr = Exec.Metrics.node_rows metrics in
  Alcotest.(check (float 1e-9))
    "root actual = result rows"
    (float_of_int (List.length rows))
    (List.assoc 0 nr);
  List.iter
    (fun (id, _, node) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d (%s) observed" id
           (Physical_ops.class_name node.Expr.pop))
        true (List.mem_assoc id nr))
    (Plan_ops.number plan);
  (* the plan has a sort enforcer and a motion, so the coverage above proves
     enforcer/motion attribution *)
  let classes =
    List.map
      (fun (_, _, node) -> Physical_ops.class_name node.Expr.pop)
      (Plan_ops.number plan)
  in
  Alcotest.(check bool) "fixture has a sort" true (List.mem "sort" classes);
  Alcotest.(check bool)
    "fixture has a motion" true
    (List.exists (fun c -> String.length c >= 6 && String.sub c 0 6 = "motion") classes);
  let kv = Exec.Metrics.to_kv metrics in
  Alcotest.(check (float 1e-9))
    "kv carries per-node actuals"
    (float_of_int (List.length rows))
    (List.assoc "node_rows.0" kv)

(* Dynamic partition elimination rewrites scan subtrees at runtime; the
   executor must attribute the rewritten copies back to the original nodes,
   leaving no plan node unobserved. *)
let test_dpe_nodes_attributed () =
  let report = Lazy.force three_join_report in
  let cluster = Fixtures.tpcds_cluster () in
  let _rows, metrics = Exec.Executor.run cluster report.Orca.Optimizer.plan in
  Alcotest.(check bool)
    "fixture exercises DPE" true
    (metrics.Exec.Metrics.partitions_pruned_dynamically > 0);
  let nr = Exec.Metrics.node_rows metrics in
  List.iter
    (fun (id, _, node) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d (%s) observed despite DPE" id
           (Physical_ops.class_name node.Expr.pop))
        true (List.mem_assoc id nr))
    (Plan_ops.number report.Orca.Optimizer.plan)

(* --- structural plan diff --- *)

(* The hot-path speedups are identity-preserving: a run with them off must
   produce a byte-identical plan, and the diff (the CLI's exit-0 path) must
   say so. *)
let test_diff_identical_under_prefilter_toggle () =
  let sql = "SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.b = t2.a ORDER BY t1.a" in
  let a = optimize_sql ~config:(Lazy.force prov_config) (Fixtures.small_accessor ()) sql in
  let b =
    optimize_sql
      ~config:
        (Orca.Orca_config.without_speedups (Lazy.force prov_config))
      (Fixtures.small_accessor ()) sql
  in
  let d =
    Prov.Plan_diff.diff a.Orca.Optimizer.plan b.Orca.Optimizer.plan
  in
  Alcotest.(check bool) "identical" true d.Prov.Plan_diff.d_identical;
  Alcotest.(check bool) "structural" true d.Prov.Plan_diff.d_structural;
  Alcotest.(check (list string)) "no changes" []
    (List.map Prov.Plan_diff.change_to_string d.Prov.Plan_diff.d_changes);
  Alcotest.(check bool)
    "rendering reports identity" true
    (contains ~sub:"plans are identical" (Prov.Plan_diff.to_string d))

(* Genuinely diverging plans: the diff reports changes and d_identical is
   false — the CLI maps this to a nonzero exit, mirroring lint. *)
let test_diff_divergent () =
  let a =
    optimize_sql ~config:(Lazy.force prov_config) (Fixtures.small_accessor ())
      "SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.b = t2.a ORDER BY t1.a"
  in
  let b =
    optimize_sql ~config:(Lazy.force prov_config) (Fixtures.small_accessor ())
      "SELECT a, count(*) FROM t2 GROUP BY a"
  in
  let d = Prov.Plan_diff.diff a.Orca.Optimizer.plan b.Orca.Optimizer.plan in
  Alcotest.(check bool) "diverged" false d.Prov.Plan_diff.d_identical;
  Alcotest.(check bool) "changes reported" true (d.Prov.Plan_diff.d_changes <> []);
  let rendered =
    Prov.Plan_diff.to_string ?prov_a:a.Orca.Optimizer.prov
      ?prov_b:b.Orca.Optimizer.prov d
  in
  Alcotest.(check bool)
    "rendering is not the identity message" false
    (contains ~sub:"plans are identical" rendered)

(* A cost-only perturbation is caught exactly: structure matches, identity
   does not, and the change names the root. *)
let test_diff_cost_only () =
  let a =
    (optimize_sql ~config:(Lazy.force prov_config)
       (Fixtures.small_accessor ()) "SELECT a FROM t1 WHERE b > 5")
      .Orca.Optimizer.plan
  in
  let b = { a with Expr.pcost = a.Expr.pcost +. 10.0 } in
  let d = Prov.Plan_diff.diff a b in
  Alcotest.(check bool) "not identical" false d.Prov.Plan_diff.d_identical;
  Alcotest.(check bool) "still structural" true d.Prov.Plan_diff.d_structural;
  match d.Prov.Plan_diff.d_changes with
  | [ Prov.Plan_diff.Cost_changed { path; a = ca; b = cb; _ } ] ->
      Alcotest.(check string) "change at the root" "root" path;
      Alcotest.(check (float 1e-9)) "cost delta" 10.0 (cb -. ca)
  | cs ->
      Alcotest.failf "expected one Cost_changed, got: %s"
        (String.concat "; " (List.map Prov.Plan_diff.change_to_string cs))

(* --- the provenance lint (lib/verify) --- *)

let has_rule rule diags =
  List.exists
    (fun (d : Verify.Diagnostic.t) ->
      d.Verify.Diagnostic.rule = rule
      && d.Verify.Diagnostic.severity = Verify.Diagnostic.Error)
    diags

(* With provenance and the analyzers both on, the optimizer's own Memo is
   clean — the lint is wired into lint_all and finds nothing to report. *)
let test_prov_lint_wired_and_clean () =
  let report =
    optimize_sql
      ~config:
        (Orca.Orca_config.with_verify (Lazy.force prov_config))
      (Fixtures.small_accessor ())
      "SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.b = t2.a ORDER BY t1.a"
  in
  if report.Orca.Optimizer.diagnostics <> [] then
    Alcotest.failf "expected clean diagnostics, got:\n%s"
      (Verify.Diagnostic.report_to_string report.Orca.Optimizer.diagnostics)

let lint_table name oid =
  let f = Colref.Factory.create () in
  let a = Colref.Factory.fresh f ~name:(name ^ "a") ~ty:Dtype.Int in
  Table_desc.make
    ~dist:(Table_desc.Dist_hash [ a ])
    ~mdid:(Printf.sprintf "0.%d.1.1" oid)
    ~name [ a ]

(* Corrupted-provenance fixtures: a physical expression with no origin, an
   origin pointing at a nonexistent source, and a lineage that cycles. *)
let test_prov_lint_corruptions () =
  let memo = Memolib.Memo.create () in
  (* ge_ids are assigned sequentially, so the first insertion gets id 0 —
     an origin with o_source = 0 makes its lineage a self-cycle *)
  let cyclic =
    {
      Memolib.Memo.o_rule = "FakeRule";
      o_rule_id = 999;
      o_source = 0;
      o_stage = "test";
      o_promise = 1;
    }
  in
  ignore
    (Memolib.Memo.insert_gexpr memo ~origin:cyclic
       (Expr.Physical (Expr.P_table_scan (lint_table "t" 1, None, None)))
       []);
  (* no origin at all on a physical expression *)
  ignore
    (Memolib.Memo.insert_gexpr memo
       (Expr.Physical (Expr.P_table_scan (lint_table "s" 2, None, None)))
       []);
  (* origin pointing at an expression that does not exist *)
  ignore
    (Memolib.Memo.insert_gexpr memo
       ~origin:{ cyclic with Memolib.Memo.o_source = 12345 }
       (Expr.Physical (Expr.P_table_scan (lint_table "u" 3, None, None)))
       []);
  let diags = Verify.Prov_check.check memo in
  Alcotest.(check bool)
    "cyclic lineage caught" true
    (has_rule Verify.Prov_check.rule_cycle diags);
  Alcotest.(check bool)
    "missing origin caught" true
    (has_rule Verify.Prov_check.rule_missing diags);
  Alcotest.(check bool)
    "dangling source caught" true
    (has_rule Verify.Prov_check.rule_dangling diags)

let suite =
  [
    Alcotest.test_case "--why golden (3-join, fake clock)" `Quick
      test_why_golden;
    Alcotest.test_case "annotation covers every node" `Quick
      test_annotation_coverage;
    Alcotest.test_case "prov off by default and free when off" `Quick
      test_prov_off_by_default;
    Alcotest.test_case "annotate rejects a foreign plan" `Quick
      test_annotate_rejects_foreign_plan;
    Alcotest.test_case "Q-error hand-computed values" `Quick
      test_qerror_hand_computed;
    Alcotest.test_case "accuracy join hand-computed" `Quick
      test_accuracy_join_hand_computed;
    Alcotest.test_case "executor per-node actuals (motion/enforcer)" `Quick
      test_exec_per_node_actuals;
    Alcotest.test_case "DPE-rewritten nodes attributed" `Quick
      test_dpe_nodes_attributed;
    Alcotest.test_case "diff: identical under prefilter toggle" `Quick
      test_diff_identical_under_prefilter_toggle;
    Alcotest.test_case "diff: divergent plans reported" `Quick
      test_diff_divergent;
    Alcotest.test_case "diff: cost-only change pinpointed" `Quick
      test_diff_cost_only;
    Alcotest.test_case "prov lint wired and clean" `Quick
      test_prov_lint_wired_and_clean;
    Alcotest.test_case "prov lint catches corruptions" `Quick
      test_prov_lint_corruptions;
    Alcotest.test_case "dump provenance golden (3-join)" `Quick
      test_dump_prov_golden;
  ]
