open Ir

(* Tests for the MPP execution simulator: data placement, motion semantics,
   operator implementations, memory modes, metrics. *)

let mk_cluster ?(nsegs = 4) ?mem_per_seg () = Exec.Cluster.create ~nsegs ?mem_per_seg ()

let rows_of n = List.init n (fun i -> [| Datum.Int i; Datum.Int (i mod 7) |])

let total_rows (segs : Datum.t array list array) =
  Array.fold_left (fun a rows -> a + List.length rows) 0 segs

let test_hash_placement () =
  let c = mk_cluster () in
  Exec.Cluster.load_table c ~name:"t" ~dist:(Exec.Cluster.By_hash [ 0 ]) (rows_of 1000);
  let data = Exec.Cluster.table c "t" in
  Alcotest.(check int) "all rows placed" 1000 (total_rows data.Exec.Cluster.segments);
  (* same key always lands on the same segment *)
  let seg_of v =
    Exec.Cluster.hash_datums [ Datum.Int v ] mod 4
  in
  Array.iteri
    (fun seg rows ->
      List.iter
        (fun r ->
          match r.(0) with
          | Datum.Int v -> Alcotest.(check int) "key home" (seg_of v) seg
          | _ -> ())
        rows)
    data.Exec.Cluster.segments

let test_replicated_placement () =
  let c = mk_cluster () in
  Exec.Cluster.load_table c ~name:"r" ~dist:Exec.Cluster.By_replication (rows_of 10);
  let data = Exec.Cluster.table c "r" in
  Array.iter
    (fun rows -> Alcotest.(check int) "full copy per segment" 10 (List.length rows))
    data.Exec.Cluster.segments

let scan td = Plan_ops.node (Expr.P_table_scan (td, None, None)) [] ~est_rows:0.0 ~cost:0.0

let mk_td c name dist rows =
  let f = Colref.Factory.create ~start:(Hashtbl.hash name mod 1000 * 10) () in
  let a = Colref.Factory.fresh f ~name:"a" ~ty:Dtype.Int in
  let b = Colref.Factory.fresh f ~name:"b" ~ty:Dtype.Int in
  let td_dist, cl_dist =
    match dist with
    | `Hash -> (Table_desc.Dist_hash [ a ], Exec.Cluster.By_hash [ 0 ])
    | `Random -> (Table_desc.Dist_random, Exec.Cluster.By_random)
    | `Replicated -> (Table_desc.Dist_replicated, Exec.Cluster.By_replication)
  in
  Exec.Cluster.load_table c ~name ~dist:cl_dist rows;
  Table_desc.make ~dist:td_dist ~mdid:"0.1.1.1" ~name [ a; b ]

let run_plan c plan = Exec.Executor.run c plan

let test_motion_conservation () =
  let c = mk_cluster () in
  let td = mk_td c "t" `Hash (rows_of 500) in
  let a = List.hd td.Table_desc.cols in
  let base = scan td in
  (* redistribute: same rows, relocated *)
  let redist =
    Plan_ops.node (Expr.P_motion (Expr.Redistribute [ Expr.Col a ])) [ base ]
      ~est_rows:0.0 ~cost:0.0
  in
  let rows, metrics = run_plan c redist in
  Alcotest.(check int) "conserved" 500 (List.length rows);
  Alcotest.(check bool) "rows moved counted" true
    (metrics.Exec.Metrics.rows_moved > 0.0);
  (* gather: everything on the master *)
  let gathered =
    Plan_ops.node (Expr.P_motion Expr.Gather) [ base ] ~est_rows:0.0 ~cost:0.0
  in
  let ctx = Exec.Executor.create_ctx c in
  let segs = Exec.Executor.eval ctx ~params:Colref.Map.empty gathered in
  Alcotest.(check int) "master holds all" 500 (List.length segs.(0));
  Array.iteri
    (fun i rows -> if i > 0 then Alcotest.(check int) "others empty" 0 (List.length rows))
    segs

let test_broadcast_fanout () =
  let c = mk_cluster () in
  let td = mk_td c "t" `Hash (rows_of 100) in
  let plan =
    Plan_ops.node (Expr.P_motion Expr.Broadcast) [ scan td ] ~est_rows:0.0 ~cost:0.0
  in
  let ctx = Exec.Executor.create_ctx c in
  let segs = Exec.Executor.eval ctx ~params:Colref.Map.empty plan in
  Array.iter
    (fun rows -> Alcotest.(check int) "full copy" 100 (List.length rows))
    segs

let test_broadcast_of_replicated_no_duplication () =
  let c = mk_cluster () in
  let td = mk_td c "r" `Replicated (rows_of 50) in
  let plan =
    Plan_ops.node (Expr.P_motion Expr.Gather) [ scan td ] ~est_rows:0.0 ~cost:0.0
  in
  let rows, _ = run_plan c plan in
  (* gathering a replicated table must not multiply rows by nsegs *)
  Alcotest.(check int) "one copy" 50 (List.length rows)

let test_hash_join_kinds () =
  let c = mk_cluster () in
  (* outer: 0..9 twice; inner: evens 0..8 *)
  let outer_rows =
    List.concat_map (fun i -> [ [| Datum.Int i; Datum.Int 0 |] ]) (List.init 10 Fun.id)
  in
  let inner_rows = List.init 5 (fun i -> [| Datum.Int (2 * i); Datum.Int 1 |]) in
  let tdo = mk_td c "o" `Replicated outer_rows in
  let tdi = mk_td c "i" `Replicated inner_rows in
  let oa = List.hd tdo.Table_desc.cols and ia = List.hd tdi.Table_desc.cols in
  let join kind =
    let jp =
      Plan_ops.node
        (Expr.P_hash_join (kind, [ (Expr.Col oa, Expr.Col ia) ], None))
        [ scan tdo; scan tdi ] ~est_rows:0.0 ~cost:0.0
    in
    let ctx = Exec.Executor.create_ctx c in
    let segs = Exec.Executor.eval ctx ~params:Colref.Map.empty jp in
    (* replicated inputs: every segment computes the same result *)
    List.length segs.(0)
  in
  Alcotest.(check int) "inner" 5 (join Expr.Inner);
  Alcotest.(check int) "left outer" 10 (join Expr.Left_outer);
  Alcotest.(check int) "semi" 5 (join Expr.Semi);
  Alcotest.(check int) "anti" 5 (join Expr.Anti_semi);
  Alcotest.(check int) "full outer" 10 (join Expr.Full_outer)

let test_join_null_keys_never_match () =
  let c = mk_cluster ~nsegs:1 () in
  let outer_rows = [ [| Datum.Null; Datum.Int 1 |]; [| Datum.Int 1; Datum.Int 2 |] ] in
  let inner_rows = [ [| Datum.Null; Datum.Int 3 |]; [| Datum.Int 1; Datum.Int 4 |] ] in
  let tdo = mk_td c "o" `Replicated outer_rows in
  let tdi = mk_td c "i" `Replicated inner_rows in
  let oa = List.hd tdo.Table_desc.cols and ia = List.hd tdi.Table_desc.cols in
  let jp =
    Plan_ops.node
      (Expr.P_hash_join (Expr.Inner, [ (Expr.Col oa, Expr.Col ia) ], None))
      [ scan tdo; scan tdi ] ~est_rows:0.0 ~cost:0.0
  in
  let rows, _ = run_plan c jp in
  Alcotest.(check int) "null keys skipped" 1 (List.length rows)

let test_merge_join_matches_hash_join () =
  let c = mk_cluster ~nsegs:1 () in
  let rng = Gpos.Prng.create 99 in
  let rows1 =
    List.init 200 (fun _ -> [| Datum.Int (Gpos.Prng.int rng 30); Datum.Int 0 |])
  in
  let rows2 =
    List.init 150 (fun _ -> [| Datum.Int (Gpos.Prng.int rng 30); Datum.Int 1 |])
  in
  let tdo = mk_td c "mo" `Replicated rows1 in
  let tdi = mk_td c "mi" `Replicated rows2 in
  let oa = List.hd tdo.Table_desc.cols and ia = List.hd tdi.Table_desc.cols in
  let sorted td col =
    Plan_ops.node (Expr.P_sort [ Sortspec.asc col ]) [ scan td ] ~est_rows:0.0 ~cost:0.0
  in
  let mj =
    Plan_ops.node
      (Expr.P_merge_join (Expr.Inner, [ (oa, ia) ], None))
      [ sorted tdo oa; sorted tdi ia ] ~est_rows:0.0 ~cost:0.0
  in
  let hj =
    Plan_ops.node
      (Expr.P_hash_join (Expr.Inner, [ (Expr.Col oa, Expr.Col ia) ], None))
      [ scan tdo; scan tdi ] ~est_rows:0.0 ~cost:0.0
  in
  let mrows, _ = run_plan c mj and hrows, _ = run_plan c hj in
  Alcotest.(check bool) "same bag" true (Fixtures.rows_equal mrows hrows)

let test_stream_agg_matches_hash_agg () =
  let c = mk_cluster ~nsegs:1 () in
  let rng = Gpos.Prng.create 5 in
  let rows =
    List.init 300 (fun _ ->
        [| Datum.Int (Gpos.Prng.int rng 12); Datum.Int (Gpos.Prng.int rng 100) |])
  in
  let td = mk_td c "ag" `Replicated rows in
  let a = List.hd td.Table_desc.cols and b = List.nth td.Table_desc.cols 1 in
  let f = Colref.Factory.create ~start:500 () in
  let mk_aggs () =
    [
      { Expr.agg_kind = Expr.Count_star; agg_arg = None; agg_distinct = false;
        agg_out = Colref.Factory.fresh f ~name:"cnt" ~ty:Dtype.Int };
      { Expr.agg_kind = Expr.Sum; agg_arg = Some (Expr.Col b); agg_distinct = false;
        agg_out = Colref.Factory.fresh f ~name:"s" ~ty:Dtype.Int };
      { Expr.agg_kind = Expr.Min; agg_arg = Some (Expr.Col b); agg_distinct = false;
        agg_out = Colref.Factory.fresh f ~name:"mn" ~ty:Dtype.Int };
    ]
  in
  let ha =
    Plan_ops.node (Expr.P_hash_agg (Expr.One_phase, [ a ], mk_aggs ()))
      [ scan td ] ~est_rows:0.0 ~cost:0.0
  in
  let sa =
    Plan_ops.node (Expr.P_stream_agg (Expr.One_phase, [ a ], mk_aggs ()))
      [ Plan_ops.node (Expr.P_sort [ Sortspec.asc a ]) [ scan td ] ~est_rows:0.0 ~cost:0.0 ]
      ~est_rows:0.0 ~cost:0.0
  in
  let hrows, _ = run_plan c ha and srows, _ = run_plan c sa in
  (* same groups/aggregates modulo output colref ids: compare value strings *)
  let strip rows = List.map (fun r -> Array.to_list r |> List.map Datum.to_string) rows in
  Alcotest.(check bool) "hash = stream" true
    (List.sort compare (strip hrows) = List.sort compare (strip srows))

let test_oom_mode () =
  let tiny = mk_cluster ~mem_per_seg:100.0 () in
  let td = mk_td tiny "big" `Hash (rows_of 2000) in
  let a = List.hd td.Table_desc.cols in
  let join =
    Plan_ops.node
      (Expr.P_hash_join (Expr.Inner, [ (Expr.Col a, Expr.Col a) ], None))
      [ scan td; scan td ] ~est_rows:0.0 ~cost:0.0
  in
  (* no-spill mode dies *)
  Alcotest.(check bool) "OOM raised" true
    (try
       ignore (Exec.Executor.run ~mode:Exec.Executor.Fail_on_oom tiny join);
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Out_of_memory, _) -> true);
  (* spill mode completes and records spill bytes *)
  let _, metrics = Exec.Executor.run ~mode:Exec.Executor.Spill_to_disk tiny join in
  Alcotest.(check bool) "spilled" true (metrics.Exec.Metrics.spill_bytes > 0.0)

let test_partition_pruning_scan () =
  let c = mk_cluster () in
  let f = Colref.Factory.create ~start:900 () in
  let d = Colref.Factory.fresh f ~name:"d" ~ty:Dtype.Int in
  let parts =
    List.init 4 (fun p ->
        { Table_desc.part_id = p; lo = Datum.Int (p * 25); hi = Datum.Int ((p + 1) * 25) })
  in
  let rows = List.init 100 (fun i -> [| Datum.Int i |]) in
  Exec.Cluster.load_table c ~name:"pt" ~dist:Exec.Cluster.By_random rows;
  let td = Table_desc.make ~part_col:d ~parts ~mdid:"0.7.1.1" ~name:"pt" [ d ] in
  let pruned =
    Plan_ops.node (Expr.P_table_scan (td, Some [ 1 ], None)) [] ~est_rows:0.0 ~cost:0.0
  in
  let rows', metrics = run_plan c pruned in
  Alcotest.(check int) "one partition's rows" 25 (List.length rows');
  Alcotest.(check bool) "scan metric reflects pruning" true
    (metrics.Exec.Metrics.rows_scanned <= 26.0)

let test_dynamic_partition_elimination () =
  let c = mk_cluster () in
  let f = Colref.Factory.create ~start:700 () in
  let d = Colref.Factory.fresh f ~name:"d" ~ty:Dtype.Int in
  let v = Colref.Factory.fresh f ~name:"v" ~ty:Dtype.Int in
  let k = Colref.Factory.fresh f ~name:"k" ~ty:Dtype.Int in
  let parts =
    List.init 5 (fun p ->
        { Table_desc.part_id = p; lo = Datum.Int (p * 20); hi = Datum.Int ((p + 1) * 20) })
  in
  let fact_rows = List.init 100 (fun i -> [| Datum.Int i; Datum.Int (i * 3) |]) in
  Exec.Cluster.load_table c ~name:"fact_dpe" ~dist:(Exec.Cluster.By_hash [ 0 ]) fact_rows;
  (* dim holds keys only from partition 2's range *)
  let dim_rows = List.init 10 (fun i -> [| Datum.Int (40 + i) |]) in
  Exec.Cluster.load_table c ~name:"dim_dpe" ~dist:Exec.Cluster.By_replication dim_rows;
  let fact_td =
    Table_desc.make ~part_col:d ~parts ~mdid:"0.71.1.1" ~name:"fact_dpe" [ d; v ]
  in
  let dim_td =
    Table_desc.make ~dist:Table_desc.Dist_replicated ~mdid:"0.72.1.1"
      ~name:"dim_dpe" [ k ]
  in
  let join =
    Plan_ops.node
      (Expr.P_hash_join (Expr.Inner, [ (Expr.Col d, Expr.Col k) ], None))
      [ scan fact_td; scan dim_td ] ~est_rows:0.0 ~cost:0.0
  in
  (* with DPE: only partition 2 is scanned *)
  let rows, metrics = Exec.Executor.run ~dpe:true c join in
  Alcotest.(check int) "ten matches" 10 (List.length rows);
  Alcotest.(check int) "four partitions pruned at run time" 4
    metrics.Exec.Metrics.partitions_pruned_dynamically;
  Alcotest.(check bool)
    (Printf.sprintf "scan restricted (%.0f rows)" metrics.Exec.Metrics.rows_scanned)
    true
    (metrics.Exec.Metrics.rows_scanned <= 65.0);
  (* without DPE: same results, full scan *)
  let rows2, metrics2 = Exec.Executor.run ~dpe:false c join in
  Alcotest.(check bool) "same results" true (Fixtures.rows_equal rows rows2);
  Alcotest.(check bool) "full scan without DPE" true
    (metrics2.Exec.Metrics.rows_scanned >= 135.0);
  (* left outer joins must not prune (unmatched probe rows survive) *)
  let left =
    Plan_ops.node
      (Expr.P_hash_join (Expr.Left_outer, [ (Expr.Col d, Expr.Col k) ], None))
      [ scan fact_td; scan dim_td ] ~est_rows:0.0 ~cost:0.0
  in
  let lrows, lmetrics = Exec.Executor.run ~dpe:true c left in
  Alcotest.(check int) "outer preserves all fact rows" 100 (List.length lrows);
  Alcotest.(check int) "no pruning on outer join" 0
    lmetrics.Exec.Metrics.partitions_pruned_dynamically

let test_limit_and_sort () =
  let c = mk_cluster () in
  let td = mk_td c "ls" `Hash (rows_of 100) in
  let a = List.hd td.Table_desc.cols in
  let plan =
    Plan_ops.node
      (Expr.P_limit ([ Sortspec.desc a ], 2, Some 3, Expr.no_limit_slots))
      [
        Plan_ops.node
          (Expr.P_motion (Expr.Gather_merge [ Sortspec.desc a ]))
          [
            Plan_ops.node (Expr.P_sort [ Sortspec.desc a ]) [ scan td ]
              ~est_rows:0.0 ~cost:0.0;
          ]
          ~est_rows:0.0 ~cost:0.0;
      ]
      ~est_rows:0.0 ~cost:0.0
  in
  let rows, _ = run_plan c plan in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  match List.map (fun r -> r.(0)) rows with
  | [ Datum.Int x; Datum.Int y; Datum.Int z ] ->
      Alcotest.(check (list int)) "offset applied desc" [ 97; 96; 95 ] [ x; y; z ]
  | _ -> Alcotest.fail "unexpected rows"

(* property: redistribute preserves the multiset of rows for random data *)
let prop_redistribute_conserves =
  QCheck.Test.make ~count:40 ~name:"redistribute conserves rows"
    (QCheck.make
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 200)
          (QCheck.Gen.pair (QCheck.Gen.int_bound 50) (QCheck.Gen.int_bound 50))))
    (fun pairs ->
      let rows = List.map (fun (x, y) -> [| Datum.Int x; Datum.Int y |]) pairs in
      let c = mk_cluster () in
      Exec.Cluster.load_table c ~name:"q" ~dist:Exec.Cluster.By_random rows;
      let f = Colref.Factory.create ~start:333 () in
      let a = Colref.Factory.fresh f ~name:"a" ~ty:Dtype.Int in
      let b = Colref.Factory.fresh f ~name:"b" ~ty:Dtype.Int in
      let td = Table_desc.make ~mdid:"0.3.1.1" ~name:"q" [ a; b ] in
      let plan =
        Plan_ops.node
          (Expr.P_motion (Expr.Redistribute [ Expr.Col b ]))
          [ scan td ] ~est_rows:0.0 ~cost:0.0
      in
      let out, _ = run_plan c plan in
      Fixtures.rows_equal out rows)

let suite =
  [
    Alcotest.test_case "hash placement" `Quick test_hash_placement;
    Alcotest.test_case "replicated placement" `Quick test_replicated_placement;
    Alcotest.test_case "motion conservation" `Quick test_motion_conservation;
    Alcotest.test_case "broadcast fanout" `Quick test_broadcast_fanout;
    Alcotest.test_case "replicated gather" `Quick test_broadcast_of_replicated_no_duplication;
    Alcotest.test_case "hash join kinds" `Quick test_hash_join_kinds;
    Alcotest.test_case "null join keys" `Quick test_join_null_keys_never_match;
    Alcotest.test_case "merge = hash join" `Quick test_merge_join_matches_hash_join;
    Alcotest.test_case "stream = hash agg" `Quick test_stream_agg_matches_hash_agg;
    Alcotest.test_case "oom vs spill" `Quick test_oom_mode;
    Alcotest.test_case "partition pruning" `Quick test_partition_pruning_scan;
    Alcotest.test_case "dynamic partition elimination" `Quick
      test_dynamic_partition_elimination;
    Alcotest.test_case "limit and sort" `Quick test_limit_and_sort;
    QCheck_alcotest.to_alcotest prop_redistribute_conserves;
  ]
