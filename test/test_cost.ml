open Ir

(* Tests for the MPP cost model: parallelism accounting, motion trade-offs,
   spill charges, enforcer costs. *)

let model = Cost.Cost_model.with_segments Cost.Cost_model.default 16

let a = Fixtures.col 21 "a"
let b = Fixtures.col 22 "b"

let test_rows_per_segment () =
  let check name dist expected =
    Alcotest.(check (float 0.001)) name expected
      (Cost.Cost_model.rows_per_segment model dist 1600.0)
  in
  check "hashed divides" (Props.D_hashed [ a ]) 100.0;
  check "random divides" Props.D_random 100.0;
  check "singleton is serial" Props.D_singleton 1600.0;
  check "replicated is a full copy" Props.D_replicated 1600.0

let input rows dist =
  Cost.Cost_model.input ~rows ~width:32.0 ~dist ()

let motion_cost m rows =
  Cost.Cost_model.op_cost model (Expr.P_motion m) ~rows_out:rows
    ~width_out:32.0
    ~inputs:[ input rows (Props.D_hashed [ a ]) ]
    ~scan_rows:0.0 ~out_dist:Props.D_random

let test_broadcast_vs_redistribute_crossover () =
  (* the join alternatives trade off broadcasting the inner side against
     redistributing both sides; the winner flips with the inner's size *)
  let redistribute rows = motion_cost (Expr.Redistribute [ Expr.Col a ]) rows in
  let broadcast rows = motion_cost Expr.Broadcast rows in
  let outer = 100_000.0 in
  let plan_broadcast inner = broadcast inner in
  let plan_colocate inner = redistribute outer +. redistribute inner in
  Alcotest.(check bool) "small inner: broadcast wins" true
    (plan_broadcast 100.0 < plan_colocate 100.0);
  Alcotest.(check bool) "large inner: co-location wins" true
    (plan_broadcast 100_000.0 > plan_colocate 100_000.0);
  Alcotest.(check bool) "broadcast is much worse than redistribute at scale"
    true
    (broadcast 100_000.0 > 5.0 *. redistribute 100_000.0)

let test_gather_is_serial () =
  (* gathering pays for every row at the master; redistribute parallelizes *)
  let gather rows = motion_cost Expr.Gather rows in
  let redist rows = motion_cost (Expr.Redistribute [ Expr.Col a ]) rows in
  Alcotest.(check bool) "gather > redistribute at scale" true
    (gather 100_000.0 > redist 100_000.0)

let test_hash_join_prefers_small_build () =
  let cost ~build ~probe =
    Cost.Cost_model.op_cost model
      (Expr.P_hash_join (Expr.Inner, [ (Expr.Col a, Expr.Col b) ], None))
      ~rows_out:1000.0 ~width_out:64.0
      ~inputs:
        [ input probe (Props.D_hashed [ a ]); input build (Props.D_hashed [ b ]) ]
      ~scan_rows:0.0
      ~out_dist:(Props.D_hashed [ a ])
  in
  Alcotest.(check bool) "building on the small side is cheaper" true
    (cost ~build:1000.0 ~probe:100_000.0 < cost ~build:100_000.0 ~probe:1000.0)

let test_spill_charge () =
  let tiny = { model with Cost.Cost_model.mem_per_segment = 1024.0 } in
  let agg_cost m rows =
    Cost.Cost_model.op_cost m
      (Expr.P_hash_agg (Expr.One_phase, [ a ], []))
      ~rows_out:rows ~width_out:64.0
      ~inputs:[ input (rows *. 4.0) (Props.D_hashed [ a ]) ]
      ~scan_rows:0.0
      ~out_dist:(Props.D_hashed [ a ])
  in
  Alcotest.(check bool) "over-budget state costs extra" true
    (agg_cost tiny 100_000.0 > 1.5 *. agg_cost model 100_000.0)

let test_nl_join_quadratic () =
  let cost n =
    Cost.Cost_model.op_cost model
      (Expr.P_nl_join (Expr.Inner, Expr.Cmp (Expr.Lt, Expr.Col a, Expr.Col b)))
      ~rows_out:10.0 ~width_out:64.0
      ~inputs:[ input n Props.D_random; input n Props.D_replicated ]
      ~scan_rows:0.0 ~out_dist:Props.D_random
  in
  Alcotest.(check bool) "10x input ~ 100x cost" true
    (cost 10_000.0 > 50.0 *. cost 1_000.0)

let test_partition_pruned_scan_cheaper () =
  let td =
    Table_desc.make ~part_col:a
      ~parts:
        (List.init 10 (fun p ->
             { Table_desc.part_id = p; lo = Datum.Int (p * 10); hi = Datum.Int ((p + 1) * 10) }))
      ~mdid:"0.5.1.1" ~name:"f" [ a ]
  in
  let cost parts =
    Cost.Cost_model.op_cost model
      (Expr.P_table_scan (td, parts, None))
      ~rows_out:10_000.0 ~width_out:8.0 ~inputs:[] ~scan_rows:100_000.0
      ~out_dist:Props.D_random
  in
  Alcotest.(check bool) "one partition is ~10x cheaper" true
    (cost None > 8.0 *. cost (Some [ 3 ]))

let test_enforcer_cost_consistency () =
  (* the enforcer-cost entry point agrees with the operator costs it wraps *)
  let via_enforcer =
    Cost.Cost_model.enforcer_cost model (Props.E_motion Expr.Gather)
      ~rows:5_000.0 ~width:32.0
      ~dist:(Props.D_hashed [ a ])
      ~skew:1.0
  in
  let direct = motion_cost Expr.Gather 5_000.0 in
  Alcotest.(check (float 0.001)) "gather enforcer = gather motion" direct
    via_enforcer;
  let sort_cost =
    Cost.Cost_model.enforcer_cost model
      (Props.E_sort [ Sortspec.asc a ])
      ~rows:5_000.0 ~width:32.0 ~dist:Props.D_random ~skew:1.0
  in
  Alcotest.(check bool) "sort enforcer positive" true (sort_cost > 0.0)

let test_skew_penalizes_redistribute () =
  let cost skew =
    Cost.Cost_model.enforcer_cost model
      (Props.E_motion (Expr.Redistribute [ Expr.Col a ]))
      ~rows:10_000.0 ~width:32.0 ~dist:Props.D_random ~skew
  in
  Alcotest.(check bool) "skewed destination costs more" true
    (cost 3.0 > 2.0 *. cost 1.0)

(* The incumbent bound (Search.Engine.offer_alternatives) skips a vector's
   enforcer chains once its base cost alone exceeds the context's winner;
   that is sound only because no enforcer, and no operator an enforcer
   prices, ever costs less than nothing. Checked for every enforcer kind,
   and the operators next to them, over non-negative rows, width and skew
   on any cluster size. *)
let prop_costs_non_negative =
  let open QCheck.Gen in
  let size =
    oneof
      [ return 0.0; float_bound_inclusive 10.0; float_bound_inclusive 1e12 ]
  in
  let skew = oneof [ return 0.0; return 1.0; float_bound_inclusive 64.0 ] in
  let spec =
    oneofl [ []; [ Sortspec.asc a ]; [ Sortspec.asc a; Sortspec.asc b ] ]
  in
  let dist =
    oneofl
      [ Props.D_singleton; Props.D_replicated; Props.D_hashed [ a ]; Props.D_random ]
  in
  let enforcer =
    oneof
      [
        map (fun s -> Props.E_sort s) spec;
        return (Props.E_motion Expr.Gather);
        map (fun s -> Props.E_motion (Expr.Gather_merge s)) spec;
        return (Props.E_motion (Expr.Redistribute [ Expr.Col a ]));
        return (Props.E_motion (Expr.Redistribute []));
        return (Props.E_motion Expr.Broadcast);
      ]
  in
  let pred = Expr.Cmp (Expr.Lt, Expr.Col a, Expr.Col b) in
  let op =
    oneofl
      [
        Expr.P_filter pred;
        Expr.P_hash_join (Expr.Inner, [ (Expr.Col a, Expr.Col b) ], None);
        Expr.P_merge_join (Expr.Inner, [ (a, b) ], None);
        Expr.P_nl_join (Expr.Inner, pred);
        Expr.P_hash_agg (Expr.One_phase, [ a ], []);
        Expr.P_stream_agg (Expr.One_phase, [ a ], []);
        Expr.P_sort [ Sortspec.asc a ];
        Expr.P_limit ([], 10, Some 5, Expr.no_limit_slots);
        Expr.P_motion Expr.Gather;
        Expr.P_motion (Expr.Gather_merge [ Sortspec.asc a ]);
        Expr.P_motion (Expr.Redistribute [ Expr.Col a ]);
        Expr.P_motion Expr.Broadcast;
        Expr.P_cte_producer 0;
        Expr.P_cte_consumer (0, [ a ]);
        Expr.P_set (Expr.Union_all, [ a ]);
        Expr.P_set (Expr.Except, [ a ]);
      ]
  in
  let case =
    let* segments = int_range 1 64 and* enf = enforcer and* op = op in
    let* rows = size and* width = size and* skew = skew and* d = dist in
    let* in_rows = size and* in_width = size and* out = dist in
    return (segments, enf, op, rows, width, skew, d, in_rows, in_width, out)
  in
  QCheck.Test.make ~count:500
    ~name:"enforcer and operator costs are non-negative"
    (QCheck.make case)
    (fun (segments, enf, op, rows, width, skew, d, in_rows, in_width, out) ->
      let m = Cost.Cost_model.with_segments Cost.Cost_model.default segments in
      let enf_cost =
        Cost.Cost_model.enforcer_cost m enf ~rows ~width ~dist:d ~skew
      in
      let input () =
        Cost.Cost_model.input ~skew ~rows:in_rows ~width:in_width ~dist:d ()
      in
      let op_cost =
        Cost.Cost_model.op_cost m op ~rows_out:rows ~width_out:width
          ~inputs:[ input (); input () ]
          ~scan_rows:in_rows ~out_dist:out
      in
      enf_cost >= 0.0 && op_cost >= 0.0)

let suite =
  [
    Alcotest.test_case "rows per segment" `Quick test_rows_per_segment;
    Alcotest.test_case "broadcast/redistribute crossover" `Quick
      test_broadcast_vs_redistribute_crossover;
    Alcotest.test_case "gather is serial" `Quick test_gather_is_serial;
    Alcotest.test_case "small build side" `Quick test_hash_join_prefers_small_build;
    Alcotest.test_case "spill charge" `Quick test_spill_charge;
    Alcotest.test_case "nl join quadratic" `Quick test_nl_join_quadratic;
    Alcotest.test_case "pruned scan cheaper" `Quick test_partition_pruned_scan_cheaper;
    Alcotest.test_case "enforcer consistency" `Quick test_enforcer_cost_consistency;
    Alcotest.test_case "skew penalty" `Quick test_skew_penalizes_redistribute;
    QCheck_alcotest.to_alcotest prop_costs_non_negative;
  ]
