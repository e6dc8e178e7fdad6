open Ir
module Mexpr = Memolib.Mexpr
module Rule = Xform.Rule
module Diagnostic = Verify.Diagnostic
module L = Logical_ops

(* Tests for lib/interact: the analysis must be clean on the shipped rule
   set, each broken fixture must be caught by its own distinct interact/*
   diagnostic id, and the shape-mask lattice must obey its laws. *)

let has_diag ?severity ?node id diags =
  List.exists
    (fun (d : Diagnostic.t) ->
      d.Diagnostic.rule = id
      && (match severity with
         | None -> true
         | Some s -> d.Diagnostic.severity = s)
      && match node with None -> true | Some n -> d.Diagnostic.node = n)
    diags

let default_report = lazy (Interact.run ~seeds:2 ())

let rr name (report : Interact.report) =
  List.find
    (fun (r : Interact.rule_report) ->
      r.Interact.rr_rule.Rule.name = name)
    report.Interact.rules

let test_default_clean () =
  let report = Lazy.force default_report in
  Alcotest.(check int) "no errors" 0 (Interact.error_count report);
  Alcotest.(check int) "no warnings" 0 (Interact.warning_count report);
  Alcotest.(check int) "all rules analyzed" 23
    (List.length report.Interact.rules);
  Alcotest.(check bool) "fixpoint converged" false
    report.Interact.fixpoint_overflowed;
  Alcotest.(check bool) "has cyclic but bounded SCCs" true
    (report.Interact.n_cyclic > 0)

let test_default_strata_shape () =
  (* the known condensation: select pushdowns strictly before the select/agg
     splitters, which come strictly before the join orbit; each cyclic pair
     shares a stratum *)
  let report = Lazy.force default_report in
  let stratum n = (rr n report).Interact.rr_stratum in
  Alcotest.(check int) "JC and JA share a stratum (one SCC)"
    (stratum "JoinCommutativity")
    (stratum "JoinAssociativity");
  Alcotest.(check int) "pushdown pair shares a stratum"
    (stratum "SelectPushdownOuterJoin")
    (stratum "SelectPushdownGbAgg");
  Alcotest.(check bool) "pushdowns before SelectMergeJoin" true
    (stratum "SelectPushdownOuterJoin" < stratum "SelectMergeJoin");
  Alcotest.(check bool) "SelectMergeJoin before the join orbit" true
    (stratum "SelectMergeJoin" < stratum "JoinCommutativity");
  (* every rule reachable, every exploration rule fired *)
  List.iter
    (fun (r : Interact.rule_report) ->
      Alcotest.(check bool)
        (r.Interact.rr_rule.Rule.name ^ " reachable")
        true r.Interact.rr_reachable)
    report.Interact.rules

let test_unbounded_cycle () =
  let report = Interact.analyze ~seeds:1 ~bound:300 Interact.Broken.cycle_pair in
  Alcotest.(check bool) "unbounded cycle caught" true
    (has_diag ~severity:Diagnostic.Error "interact/unbounded-cycle"
       report.Interact.diags);
  (* the fixture pair itself declares its produces honestly *)
  Alcotest.(check bool) "no produces escape" false
    (has_diag "interact/produces-undeclared" report.Interact.diags)

let test_bounded_cycles_not_flagged () =
  (* the join orbit (commutativity + associativity) is cyclic but closed by
     duplicate detection: no diagnostic *)
  let report = Lazy.force default_report in
  Alcotest.(check bool) "join orbit not flagged" false
    (has_diag "interact/unbounded-cycle" report.Interact.diags)

let test_lying_produces () =
  let report = Interact.analyze ~seeds:1 [ Interact.Broken.lying_produces ] in
  Alcotest.(check bool) "escaped shapes are an error" true
    (has_diag ~severity:Diagnostic.Error "interact/produces-undeclared"
       report.Interact.diags);
  Alcotest.(check bool) "dead declared shape is a warning" true
    (has_diag ~severity:Diagnostic.Warning "interact/produces-dead"
       report.Interact.diags)

let test_shadowed_rule () =
  let report = Interact.analyze ~seeds:1 [ Interact.Broken.shadowed_apply ] in
  Alcotest.(check bool) "shadowed rule caught" true
    (has_diag ~severity:Diagnostic.Warning ~node:"ShadowedApplyRule"
       "interact/unreachable-rule" report.Interact.diags)

let test_promise_inversion () =
  let report = Interact.analyze ~seeds:1 Interact.Broken.inversion_pair in
  Alcotest.(check bool) "promise inversion caught" true
    (has_diag ~severity:Diagnostic.Warning ~node:"InversionConsumer"
       "interact/promise-inversion" report.Interact.diags);
  Alcotest.(check bool) "feeder itself not flagged" false
    (has_diag ~node:"InversionFeeder" "interact/promise-inversion"
       report.Interact.diags)

let test_mask_defaulted () =
  let report = Interact.analyze ~seeds:1 [ Interact.Broken.defaulted_mask ] in
  Alcotest.(check bool) "defaulted mask caught" true
    (has_diag ~severity:Diagnostic.Warning ~node:"DefaultedMask"
       "interact/mask-defaulted" report.Interact.diags)

(* --- producer inference round-trips the edge shapes ---------------------
   Apply, SetOp and the CTE triple never appear in exploration rule outputs
   today; ad-hoc rules prove the inference abstracts them correctly. *)

let edge_rule name shapes op children =
  Rule.make ~name ~kind:Rule.Exploration ~shapes:[ L.S_select ]
    ~produces:shapes
    (fun _ctx _memo ge ->
      match Rule.logical_op ge with
      | Some (Expr.L_select _) -> (
          match ge.Memolib.Memo.ge_children with
          | [ g ] ->
              [ Mexpr.logical_of_groups op (List.map (fun _ -> g) children) ]
          | _ -> [])
      | _ -> [])

let test_edge_shape_roundtrip () =
  let rules =
    [
      edge_rule "MintApply" [ L.S_apply ]
        (Expr.L_apply (Expr.Apply_exists, []))
        [ (); () ];
      edge_rule "MintSet" [ L.S_set ]
        (Expr.L_set (Expr.Union_all, []))
        [ (); () ];
      edge_rule "MintCTEConsumer" [ L.S_cte_consumer ]
        (Expr.L_cte_consumer (7, []))
        [];
    ]
  in
  let report = Interact.analyze ~seeds:1 rules in
  List.iter
    (fun (r : Interact.rule_report) ->
      Alcotest.(check string)
        (r.Interact.rr_rule.Rule.name ^ " observed = declared")
        (L.mask_to_string
           (Option.get r.Interact.rr_rule.Rule.produces))
        (L.mask_to_string r.Interact.rr_observed))
    report.Interact.rules;
  Alcotest.(check bool) "no produces diagnostics" false
    (has_diag "interact/produces-undeclared" report.Interact.diags
    || has_diag "interact/produces-dead" report.Interact.diags)

(* --- growth bound -------------------------------------------------------- *)

let test_static_bound_monotone () =
  let report = Lazy.force default_report in
  Alcotest.(check bool) "positive constants" true
    (report.Interact.c_nonjoin > 0 && report.Interact.p_max > 0);
  let b = Interact.static_bound report in
  Alcotest.(check bool) "monotone in join count" true
    (b 1 <= b 2 && b 2 < b 3 && b 3 < b 8);
  (* J(n) = 2^n - 2: the bushy orbit *)
  Alcotest.(check (float 1e-9)) "join orbit n=4" 14.0 (Interact.join_orbit 4);
  Alcotest.(check (float 1e-9)) "leaves have no orbit" 1.0
    (Interact.join_orbit 1)

(* --- qcheck: the shape-mask lattice laws --------------------------------- *)

let mask_gen = QCheck.int_range 0 L.all_shapes_mask

let prop_union_inter_laws =
  QCheck.Test.make ~count:200 ~name:"mask union/inter lattice laws"
    QCheck.(triple mask_gen mask_gen mask_gen)
    (fun (a, b, c) ->
      L.mask_union a b = L.mask_union b a
      && L.mask_inter a b = L.mask_inter b a
      && L.mask_union a (L.mask_union b c) = L.mask_union (L.mask_union a b) c
      && L.mask_inter a (L.mask_inter b c) = L.mask_inter (L.mask_inter a b) c
      && L.mask_union a a = a
      && L.mask_inter a a = a
      && L.mask_inter a (L.mask_union a b) = a
      && L.mask_union a (L.mask_inter a b) = a)

let prop_subset_diff_laws =
  QCheck.Test.make ~count:200 ~name:"mask subset/diff laws"
    QCheck.(pair mask_gen mask_gen)
    (fun (a, b) ->
      L.mask_subset a (L.mask_union a b)
      && L.mask_subset (L.mask_inter a b) a
      && L.mask_inter (L.mask_diff a b) b = 0
      && L.mask_union (L.mask_diff a b) (L.mask_inter a b) = a
      && (L.mask_subset a b = (L.mask_diff a b = 0)))

let prop_mask_string_roundtrip =
  QCheck.Test.make ~count:200 ~name:"shapes_of_mask inverts shape_mask"
    mask_gen
    (fun m ->
      L.shape_mask (L.shapes_of_mask m) = m
      && List.for_all (fun s -> L.mask_mem s m) (L.shapes_of_mask m))

(* union-fold over any mask sequence is a monotone fixpoint: each step only
   grows, and it converges within one pass per distinct bit *)
let prop_union_fixpoint_monotone =
  QCheck.Test.make ~count:100 ~name:"union fixpoint monotone and convergent"
    QCheck.(list_of_size (Gen.int_range 0 20) mask_gen)
    (fun ms ->
      let rec go prev = function
        | [] -> true
        | m :: rest ->
            let next = L.mask_union prev m in
            L.mask_subset prev next
            && L.mask_subset m next
            && (* idempotent at the fixpoint: re-unioning changes nothing *)
            L.mask_union next m = next
            && go next rest
      in
      go 0 ms)

let suite =
  [
    Alcotest.test_case "default rule set clean" `Slow test_default_clean;
    Alcotest.test_case "default strata topology" `Slow
      test_default_strata_shape;
    Alcotest.test_case "unbounded cycle caught" `Quick test_unbounded_cycle;
    Alcotest.test_case "bounded cycles not flagged" `Slow
      test_bounded_cycles_not_flagged;
    Alcotest.test_case "lying produces caught" `Quick test_lying_produces;
    Alcotest.test_case "shadowed rule caught" `Quick test_shadowed_rule;
    Alcotest.test_case "promise inversion caught" `Quick
      test_promise_inversion;
    Alcotest.test_case "defaulted mask caught" `Quick test_mask_defaulted;
    Alcotest.test_case "edge shapes round-trip inference" `Quick
      test_edge_shape_roundtrip;
    Alcotest.test_case "static growth bound" `Slow test_static_bound_monotone;
    QCheck_alcotest.to_alcotest prop_union_inter_laws;
    QCheck_alcotest.to_alcotest prop_subset_diff_laws;
    QCheck_alcotest.to_alcotest prop_mask_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_union_fixpoint_monotone;
  ]
