module Diagnostic = Verify.Diagnostic

(* Tests for lib/rulecheck: the suite must be clean on the shipped rules and
   cost model, and each injected broken fixture must be caught by its own
   distinct diagnostic id. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let has_diag ?severity id diags =
  List.exists
    (fun (d : Diagnostic.t) ->
      d.Diagnostic.rule = id
      && match severity with None -> true | Some s -> d.Diagnostic.severity = s)
    diags

let count_diag id diags =
  List.length
    (List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.rule = id) diags)

let test_suite_clean () =
  let report = Rulecheck.run ~seeds:2 () in
  Alcotest.(check int) "no errors" 0 (Rulecheck.error_count report);
  Alcotest.(check int) "no warnings" 0 (Rulecheck.warning_count report);
  Alcotest.(check bool) "rules audited" true (report.Rulecheck.rules_checked >= 20);
  Alcotest.(check bool) "alternatives checked" true
    (report.Rulecheck.alternatives > 0)

let test_cost_model_clean () =
  Alcotest.(check int) "default cost model lints clean" 0
    (List.length (Rulecheck.check_cost_model Cost.Cost_model.default))

let test_bad_join_commute () =
  let report =
    Rulecheck.check_rules ~seeds:1 [ Rulecheck.Broken.bad_join_commute ]
  in
  Alcotest.(check bool) "equiv mismatch caught" true
    (has_diag ~severity:Diagnostic.Error "rule/equiv-mismatch"
       report.Rulecheck.diags)

let test_lying_shape_mask () =
  let report =
    Rulecheck.check_rules ~seeds:1 [ Rulecheck.Broken.lying_shape_mask ]
  in
  let diags = report.Rulecheck.diags in
  Alcotest.(check bool) "shape escape caught" true
    (has_diag ~severity:Diagnostic.Error "rule/shape-escape" diags);
  (* both declared shapes (Select, Limit) never fire *)
  Alcotest.(check int) "dead declared shapes" 2
    (count_diag "rule/shape-dead" diags)

let test_memo_mutator () =
  let report = Rulecheck.check_rules ~seeds:1 [ Rulecheck.Broken.memo_mutator ] in
  Alcotest.(check bool) "memo mutation caught" true
    (has_diag ~severity:Diagnostic.Error "rule/memo-mutation"
       report.Rulecheck.diags)

let test_bad_cost_model () =
  let diags = Rulecheck.check_cost_model Rulecheck.Broken.bad_cost_model in
  Alcotest.(check bool) "non-monotone caught" true
    (has_diag "cost/non-monotone" diags)

let test_json () =
  let report = Rulecheck.check_rules ~seeds:1 [ Rulecheck.Broken.memo_mutator ] in
  let json = Rulecheck.to_json report in
  Alcotest.(check bool) "json has error count" true
    (contains ~sub:"\"errors\":" json);
  Alcotest.(check bool) "json lists the diagnostic" true
    (contains ~sub:"rule/memo-mutation" json)

let suite =
  [
    Alcotest.test_case "suite clean on shipped rules" `Slow test_suite_clean;
    Alcotest.test_case "default cost model clean" `Quick test_cost_model_clean;
    Alcotest.test_case "bad join commute caught" `Quick test_bad_join_commute;
    Alcotest.test_case "lying shape mask caught" `Quick test_lying_shape_mask;
    Alcotest.test_case "memo mutator caught" `Quick test_memo_mutator;
    Alcotest.test_case "bad cost model caught" `Quick test_bad_cost_model;
    Alcotest.test_case "json report shape" `Quick test_json;
  ]
