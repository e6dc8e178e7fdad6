(* lib/rulecheck: the standalone rule-soundness analyzer.

   Audits every transformation rule without running the full optimizer: a
   small-model generator (Model) enumerates tiny catalogs, data and logical
   expressions; each rule is applied on a scratch Memo and its alternatives
   are checked (Passes) for semantic equivalence against the Exec.Naive
   oracle, shape-mask soundness, Memo purity, output-column preservation and
   property reachability; cost-model sweeps lint non-negativity and
   monotonicity. Diagnostics use lib/verify's lint format. *)

module Json = Gpos.Json

module Model = Model
module Denote = Denote
module Passes = Passes
module Broken = Broken
module Diagnostic = Verify.Diagnostic
module Rule = Xform.Rule

type report = {
  rules_checked : int;
  seeds : int;
  cases : int;      (* generator cases per seed *)
  applications : int;
  alternatives : int;
  diags : Diagnostic.t list;
}

let default_seeds = 3

(* Audit [rules] over [seeds] deterministic worlds. *)
let check_rules ?(seeds = default_seeds) (rules : Rule.t list) : report =
  let sink = Diagnostic.sink () in
  let st = Passes.stats () in
  let fired : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let fired_of (r : Rule.t) =
    match Hashtbl.find_opt fired r.Rule.id with
    | Some m -> m
    | None ->
        let m = ref 0 in
        Hashtbl.add fired r.Rule.id m;
        m
  in
  let ncases = ref 0 in
  for seed = 1 to seeds do
    let world = Model.world ~seed in
    ncases := List.length world.Model.cases;
    List.iter
      (fun rule ->
        List.iter
          (fun case ->
            Passes.check_rule_on_case sink ~st ~world ~fired:(fired_of rule)
              rule case)
          world.Model.cases)
      rules
  done;
  List.iter
    (fun rule -> Passes.check_dead_shapes sink rule ~fired:!(fired_of rule))
    rules;
  {
    rules_checked = List.length rules;
    seeds;
    cases = !ncases;
    applications = st.Passes.applications;
    alternatives = st.Passes.alternatives;
    diags = Diagnostic.sort (Diagnostic.drain sink);
  }

let check_cost_model ?label (model : Cost.Cost_model.t) : Diagnostic.t list =
  Passes.cost_lints ?label model

(* The full audit: the default rule set (optionally one rule by name) plus
   the default cost model. *)
let run ?(seeds = default_seeds) ?rule () : report =
  let rules = Xform.Ruleset.rules Xform.Ruleset.default in
  let rules =
    match rule with
    | None -> rules
    | Some name -> List.filter (fun (r : Rule.t) -> r.Rule.name = name) rules
  in
  let report = check_rules ~seeds rules in
  let cost_diags =
    match rule with None -> check_cost_model Cost.Cost_model.default | Some _ -> []
  in
  { report with diags = Diagnostic.sort (report.diags @ cost_diags) }

let error_count (r : report) = Diagnostic.count Diagnostic.Error r.diags
let warning_count (r : report) = Diagnostic.count Diagnostic.Warning r.diags

(* --- JSON (the nightly CI artifact shape) --- *)

let diag_json (d : Diagnostic.t) : Json.t =
  Obj
    [
      ("rule", Str d.Diagnostic.rule);
      ("severity", Str (Diagnostic.severity_to_string d.Diagnostic.severity));
      ("path", Str d.Diagnostic.path);
      ("node", Str d.Diagnostic.node);
      ("message", Str d.Diagnostic.message);
    ]

let to_json (r : report) : string =
  Json.pretty
    (Obj
       [
         ("rules_checked", Json.int r.rules_checked);
         ("seeds", Json.int r.seeds);
         ("cases", Json.int r.cases);
         ("applications", Json.int r.applications);
         ("alternatives", Json.int r.alternatives);
         ("errors", Json.int (error_count r));
         ("warnings", Json.int (warning_count r));
         ("diagnostics", Arr (List.map diag_json r.diags));
       ])
