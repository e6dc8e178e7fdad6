(* lib/interact: the rule-interaction, termination and search-space analyzer.

   Where lib/rulecheck audits each rule in isolation (is one application
   sound?), this library analyzes the rule set as a *system*: which rules
   feed which (the interaction graph over the abstract shape domain), which
   cycles are bounded by the Memo's duplicate detection and which keep
   minting novel expressions (termination), which rules no derivation can
   ever reach (shadowing), where the promise order fights the feed order
   (inversions), and how large a group can get as a function of its join
   count (the static growth bound, checked against real Memos). The SCC
   condensation's topological order stratifies the rules; the strata are
   analysis output (report, JSON, DOT clusters), not a rule order the
   search follows. *)

module Json = Gpos.Json
module Model = Rulecheck.Model
module Infer = Infer
module Graph = Graph
module Broken = Broken
module Diagnostic = Verify.Diagnostic
module Rule = Xform.Rule
open Ir

type rule_report = {
  rr_rule : Rule.t;
  rr_observed : int; (* inferred produced-shape mask *)
  rr_fired : bool;
  rr_max_alts : int; (* most alternatives one application returned *)
  rr_stratum : int;
  rr_scc : int; (* SCC index in topological order *)
  rr_reachable : bool;
}

type report = {
  rules : rule_report list; (* registration order *)
  nedges : int;
  sccs : string list list; (* topological order, feeders first *)
  n_cyclic : int; (* SCCs that can feed themselves (incl. self-loops) *)
  root_mask : int; (* shapes of the preprocessed corpus queries *)
  seeds : int;
  cases : int;
  c_nonjoin : int; (* largest non-join logical orbit at corpus fixpoint *)
  p_max : int; (* worst per-shape implementation fan-out *)
  fixpoint_gexprs : int; (* corpus exploration fixpoint size (sum) *)
  fixpoint_overflowed : bool;
  diags : Diagnostic.t list;
  dot : string;
}

let default_seeds = 2
let default_bound = 2000

let emit sink ~id ~severity ~path ~node fmt =
  Printf.ksprintf
    (fun msg ->
      Diagnostic.emit sink
        (Diagnostic.make ~rule:id ~severity ~path ~node "%s" msg))
    fmt

let cycle_path (rules : Rule.t array) (comp : int list) : string =
  let names = List.map (fun i -> rules.(i).Rule.name) comp in
  String.concat " -> " (names @ [ List.hd names ])

(* Analyze [rules] as a system over [seeds] deterministic rulecheck worlds. *)
let analyze ?(seeds = default_seeds) ?(bound = default_bound)
    (rules : Rule.t list) : report =
  let sink = Diagnostic.sink () in
  (* --- static: silently-defaulted prefilter masks --- *)
  List.iter
    (fun (r : Rule.t) ->
      if r.Rule.mask_defaulted then
        emit sink ~id:"interact/mask-defaulted" ~severity:Diagnostic.Warning
          ~path:"(static)" ~node:r.Rule.name
          "rule omits ~shapes: it pre-filters nothing and the interaction \
           graph must assume every rule feeds it")
    rules;
  (* --- producer inference: observe one application per rule per logical
     expression of every corpus case --- *)
  let worlds = List.init seeds (fun i -> Model.world ~seed:(i + 1)) in
  let obs_tbl : (int, Infer.obs) Hashtbl.t = Hashtbl.create 32 in
  let obs_of (r : Rule.t) =
    match Hashtbl.find_opt obs_tbl r.Rule.id with
    | Some o -> o
    | None ->
        let o = Infer.obs () in
        Hashtbl.add obs_tbl r.Rule.id o;
        o
  in
  List.iter
    (fun (w : Model.t) ->
      List.iter (Infer.observe_case rules obs_of) w.Model.cases)
    worlds;
  (* --- enrichment + growth calibration: exploration-only fixpoint over the
     first world's corpus, recording shapes of every derived alternative --- *)
  let explo = List.filter Rule.is_exploration rules in
  let corpus = (List.hd worlds).Model.cases in
  let on_result (r : Rule.t) mx =
    let o = obs_of r in
    o.Infer.ob_fired <- true;
    o.Infer.ob_produced <- o.Infer.ob_produced lor Infer.mexpr_shapes mx
  in
  let fx_total = ref 0 in
  let fx_overflowed = ref false in
  let c_nonjoin = ref 0 in
  List.iter
    (fun case ->
      let fx = Infer.explore_fixpoint ~bound ~on_result explo case in
      fx_total := !fx_total + fx.Infer.fx_gexprs;
      if fx.Infer.fx_overflowed then fx_overflowed := true
      else
        c_nonjoin := max !c_nonjoin (Infer.max_nonjoin_orbit fx.Infer.fx_memo))
    corpus;
  (* --- declared vs inferred produces --- *)
  List.iter
    (fun (r : Rule.t) ->
      let o = obs_of r in
      match r.Rule.produces with
      | None ->
          emit sink ~id:"interact/produces-undeclared"
            ~severity:Diagnostic.Warning ~path:"(corpus)" ~node:r.Rule.name
            "rule declares no ~produces; inferred output shapes: %s"
            (Logical_ops.mask_to_string o.Infer.ob_produced)
      | Some declared ->
          let escaped = Logical_ops.mask_diff o.Infer.ob_produced declared in
          if escaped <> 0 then
            emit sink ~id:"interact/produces-undeclared"
              ~severity:Diagnostic.Error ~path:"(corpus)" ~node:r.Rule.name
              "alternatives contain shapes outside the declared ~produces: %s \
               (declared %s)"
              (Logical_ops.mask_to_string escaped)
              (Logical_ops.mask_to_string declared);
          let dead = Logical_ops.mask_diff declared o.Infer.ob_produced in
          if dead <> 0 && o.Infer.ob_fired then
            emit sink ~id:"interact/produces-dead" ~severity:Diagnostic.Warning
              ~path:"(corpus)" ~node:r.Rule.name
              "declared ~produces shapes never observed in any alternative: \
               %s"
              (Logical_ops.mask_to_string dead))
    rules;
  (* --- interaction graph over effective produces (observed | declared) --- *)
  let produces (r : Rule.t) =
    let o = obs_of r in
    Logical_ops.mask_union o.Infer.ob_produced
      (Option.value ~default:0 r.Rule.produces)
  in
  let g = Graph.build rules ~produces in
  let comps = Graph.sccs g in
  let strata = Graph.stratify g comps in
  let scc_of = Array.make (Array.length g.Graph.rules) 0 in
  List.iteri
    (fun ci ns -> List.iter (fun v -> scc_of.(v) <- ci) ns)
    comps;
  (* --- termination: bounded concrete fixpoint per cyclic SCC --- *)
  List.iter
    (fun comp ->
      if Graph.is_cyclic g comp then begin
        let scc_rules = List.map (fun i -> g.Graph.rules.(i)) comp in
        let overflow =
          List.exists
            (fun case ->
              (Infer.explore_fixpoint ~bound scc_rules case)
                .Infer.fx_overflowed)
            corpus
        in
        if overflow then
          emit sink ~id:"interact/unbounded-cycle" ~severity:Diagnostic.Error
            ~path:(cycle_path g.Graph.rules comp)
            ~node:(List.hd (List.map (fun i -> g.Graph.rules.(i).Rule.name) comp))
            "rule cycle keeps producing structurally novel expressions: the \
             exploration fixpoint exceeded %d group expressions (duplicate \
             detection never closes the orbit)"
            bound
      end)
    comps;
  (* --- reachability and promise inversions --- *)
  let root_mask =
    List.fold_left
      (fun acc w -> acc lor Infer.root_shapes w)
      0 worlds
  in
  let reach = Graph.reachable g ~root_mask in
  Array.iteri
    (fun i (r : Rule.t) ->
      if not reach.(i) then
        emit sink ~id:"interact/unreachable-rule" ~severity:Diagnostic.Warning
          ~path:"(graph)" ~node:r.Rule.name
          "no preprocessed query shape (%s) matches this rule and no \
           reachable rule produces a shape it matches: it can never fire"
          (Logical_ops.mask_to_string root_mask))
    g.Graph.rules;
  Array.iteri
    (fun i (r : Rule.t) ->
      if reach.(i) && Logical_ops.mask_inter r.Rule.mask root_mask = 0 then begin
        let fs = Graph.feeders g i in
        if
          fs <> []
          && List.for_all
               (fun j -> g.Graph.rules.(j).Rule.promise < r.Rule.promise)
               fs
        then
          emit sink ~id:"interact/promise-inversion"
            ~severity:Diagnostic.Warning ~path:"(graph)" ~node:r.Rule.name
            "rule (promise %d) only gets work from lower-promise feeders \
             (%s): the scheduler tries it before anything can feed it"
            r.Rule.promise
            (String.concat ", "
               (List.map
                  (fun j ->
                    Printf.sprintf "%s p%d" g.Graph.rules.(j).Rule.name
                      g.Graph.rules.(j).Rule.promise)
                  fs))
      end)
    g.Graph.rules;
  (* --- implementation fan-out for the growth bound --- *)
  let p_max = ref 0 in
  List.iter
    (fun s ->
      let tag = Logical_ops.shape_tag s in
      let fanout =
        List.fold_left
          (fun acc (r : Rule.t) ->
            if Rule.is_implementation r && Rule.applicable_tag r tag then
              acc + (obs_of r).Infer.ob_max_alts
            else acc)
          0 rules
      in
      p_max := max !p_max fanout)
    Logical_ops.all_shapes;
  let rule_reports =
    List.mapi
      (fun i (r : Rule.t) ->
        let o = obs_of r in
        {
          rr_rule = r;
          rr_observed = o.Infer.ob_produced;
          rr_fired = o.Infer.ob_fired;
          rr_max_alts = o.Infer.ob_max_alts;
          rr_stratum = strata.(i);
          rr_scc = scc_of.(i);
          rr_reachable = reach.(i);
        })
      rules
  in
  {
    rules = rule_reports;
    nedges = Graph.nedges g;
    sccs =
      List.map (List.map (fun i -> g.Graph.rules.(i).Rule.name)) comps;
    n_cyclic = List.length (List.filter (Graph.is_cyclic g) comps);
    root_mask;
    seeds;
    cases = List.length corpus;
    c_nonjoin = !c_nonjoin;
    p_max = !p_max;
    fixpoint_gexprs = !fx_total;
    fixpoint_overflowed = !fx_overflowed;
    diags = Diagnostic.sort (Diagnostic.drain sink);
    dot = Graph.to_dot g ~strata ~reach;
  }

(* The full audit over the default rule set. *)
let run ?(seeds = default_seeds) ?(bound = default_bound) () : report =
  analyze ~seeds ~bound (Xform.Ruleset.rules Xform.Ruleset.default)

let error_count (r : report) = Diagnostic.count Diagnostic.Error r.diags
let warning_count (r : report) = Diagnostic.count Diagnostic.Warning r.diags

(* {2 Static growth bound}

   Over an n-relation join subtree, exploration can derive at most
   J(n) = 2^n - 2 distinct join expressions per group (the classic bushy
   orbit count: every proper non-empty subset of relations except that
   singletons are leaves, so pairs of complementary subsets), plus at most
   [c_nonjoin] non-join logical expressions (calibrated at the corpus
   fixpoint), each implemented by at most [p_max] physical alternatives. *)

let join_orbit (n : int) : float =
  if n < 2 then 1.0 else (2.0 ** float_of_int n) -. 2.0

let static_bound (r : report) (n : int) : float =
  (join_orbit n +. float_of_int r.c_nonjoin)
  *. float_of_int (1 + r.p_max)

(* Check a real Memo against the bound: per group, [n] is the number of base
   relations under it (via the first logical expression, recursively) and
   the actual size is its logical + physical orbit. *)
let check_memo_growth (r : report) ~(case : string) (memo : Memolib.Memo.t) :
    Diagnostic.t list =
  let module Memo = Memolib.Memo in
  let leaves : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec nleaves gid =
    let gid = Memo.find memo gid in
    match Hashtbl.find_opt leaves gid with
    | Some n -> n
    | None ->
        Hashtbl.add leaves gid 1 (* visited guard; leaves count 1 *)
        ;
        let n =
          match Memo.logical_exprs (Memo.group memo gid) with
          | [] -> 1
          | ((ge : Memo.gexpr), _) :: _ ->
              if ge.Memo.ge_children = [] then 1
              else
                List.fold_left
                  (fun acc c -> acc + nleaves c)
                  0 ge.Memo.ge_children
        in
        Hashtbl.replace leaves gid n;
        n
  in
  let sink = Diagnostic.sink () in
  List.iter
    (fun gid ->
      let g = Memo.group memo gid in
      let actual =
        List.length (Memo.logical_exprs g)
        + List.length (Memo.physical_exprs g)
      in
      let n = nleaves gid in
      let bound = static_bound r n in
      if float_of_int actual > bound then
        emit sink ~id:"interact/bound-violated" ~severity:Diagnostic.Error
          ~path:(Printf.sprintf "group %d" gid)
          ~node:case
          "group holds %d expressions over %d base relations; the static \
           bound is %.0f = (J(%d) + %d) * (1 + %d)"
          actual n bound n r.c_nonjoin r.p_max)
    (Memo.group_ids memo);
  Diagnostic.drain sink

(* --- rendering --- *)

let kind_string (r : Rule.t) =
  if Rule.is_exploration r then "explore" else "implement"

let to_string (r : report) : string =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "interact: %d rules, %d edges, %d SCCs (%d cyclic), root shapes %s\n"
       (List.length r.rules) r.nedges (List.length r.sccs) r.n_cyclic
       (Logical_ops.mask_to_string r.root_mask));
  Buffer.add_string buf
    (Printf.sprintf
       "corpus: %d seeds x %d cases; exploration fixpoint %d gexprs%s; \
        c_nonjoin=%d p_max=%d\n"
       r.seeds r.cases r.fixpoint_gexprs
       (if r.fixpoint_overflowed then " (OVERFLOWED)" else "")
       r.c_nonjoin r.p_max);
  Buffer.add_string buf
    (Printf.sprintf "%-28s %-9s %7s %3s  %-14s %-14s %s\n" "rule" "kind"
       "promise" "str" "matches" "produces" "flags");
  let sorted =
    List.sort
      (fun a b ->
        compare
          (a.rr_stratum, -a.rr_rule.Rule.promise, a.rr_rule.Rule.name)
          (b.rr_stratum, -b.rr_rule.Rule.promise, b.rr_rule.Rule.name))
      r.rules
  in
  List.iter
    (fun rr ->
      let ru = rr.rr_rule in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %-9s %7d %3d  %-14s %-14s %s\n" ru.Rule.name
           (kind_string ru) ru.Rule.promise rr.rr_stratum
           (Logical_ops.mask_to_string ru.Rule.mask)
           (Logical_ops.mask_to_string rr.rr_observed)
           (String.concat ","
              (List.filter
                 (fun s -> s <> "")
                 [
                   (if rr.rr_reachable then "" else "unreachable");
                   (if rr.rr_fired then "" else "never-fired");
                 ]))))
    sorted;
  if r.diags <> [] then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Diagnostic.report_to_string r.diags)
  end;
  Buffer.contents buf

let to_json (r : report) : string =
  let mask m = Json.Str (Logical_ops.mask_to_string m) in
  Json.pretty
    (Obj
       [
         ("rules", Json.int (List.length r.rules));
         ("edges", Json.int r.nedges);
         ("sccs", Json.int (List.length r.sccs));
         ("root_mask", mask r.root_mask);
         ("c_nonjoin", Json.int r.c_nonjoin);
         ("p_max", Json.int r.p_max);
         ("fixpoint_gexprs", Json.int r.fixpoint_gexprs);
         ("errors", Json.int (error_count r));
         ("warnings", Json.int (warning_count r));
         ( "strata",
           Arr
             (List.map
                (fun rr ->
                  Json.Obj
                    [
                      ("rule", Str rr.rr_rule.Rule.name);
                      ("stratum", Json.int rr.rr_stratum);
                      ("scc", Json.int rr.rr_scc);
                      ("reachable", Bool rr.rr_reachable);
                      ("matches", mask rr.rr_rule.Rule.mask);
                      ("produces", mask rr.rr_observed);
                    ])
                r.rules) );
         ("diagnostics", Arr (List.map Rulecheck.diag_json r.diags));
       ])
