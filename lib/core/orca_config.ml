(* Optimizer configuration: rule activation, staging, parallelism, cost model
   parameters (paper §3: "all components can be replaced individually and
   configured separately"). *)

type t = {
  stages : Xform.Ruleset.stage list;
  workers : int;             (* optimization worker threads (§4.2) *)
  segments : int;            (* target cluster size *)
  model : Cost.Cost_model.t;
  decorrelate : bool;        (* pull correlated subqueries into joins *)
  prune_columns : bool;      (* narrow join inputs to needed columns *)
  verify : bool;             (* run the static analyzers on the result *)
  sanitize : bool;           (* record a trace, run the concurrency sanitizer *)
  fuzz_seed : int option;    (* permute the costing schedule (with sanitize) *)
  obs : bool;                (* collect the observability report (lib/obs) *)
  prov : bool;               (* record plan provenance (lib/prov) *)
  rule_checks : bool;        (* checksum the Memo around every rule apply *)
  strata : (string * int) list option;
      (* stage-ordered rule scheduling: rule name -> stratum, the topological
         order of the rule-interaction graph's SCCs (computed by
         lib/interact, carried here as plain data so lib/core does not
         depend on the analyzer). None = promise order only. *)
  (* hot-path speedups; identity-preserving (the chosen plan and its cost
     are byte-identical with them on or off), so on by default. Individually
     switchable for A/B identity tests and the opt-speed benchmark. *)
  interning : bool;          (* hash-cons Memo operator payloads *)
  stats_memo : bool;         (* memoize group rows/width and motion skew *)
  rule_prefilter : bool;     (* skip rules by root-shape bitmap *)
  winner_reuse : bool;       (* reuse winners/base costs across contexts *)
  trace_id : string option;
      (* the originating service request ("s<sid>-r<rid>", lib/sre), when
         this optimization runs inside Orca_server: stamped as an
         attribute on the root lib/obs span and on flight-recorder dump
         traceflags so spans and AMPERe dumps are attributable to the
         request. Never read by the search — plans are byte-identical
         with or without it. *)
}

let default =
  {
    stages = Xform.Ruleset.single_stage;
    workers = 1;
    segments = Cost.Cost_model.default.Cost.Cost_model.segments;
    model = Cost.Cost_model.default;
    decorrelate = true;
    prune_columns = true;
    verify = false;
    sanitize = false;
    fuzz_seed = None;
    obs = false;
    prov = false;
    rule_checks = false;
    strata = None;
    interning = true;
    stats_memo = true;
    rule_prefilter = true;
    winner_reuse = true;
    trace_id = None;
  }

let with_segments t segments =
  { t with segments; model = Cost.Cost_model.with_segments t.model segments }

let with_workers t workers = { t with workers }

let with_stages t stages = { t with stages }

(* Deactivate rules by name in every stage (used by the ablation benches). *)
let without_rules t names =
  {
    t with
    stages =
      List.map
        (fun (s : Xform.Ruleset.stage) ->
          {
            s with
            Xform.Ruleset.stage_rules =
              Xform.Ruleset.without s.Xform.Ruleset.stage_rules names;
          })
        t.stages;
  }

let with_verify t = { t with verify = true }

let with_sanitize t = { t with sanitize = true }

let with_obs t = { t with obs = true }

let with_prov t = { t with prov = true }

let with_rule_checks t = { t with rule_checks = true }

let with_strata t strata = { t with strata = Some strata }

let with_fuzz_seed t seed = { t with fuzz_seed = Some seed }

let without_decorrelation t = { t with decorrelate = false }

let without_column_pruning t = { t with prune_columns = false }

let with_trace_id t id = { t with trace_id = Some id }
let without_trace_id t = { t with trace_id = None }

let with_interning t on = { t with interning = on }
let with_stats_memo t on = { t with stats_memo = on }
let with_rule_prefilter t on = { t with rule_prefilter = on }
let with_winner_reuse t on = { t with winner_reuse = on }

(* The caches-off configuration the identity tests and the opt-speed bench
   compare against. *)
let without_speedups t =
  {
    t with
    interning = false;
    stats_memo = false;
    rule_prefilter = false;
    winner_reuse = false;
  }
