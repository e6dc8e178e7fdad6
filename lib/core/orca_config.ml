(* Optimizer configuration: rule activation, staging, parallelism, cost model
   parameters (paper §3: "all components can be replaced individually and
   configured separately"). *)

type t = {
  stages : Xform.Ruleset.stage list;
  workers : int;             (* optimization worker threads (§4.2) *)
  model : Cost.Cost_model.t;
  decorrelate : bool;        (* pull correlated subqueries into joins *)
  prune_columns : bool;      (* narrow join inputs to needed columns *)
  verify : bool;             (* run the static analyzers on the result *)
  sanitize : bool;           (* record a trace, run the concurrency sanitizer *)
  fuzz_seed : int option;    (* cost as scheduler jobs in a seeded order *)
  obs : bool;                (* collect the observability report (lib/obs) *)
  prov : bool;               (* record plan provenance (lib/prov) *)
  speedups : bool;
      (* the hot-path caches: Memo operator interning, the group stats
         memo, the rule shape prefilter and winner/base-cost reuse.
         Identity-preserving (the chosen plan and its cost are
         byte-identical with them on or off), so on by default; off is the
         reference the identity tests and the opt-speed benchmark compare
         against. *)
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
    model = Cost.Cost_model.default;
    decorrelate = true;
    prune_columns = true;
    verify = false;
    sanitize = false;
    fuzz_seed = None;
    obs = false;
    prov = false;
    speedups = true;
    trace_id = None;
  }

let with_segments t segments =
  { t with model = Cost.Cost_model.with_segments t.model segments }

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

let with_fuzz_seed t seed = { t with fuzz_seed = Some seed }

let without_decorrelation t = { t with decorrelate = false }

let without_column_pruning t = { t with prune_columns = false }

let with_trace_id t id = { t with trace_id = Some id }

let without_speedups t = { t with speedups = false }
