open Ir

(* The Orca optimizer facade (paper §3, Fig. 2): DXL query in, DXL plan out.

   Workflow (paper §4.1): parse/copy-in -> exploration -> statistics
   derivation -> implementation -> optimization (property enforcement and
   costing) -> plan extraction. Optimization can run in multiple stages, each
   a complete workflow over a rule subset with optional timeout and cost
   threshold. *)

type report = {
  plan : Expr.plan;
  opt_time_ms : float;
  groups : int;
  gexprs : int;
  contexts : int;
  jobs_created : int;
  jobs_run : int;
  goal_hits : int;
  xforms : int;
  stage_name : string;
  peak_heap_mb : float;
  memo : Memolib.Memo.t;  (* retained for TAQO sampling and inspection *)
  root_req : Props.req;
  decorrelated : int;
  diagnostics : Verify.Diagnostic.t list;
      (* static-analyzer findings ([] unless config.verify) *)
  obs : Obs.Report.t option;
      (* unified observability report (None unless config.obs) *)
  prov : Prov.Provenance.t option;
      (* per-node provenance of the chosen plan (None unless config.prov) *)
  phase_ms : (string * float) list;
      (* coarse per-phase wall times (preprocess, stage:<name>,
         prov-annotate), in execution order. Always collected — each
         phase costs two Gpos.Clock reads — so the flight recorder and
         lib/telemetry see phase breakdowns without lib/obs. *)
  md_versions : int * int;
      (* the (catalog, stats) snapshot versions the session's accessor
         bound against — the plan-cache key components of lib/server *)
}

let root_req (q : Dxl.Dxl_query.t) : Props.req =
  { Props.rdist = q.Dxl.Dxl_query.dist; rorder = q.Dxl.Dxl_query.order }

(* Wrap the extracted plan with a projection delivering exactly the query's
   requested output columns, in order, when they differ from the root
   schema. *)
let project_output (plan : Expr.plan) (output : Colref.t list) : Expr.plan =
  let same =
    List.length plan.Expr.pschema = List.length output
    && List.for_all2 Colref.equal plan.Expr.pschema output
  in
  if same || output = [] then plan
  else
    let projs =
      List.map (fun c -> { Expr.proj_expr = Expr.Col c; proj_out = c }) output
    in
    Plan_ops.node (Expr.P_project projs) [ plan ] ~est_rows:plan.Expr.pest_rows
      ~cost:plan.Expr.pcost

let rec tree_to_mexpr (t : Ltree.t) : Memolib.Mexpr.t =
  {
    Memolib.Mexpr.op = Expr.Logical t.Ltree.op;
    children =
      List.map (fun c -> Memolib.Mexpr.Node (tree_to_mexpr c)) t.Ltree.children;
  }

(* One optimization stage over a fresh Memo. *)
let run_stage (config : Orca_config.t) ~(factory : Colref.Factory.t)
    ~(base : Table_desc.t -> Stats.Relstats.t) (tree : Ltree.t)
    (req : Props.req) (stage : Xform.Ruleset.stage) =
  let memo = Memolib.Memo.create ~interning:config.Orca_config.interning () in
  let root_ge =
    Obs.Span.with_ ~name:"copy-in" (fun () ->
        Memolib.Memo.insert memo (tree_to_mexpr tree))
  in
  Memolib.Memo.set_root memo
    (Memolib.Memo.find memo root_ge.Memolib.Memo.ge_group);
  let engine =
    Search.Engine.create ~workers:config.Orca_config.workers
      ?fuzz_seed:config.Orca_config.fuzz_seed ~obs:config.Orca_config.obs
      ~rule_checks:config.Orca_config.rule_checks
      ~prefilter:config.Orca_config.rule_prefilter
      ~stats_memo:config.Orca_config.stats_memo
      ~winner_reuse:config.Orca_config.winner_reuse
      ~stage_name:stage.Xform.Ruleset.stage_name
      ~prov:config.Orca_config.prov
      ?strata:config.Orca_config.strata
      ~ruleset:stage.Xform.Ruleset.stage_rules
      ~model:config.Orca_config.model ~factory ~base memo
  in
  Search.Engine.set_deadline engine stage.Xform.Ruleset.timeout_ms;
  let plan = Search.Engine.run engine req in
  (memo, engine, plan)

exception Unsupported_query of string

(* Optimize a DXL query against the metadata reachable through [accessor]. *)
let optimize_inner ~(config : Orca_config.t) (accessor : Catalog.Accessor.t)
    (query : Dxl.Dxl_query.t) : report =
  let t0 = Gpos.Clock.now () in
  (* One timer per coarse phase: always appends to report.phase_ms
     (reverse order here), and is an Obs span when a session is active. *)
  let phases = ref [] in
  let phase name f =
    let p0 = Gpos.Clock.now () in
    let r = Obs.Span.with_ ~name f in
    phases := (name, Gpos.Clock.ms_since p0) :: !phases;
    r
  in
  let factory = Catalog.Accessor.factory accessor in
  Colref.Factory.bump factory (Dxl.Dxl_query.max_col_id query);
  let base td = Catalog.Accessor.base_stats accessor td in
  (* preprocessing: decorrelate subqueries, normalize *)
  let tree = query.Dxl.Dxl_query.tree in
  let tree, decorrelated =
    phase "preprocess" (fun () ->
        let tree, decorrelated =
          if config.Orca_config.decorrelate then
            Obs.Span.with_ ~name:"decorrelate" (fun () ->
                let r = Xform.Decorrelate.run factory tree in
                if r.Xform.Decorrelate.remaining > 0 then
                  raise
                    (Unsupported_query
                       (Printf.sprintf
                          "%d correlated subqueries could not be unnested"
                          r.Xform.Decorrelate.remaining));
                (r.Xform.Decorrelate.tree, r.Xform.Decorrelate.rewritten))
          else begin
            let has_apply =
              Ltree.fold
                (fun acc n ->
                  acc
                  || match n.Ltree.op with Expr.L_apply _ -> true | _ -> false)
                false tree
            in
            if has_apply then
              raise
                (Unsupported_query
                   "correlated subquery (decorrelation disabled)");
            (tree, 0)
          end
        in
        let tree =
          Obs.Span.with_ ~name:"normalize" (fun () -> Xform.Normalize.run tree)
        in
        let tree =
          if config.Orca_config.prune_columns then
            Obs.Span.with_ ~name:"prune-columns" (fun () ->
                Xform.Prune_columns.run tree
                  ~output:query.Dxl.Dxl_query.output)
          else tree
        in
        (tree, decorrelated))
  in
  Ltree.validate tree;
  let req = root_req query in
  (* every stage actually run, for the per-stage observability snapshots *)
  let stage_runs : (string * Memolib.Memo.t * Search.Engine.t) list ref =
    ref []
  in
  (* stage loop: stop at the first stage whose best plan beats its cost
     threshold; otherwise keep the cheapest plan across stages *)
  let rec stages_loop best = function
    | [] -> (
        match best with
        | Some r -> r
        | None -> Gpos.Gpos_error.internal "no optimization stages configured")
    | stage :: rest -> (
        let memo, engine, plan =
          phase ("stage:" ^ stage.Xform.Ruleset.stage_name) (fun () ->
              run_stage config ~factory ~base tree req stage)
        in
        if config.Orca_config.obs then
          stage_runs :=
            (stage.Xform.Ruleset.stage_name, memo, engine) :: !stage_runs;
        let result = (memo, engine, plan, stage.Xform.Ruleset.stage_name) in
        let better =
          match best with
          | Some (_, _, p, _) when p.Expr.pcost <= plan.Expr.pcost -> best
          | _ -> Some result
        in
        match stage.Xform.Ruleset.cost_threshold with
        | Some threshold when plan.Expr.pcost <= threshold ->
            (match better with Some r -> r | None -> result)
        | _ -> stages_loop better rest)
  in
  let (memo, engine, plan, stage_name), sanitize_diags =
    if config.Orca_config.sanitize then
      (* record every scheduler/Memo/engine event during the stage runs and
         feed the trace to the concurrency analyses *)
      let result, trace =
        Sanitize.Sanitizer.record (fun () ->
            stages_loop None config.Orca_config.stages)
      in
      (result, Sanitize.Sanitizer.analyze trace)
    else (stages_loop None config.Orca_config.stages, [])
  in
  let plan = project_output plan query.Dxl.Dxl_query.output in
  (* the annotation re-walks the winner linkage of the winning stage's Memo,
     so it must be built from exactly that (memo, req, plan) triple *)
  let prov =
    if config.Orca_config.prov then
      Some
        (phase "prov-annotate" (fun () ->
             Prov.Provenance.annotate memo ~req ~stage:stage_name plan))
    else None
  in
  let diagnostics =
    (if config.Orca_config.verify then
       Verify.Analyzer.lint_all ~req ~memo ~prov:config.Orca_config.prov plan
     else [])
    @ sanitize_diags
  in
  let memo_stat = Memolib.Memo.profile memo in
  let search = Search.Engine.search_profile engine in
  let sched = Obs.Report.sched_total (Search.Engine.sched_profiles engine) in
  let heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8.0 /. 1048576.0
  in
  Catalog.Accessor.release accessor;
  let opt_ms = Gpos.Clock.ms_since t0 in
  let phase_ms = List.rev !phases in
  (* One cold-path update of the always-on registry (lib/telemetry) from
     the records the winning stage's Memo, engine and schedulers keep
     unconditionally. *)
  Telemetry.Std.record_query ~opt_time_ms:opt_ms ~memo:memo_stat ~search ~sched
    ~heap_mb ~phases:phase_ms;
  let obs =
    if not config.Orca_config.obs then None
    else
      (* one snapshot per stage run, merged: rule counters sum by name,
         scheduler counters by label, Memo growth across the stages' Memos *)
      let per_stage =
        List.rev_map
          (fun (sname, stage_memo, eng) ->
            {
              Obs.Report.empty with
              Obs.Report.stage_names = [ sname ];
              rules = Search.Engine.rule_profile eng;
              memo = Memolib.Memo.profile stage_memo;
              scheds = Search.Engine.sched_profiles eng;
              search = Search.Engine.search_profile eng;
            })
          !stage_runs
      in
      Some
        {
          (Obs.Report.merge_all per_stage) with
          Obs.Report.label = "query";
          queries = 1;
          total_ms = opt_ms;
        }
  in
  {
    plan;
    opt_time_ms = opt_ms;
    groups = memo_stat.Obs.Report.m_groups;
    gexprs = memo_stat.Obs.Report.m_gexprs;
    contexts = search.Obs.Report.c_contexts;
    jobs_created = sched.Gpos.Scheduler.p_jobs_created;
    jobs_run = sched.Gpos.Scheduler.p_jobs_run;
    goal_hits = sched.Gpos.Scheduler.p_goal_hits;
    xforms = search.Obs.Report.c_xforms;
    stage_name;
    peak_heap_mb = heap_mb;
    memo;
    root_req = req;
    decorrelated;
    diagnostics;
    obs;
    prov;
    phase_ms;
    md_versions = Catalog.Accessor.md_versions accessor;
  }

(* With observability on, own a span session for the whole optimization when
   no outer owner (the CLI's suite loop, AMPERe capture) holds one; the
   drained spans land on the report. Nested under an active session,
   [Obs.Span.collect] returns no events and the outer owner keeps them. *)
let optimize ?(config = Orca_config.default) accessor query : report =
  if not config.Orca_config.obs then optimize_inner ~config accessor query
  else
    (* the root span carries the originating service request, when any, so
       exported traces are attributable to it (lib/sre request tracing) *)
    let attrs =
      match config.Orca_config.trace_id with
      | Some id -> [ ("trace_id", id) ]
      | None -> []
    in
    let report, spans =
      Obs.Span.collect (fun () ->
          Obs.Span.with_ ~attrs ~name:"optimize" (fun () ->
              optimize_inner ~config accessor query))
    in
    if spans = [] then report
    else
      { report with obs = Option.map (fun r -> Obs.Report.with_spans r spans) report.obs }

(* Convenience: optimize and serialize the result back to DXL, the full
   Fig. 2 round trip. *)
let optimize_to_dxl ?config accessor (query : Dxl.Dxl_query.t) : string * report
    =
  let report = optimize ?config accessor query in
  (Dxl.Dxl_plan.to_string report.plan, report)
