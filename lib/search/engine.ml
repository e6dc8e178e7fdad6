open Ir
module Memo = Memolib.Memo
module Mexpr = Memolib.Mexpr

(* The optimization engine (paper §4.1 workflow, §4.2 parallel optimization).

   The engine drives the four optimization steps — exploration, statistics
   derivation, implementation, optimization — as graphs of small re-entrant
   jobs executed by the GPOS scheduler. The seven job kinds of the paper map
   to: Exp(g)/Exp(gexpr), Imp(g)/Imp(gexpr), Opt(g,req)/Opt(gexpr,req) and
   Xform(gexpr,t), with per-goal queues deduplicating concurrent work. *)

(* Search counters are atomics so parallel Opt jobs can bump them without
   a lock; [search_profile] snapshots them into Obs.Report.search_stat. *)
type acounters = {
  a_xform_applied : int Atomic.t;
  a_xform_results : int Atomic.t;
  a_op_costings : int Atomic.t;       (* Cost_model.op_cost invocations *)
  a_enf_costings : int Atomic.t;      (* Cost_model.enforcer_cost invocations *)
  a_alts_pruned : int Atomic.t;       (* enforcer chains the incumbent bound skipped *)
  a_deadline_checks : int Atomic.t;
  a_prefilter_skips : int Atomic.t;   (* rule applications pruned by shape *)
  a_winner_skips : int Atomic.t;      (* child Opt spawns pruned: base cost cached *)
  a_base_reuses : int Atomic.t;       (* base costs served from the reuse cache *)
  a_stats_hits : int Atomic.t;        (* rows/width/skew served from the stats memo *)
}

(* Per-rule profile, collected only when the engine runs with [obs] — rule
   application is funnelled through the single-worker exploration scheduler,
   so plain mutable fields suffice. *)
type rule_stat = {
  mutable rs_fired : int;
  mutable rs_results : int;
  mutable rs_skipped : int; (* applications dropped by a stage deadline *)
  mutable rs_prefiltered : int; (* applications pruned by the shape bitmap *)
  mutable rs_time_ms : float;
}

(* A base cost: the operator's local cost, its children's cost, the
   properties it delivers and what each child best delivered. *)
type base = float * float * Props.derived * Props.derived list

(* One child-request vector of a group expression, shared by every parent
   request whose [Requests.alternatives] list holds it (equal under
   [Props.req_equal]), and its base cost once priced. *)
type vector = { v_reqs : Props.req list; mutable v_base : base option }

(* A group expression's row of the request-vector table. Most operators ask
   the same vectors of their children whatever the parent requests: those
   are built once ([r_fixed]). Filter, project and sequence pass the parent
   request through, so theirs are built once per parent request
   ([r_by_req]). [r_pool] holds every vector of the row, so a vector two
   parent requests both produce (a projection's [[any]]) is one record. *)
type row = {
  mutable r_fixed : vector list option;
  mutable r_by_req : (Props.req * vector list) list;
  mutable r_pool : vector list;
}

type t = {
  memo : Memo.t;
  ruleset : Xform.Ruleset.t;
  stage_name : string; (* stamped on provenance origins (lib/prov) *)
  prov : bool; (* record per-gexpr origins on rule results *)
  rctx : Xform.Rule.ctx;
  model : Cost.Cost_model.t;
  base : Table_desc.t -> Stats.Relstats.t;
  sched : Gpos.Scheduler.t;
      (* exploration/implementation: rule application funnels through the
         Memo's global insertion lock, so those phases run sequentially *)
  sched_opt : Gpos.Scheduler.t;
      (* optimization: costing is group-local, so Opt jobs parallelize *)
  mutable deadline : float option; (* absolute time; bounds exploration *)
  counters : acounters;
  obs : bool; (* collect per-rule timings for the observability report *)
  rule_stats : (int, rule_stat) Hashtbl.t; (* rule id -> profile *)
  explore_rules : Xform.Rule.t list;
  implement_rules : Xform.Rule.t list;
      (* the stage's rules of each kind, promise descending (paper §8.1),
         sorted once: filtering applied rules and partitioning off the
         prefiltered ones keep this order *)
  speedups : bool;
      (* the hot-path caches: skip rules whose shape bitmap rules the root
         out; memoize per-group rows/width and redistribute skew; skip child
         Opt spawns whose base cost is cached and reuse base costs across
         contexts differing only in the required properties. Each preserves
         the chosen plan and its cost exactly (test/test_perf_identity.ml
         proves it per query). *)
  direct_costing : bool;
      (* cost by direct recursion instead of Opt jobs: one worker, speedups
         on, and no fuzz seed (the seed permutes only [sched_opt]) *)
  (* rows/width indexed by canonical group id, [nan] where not frozen:
     filled before costing starts (the optimization phase inserts nothing),
     so parallel Opt jobs read them without a lock *)
  mutable rows_cache : float array;
  mutable width_cache : float array;
  (* redistribute-skew per (canonical group id, hash exprs): filled during
     costing, hence mutex-guarded *)
  skew_cache : (int * Expr.scalar list, float) Hashtbl.t;
  skew_lock : Mutex.t;
  (* the request-vector table, indexed by gexpr id and sized when costing
     starts (the optimization phase inserts nothing). A vector's base cost is
     valid across optimization contexts: child bests are final before any
     parent costs against them (the goal-queue barrier), and the operator's
     cost inputs are fixed per (gexpr, child requests). Bases are stored in
     every configuration, since [alternatives] rebuilds contexts from them;
     costing reads them back only under [speedups]. [cost_lock] guards the
     rows and every vector's [v_base]. *)
  mutable vectors : row option array;
  cost_lock : Mutex.t;
  (* (group id, request fingerprint) -> goal string, so repeat spawns skip
     the sprintf *)
  goal_cache : (int * int, string) Hashtbl.t;
  goal_lock : Mutex.t;
}

let create ?(workers = 1) ?fuzz_seed ?(obs = false) ?(speedups = true)
    ?(stage_name = "stage") ?(prov = false) ~ruleset ~model ~factory ~base
    memo =
  (* stable: rules of equal promise keep their rule-set order *)
  let by_promise rules =
    List.stable_sort
      (fun (a : Xform.Rule.t) b ->
        compare b.Xform.Rule.promise a.Xform.Rule.promise)
      rules
  in
  {
    memo;
    ruleset;
    stage_name;
    prov;
    rctx = { Xform.Rule.factory };
    model;
    base;
    sched = Gpos.Scheduler.create ();
    sched_opt =
      (* Schedule fuzzing permutes only the optimization scheduler: the
         exploration/implementation phases assign gexpr and group ids, so
         permuting them would change the Memo itself rather than exercise a
         different interleaving of the same costing work. Costing dequeues
         depth-first so child Opt goals complete before sibling contexts
         spawn — that is what makes the winner-reuse caches hit; the
         caches-off baseline keeps the breadth-first order. *)
      Gpos.Scheduler.create ~workers
        ?fuzz:(Option.map Gpos.Prng.create fuzz_seed)
        ~policy:
          (if speedups then Gpos.Scheduler.Lifo else Gpos.Scheduler.Fifo)
        ();
    deadline = None;
    counters =
      {
        a_xform_applied = Atomic.make 0;
        a_xform_results = Atomic.make 0;
        a_op_costings = Atomic.make 0;
        a_enf_costings = Atomic.make 0;
        a_alts_pruned = Atomic.make 0;
        a_deadline_checks = Atomic.make 0;
        a_prefilter_skips = Atomic.make 0;
        a_winner_skips = Atomic.make 0;
        a_base_reuses = Atomic.make 0;
        a_stats_hits = Atomic.make 0;
      };
    obs;
    rule_stats = Hashtbl.create 64;
    explore_rules = by_promise (Xform.Ruleset.exploration ruleset);
    implement_rules = by_promise (Xform.Ruleset.implementation ruleset);
    speedups;
    direct_costing = workers = 1 && speedups && Option.is_none fuzz_seed;
    rows_cache = [||];
    width_cache = [||];
    skew_cache = Hashtbl.create 256;
    skew_lock = Mutex.create ();
    vectors = [||];
    cost_lock = Mutex.create ();
    goal_cache = Hashtbl.create 256;
    goal_lock = Mutex.create ();
  }

let rule_stat t (rule : Xform.Rule.t) =
  match Hashtbl.find_opt t.rule_stats rule.Xform.Rule.id with
  | Some rs -> rs
  | None ->
      let rs =
        {
          rs_fired = 0;
          rs_results = 0;
          rs_skipped = 0;
          rs_prefiltered = 0;
          rs_time_ms = 0.0;
        }
      in
      Hashtbl.replace t.rule_stats rule.Xform.Rule.id rs;
      rs

let set_deadline t ms_from_now =
  t.deadline <-
    (match ms_from_now with
    | None -> None
    | Some ms -> Some (Gpos.Clock.now () +. (ms /. 1000.0)))

let timed_out t =
  match t.deadline with
  | None -> false
  | Some d ->
      Atomic.incr t.counters.a_deadline_checks;
      Gpos.Clock.now () > d

let bump_by counter n = ignore (Atomic.fetch_and_add counter n)

(* Sanitizer hook: publish context state/best accesses made outside the
   Memo's locks, so the race detector can check they are ordered by the
   scheduler's goal queues alone. *)
let trace_access obj write =
  if Gpos.Trace.enabled () then
    Gpos.Trace.emit (Gpos.Trace.Access { obj = obj (); write })

(* --- Xform(gexpr, rule) --- *)

let xform_job t (ge : Memo.gexpr) (rule : Xform.Rule.t) () =
  let t0 = if t.obs then Gpos.Clock.now () else 0.0 in
  let results = rule.Xform.Rule.apply t.rctx t.memo ge in
  bump_by t.counters.a_xform_applied 1;
  bump_by t.counters.a_xform_results (List.length results);
  if t.obs then begin
    let rs = rule_stat t rule in
    rs.rs_fired <- rs.rs_fired + 1;
    rs.rs_results <- rs.rs_results + List.length results;
    rs.rs_time_ms <- rs.rs_time_ms +. Gpos.Clock.ms_since t0
  end;
  let target = Memo.find t.memo ge.Memo.ge_group in
  (* Origin records are built only under the provenance flag: the record
     allocation is cheap, but "free when off" is a gated guarantee, not a
     hope. *)
  let origin =
    if t.prov then
      Some (Xform.Rule.origin_for rule ~stage:t.stage_name ~source:ge)
    else None
  in
  List.iter
    (fun mexpr -> ignore (Memo.insert t.memo ?origin ~target mexpr))
    results;
  Gpos.Scheduler.Finished

(* Apply all not-yet-applied [rules] (promise descending) to a group
   expression, after recursively processing child groups with
   [child_group_job]. *)
let gexpr_job t (ge : Memo.gexpr) ~(rules : Xform.Rule.t list)
    ~(respect_deadline : bool) ~(mark : Memo.gexpr -> unit)
    ~(child_goal : int -> string)
    ~(child_group_job : int -> unit -> Gpos.Scheduler.outcome) :
    unit -> Gpos.Scheduler.outcome =
  (* stage A: make sure children are processed; stage B: fire rules.
     The stage ref lives outside the closure: the job is re-entrant.
     Deadlines bound exploration only; when one fires the expression is still
     marked processed (skipping only the rule applications) so the group
     fixpoints terminate. *)
  let stage = ref `Children in
  let rec step () =
    match !stage with
    | `Children ->
        stage := `Rules;
        let children =
          List.map
            (fun gid ->
              let gid = Memo.find t.memo gid in
              {
                Gpos.Scheduler.run = child_group_job gid;
                goal = Some (child_goal gid);
              })
            ge.Memo.ge_children
        in
        if children = [] then step ()
        else Gpos.Scheduler.Wait_for children
    | `Rules ->
        stage := `Done;
        if respect_deadline && timed_out t then begin
          (* applications this deadline filtered out, for the rule profile *)
          if t.obs then
            List.iter
              (fun (r : Xform.Rule.t) ->
                if not (List.mem r.Xform.Rule.id ge.Memo.ge_applied) then begin
                  let rs = rule_stat t r in
                  rs.rs_skipped <- rs.rs_skipped + 1
                end)
              rules;
          mark ge;
          Gpos.Scheduler.Finished
        end
        else begin
          let fresh =
            List.filter
              (fun (r : Xform.Rule.t) ->
                not (List.mem r.Xform.Rule.id ge.Memo.ge_applied))
              rules
          in
          (* applicability pre-filter: a rule whose root-shape bit is clear
             for this expression would provably return [], so skip the
             application (and the job) while still marking it applied *)
          let pending, prefiltered =
            if not t.speedups then (fresh, [])
            else
              match ge.Memo.ge_op with
              | Expr.Physical _ -> (fresh, [])
              | Expr.Logical l ->
                  let tag = Ir.Logical_ops.tag l in
                  List.partition
                    (fun (r : Xform.Rule.t) -> Xform.Rule.applicable_tag r tag)
                    fresh
          in
          if prefiltered <> [] then begin
            bump_by t.counters.a_prefilter_skips (List.length prefiltered);
            if t.obs then
              List.iter
                (fun (r : Xform.Rule.t) ->
                  let rs = rule_stat t r in
                  rs.rs_prefiltered <- rs.rs_prefiltered + 1)
                prefiltered
          end;
          List.iter
            (fun (r : Xform.Rule.t) ->
              ge.Memo.ge_applied <- r.Xform.Rule.id :: ge.Memo.ge_applied)
            (pending @ prefiltered);
          mark ge;
          let jobs =
            List.map
              (fun r -> { Gpos.Scheduler.run = xform_job t ge r; goal = None })
              pending
          in
          if jobs = [] then Gpos.Scheduler.Finished
          else Gpos.Scheduler.Wait_for jobs
        end
    | `Done -> Gpos.Scheduler.Finished
  in
  step

(* --- Exp(g) / Exp(gexpr): fixpoint over a group's logical expressions --- *)

let rec exp_group_job t gid () =
  let gid = Memo.find t.memo gid in
  let g = Memo.group t.memo gid in
  if g.Memo.g_explored || timed_out t then begin
    g.Memo.g_explored <- true;
    Gpos.Scheduler.Finished
  end
  else begin
    let pending =
      Memo.logical_exprs g
      |> List.filter (fun (ge, _) -> not ge.Memo.ge_explored)
      |> List.map fst
    in
    if pending = [] then begin
      g.Memo.g_explored <- true;
      Gpos.Scheduler.Finished
    end
    else
      (* explore each pending gexpr, then re-run this job to catch any new
         expressions the transformations copied in *)
      Gpos.Scheduler.Wait_for
        (List.map
           (fun ge ->
             {
               Gpos.Scheduler.run =
                 gexpr_job t ge
                   ~rules:t.explore_rules
                   ~respect_deadline:true
                   ~mark:(fun ge -> ge.Memo.ge_explored <- true)
                   ~child_goal:(fun gid -> Printf.sprintf "exp:%d" gid)
                   ~child_group_job:(exp_group_job t);
               goal = None;
             })
           pending)
  end

(* --- Imp(g) / Imp(gexpr) --- *)

let rec imp_group_job t gid () =
  let gid = Memo.find t.memo gid in
  let g = Memo.group t.memo gid in
  if g.Memo.g_implemented then Gpos.Scheduler.Finished
  else begin
    let pending =
      Memo.logical_exprs g
      |> List.filter (fun (ge, _) -> not ge.Memo.ge_implemented)
      |> List.map fst
    in
    if pending = [] then begin
      g.Memo.g_implemented <- true;
      Gpos.Scheduler.Finished
    end
    else
      Gpos.Scheduler.Wait_for
        (List.map
           (fun ge ->
             {
               Gpos.Scheduler.run =
                 gexpr_job t ge
                   ~rules:t.implement_rules
                   ~respect_deadline:false
                   ~mark:(fun ge -> ge.Memo.ge_implemented <- true)
                   ~child_goal:(fun gid -> Printf.sprintf "imp:%d" gid)
                   ~child_group_job:(imp_group_job t);
               goal = None;
             })
           pending)
  end

(* --- costing helpers --- *)

let compute_group_rows t gid =
  match Memo.stats t.memo gid with
  | Some s -> Float.max 1.0 (Stats.Relstats.rows s)
  | None -> 1000.0

let compute_group_width t gid =
  Stats.Relstats.row_width (Memo.output_cols t.memo gid)

(* [count] = false reads without bumping the stats-hit counter: deriving a
   context's alternatives after costing must leave the work counts as the
   costing left them. *)
let frozen ~count t cache compute gid =
  let v = if gid < Array.length cache then cache.(gid) else nan in
  if Float.is_nan v then compute t gid
  else begin
    if count then Atomic.incr t.counters.a_stats_hits;
    v
  end

let group_rows ?(count = true) t gid =
  frozen ~count t t.rows_cache compute_group_rows gid

let group_width ?(count = true) t gid =
  frozen ~count t t.width_cache compute_group_width gid

(* Freeze rows/width per live group before costing: the optimization phase
   inserts nothing into the Memo, so the cached values stay canonical and
   parallel Opt jobs can read the arrays lock-free. *)
let freeze_group_caches t =
  if t.speedups then begin
    let n = Memo.ngroups t.memo in
    t.rows_cache <- Array.make n nan;
    t.width_cache <- Array.make n nan;
    List.iter
      (fun gid ->
        t.rows_cache.(gid) <- compute_group_rows t gid;
        t.width_cache.(gid) <- compute_group_width t gid)
      (Memo.group_ids t.memo)
  end

(* Skew of the columns a redistribute enforcer hashes on. *)
let compute_redistribute_skew t gid es =
  match Memo.stats t.memo gid with
  | None -> 1.0
  | Some s ->
      let col_skews =
        List.filter_map
          (function
            | Expr.Col c -> Some (Stats.Relstats.col_skew s c) | _ -> None)
          es
      in
      let skew = List.fold_left Float.max 1.0 col_skews in
      Float.min skew 4.0

let redistribute_skew ?(count = true) t gid (enf : Props.enforcer) =
  match enf with
  | Props.E_motion (Expr.Redistribute es) ->
      if not t.speedups then compute_redistribute_skew t gid es
      else begin
        (* col_skew folds over histogram buckets on every enforcer costing;
           memoize per (group, hash exprs). A concurrent duplicate compute
           stores the same deterministic value, so the lock only guards the
           table. *)
        let key = (gid, es) in
        Mutex.lock t.skew_lock;
        let hit = Hashtbl.find_opt t.skew_cache key in
        Mutex.unlock t.skew_lock;
        match hit with
        | Some v ->
            if count then Atomic.incr t.counters.a_stats_hits;
            v
        | None ->
            let v = compute_redistribute_skew t gid es in
            Mutex.lock t.skew_lock;
            Hashtbl.replace t.skew_cache key v;
            Mutex.unlock t.skew_lock;
            v
      end
  | _ -> 1.0

let child_requests t (ge : Memo.gexpr) op req =
  Requests.alternatives op ~req
    ~child_out_cols:(List.map (Memo.output_cols t.memo) ge.Memo.ge_children)

(* The row of [ge], made on first use; under [cost_lock]. *)
let row t (ge : Memo.gexpr) =
  match t.vectors.(ge.Memo.ge_id) with
  | Some r -> r
  | None ->
      let r = { r_fixed = None; r_by_req = []; r_pool = [] } in
      t.vectors.(ge.Memo.ge_id) <- Some r;
      r

(* [ge]'s vectors under parent request [req], in [Requests.alternatives]
   order, each built once per row. *)
let request_vectors t (ge : Memo.gexpr) op req =
  let build r =
    List.map
      (fun reqs ->
        match
          List.find_opt
            (fun v -> List.equal Props.req_equal v.v_reqs reqs)
            r.r_pool
        with
        | Some v -> v
        | None ->
            let v = { v_reqs = reqs; v_base = None } in
            r.r_pool <- v :: r.r_pool;
            v)
      (child_requests t ge op req)
  in
  Mutex.lock t.cost_lock;
  let r = row t ge in
  let vs =
    if not (Requests.passes_request op) then (
      match r.r_fixed with
      | Some vs -> vs
      | None ->
          let vs = build r in
          r.r_fixed <- Some vs;
          vs)
    else
      match List.find_opt (fun (q, _) -> Props.req_equal q req) r.r_by_req with
      | Some (_, vs) -> vs
      | None ->
          let vs = build r in
          r.r_by_req <- (req, vs) :: r.r_by_req;
          vs
  in
  Mutex.unlock t.cost_lock;
  vs

let read_base t v =
  Mutex.lock t.cost_lock;
  let b = v.v_base in
  Mutex.unlock t.cost_lock;
  b

(* A vector's base cost when costing may reuse it (under [speedups]). *)
let cached_base t v = if t.speedups then read_base t v else None

(* A vector's base cost, computed and stored on a miss; [None] while a
   child has no winner. *)
let base_cost t gid (ge : Memo.gexpr) (op : Expr.physical) v =
  let child_reqs = v.v_reqs in
  match cached_base t v with
  | Some hit ->
      bump_by t.counters.a_base_reuses 1;
      Some hit
  | None ->
      let children = List.map (Memo.find t.memo) ge.Memo.ge_children in
      let child_bests =
        List.map2
          (fun cg cr ->
            match Memo.find_context t.memo cg cr with
            | Some cctx ->
                (* unlocked read: must be ordered after the child Opt goal's
                   release by the goal queue — the sanitizer checks exactly
                   this *)
                trace_access
                  (fun () -> Printf.sprintf "ctx:%d.best" cctx.Memo.cx_id)
                  false;
                cctx.Memo.cx_best
            | None -> None)
          children child_reqs
      in
      if not (List.for_all Option.is_some child_bests) then None
      else begin
        let child_bests = List.map Option.get child_bests in
        let child_derived = List.map (fun b -> b.Memo.a_derived) child_bests in
        let delivered = Physical_ops.derive op child_derived in
        let inputs =
          List.map2
            (fun cg (b : Memo.alternative) ->
              Cost.Cost_model.input ~rows:(group_rows t cg)
                ~width:(group_width t cg) ~dist:b.Memo.a_derived.Props.ddist ())
            children child_bests
        in
        let rows_out = group_rows t gid in
        let width_out = group_width t gid in
        let scan_rows =
          match op with
          | Expr.P_table_scan (td, _, _) | Expr.P_index_scan (td, _, _, _, _) ->
              Stats.Relstats.rows (t.base td)
          | _ -> 0.0
        in
        bump_by t.counters.a_op_costings 1;
        let local =
          Cost.Cost_model.op_cost t.model op ~rows_out ~width_out ~inputs
            ~scan_rows ~out_dist:delivered.Props.ddist
        in
        let children_cost =
          List.fold_left (fun acc b -> acc +. b.Memo.a_cost) 0.0 child_bests
        in
        let entry = (local, children_cost, delivered, child_derived) in
        Mutex.lock t.cost_lock;
        v.v_base <- Some entry;
        Mutex.unlock t.cost_lock;
        Some entry
      end

(* Pass every enforcement alternative of one (gexpr, child-request vector)
   in a context to [f], in [Props.enforcement_alternatives] order: the
   chain walk tracks properties and incremental costs. [count] = false is
   the derivation path, which must not move the work counters. *)
let iter_chain_alternatives ?(count = true) t (ctx : Memo.context) gid
    (ge : Memo.gexpr) child_reqs
    (local, children_cost, delivered, child_derived)
    (f : Memo.alternative -> unit) =
  let rows_out = group_rows ~count t gid in
  let width_out = group_width ~count t gid in
  let base_cost = local +. children_cost in
  List.iter
    (fun chain ->
      let _, enf_costs_rev, final_derived =
        List.fold_left
          (fun (d, costs, _) enf ->
            let skew = redistribute_skew ~count t gid enf in
            if count then bump_by t.counters.a_enf_costings 1;
            let c =
              Cost.Cost_model.enforcer_cost t.model enf ~rows:rows_out
                ~width:width_out ~dist:d.Props.ddist ~skew
            in
            let d' = Props.apply_enforcer d enf in
            (d', c :: costs, d'))
          (delivered, [], delivered)
          chain
      in
      let enf_costs = List.rev enf_costs_rev in
      f
        {
          Memo.a_gexpr = ge;
          a_child_reqs = child_reqs;
          a_child_derived = child_derived;
          a_enforcers = chain;
          a_enf_costs = enf_costs;
          a_local_cost = local;
          a_cost = base_cost +. List.fold_left ( +. ) 0.0 enf_costs;
          a_derived = final_derived;
        })
    (Props.enforcement_alternatives ~delivered ~required:ctx.Memo.cx_req)

(* Offer every enforcement alternative of one costed (gexpr, child-request
   vector) to the context, unless the incumbent already beats its base cost
   (the incumbent bound, DESIGN.md). Each alternative costs the base plus
   its chain's enforcer costs, which are never negative (test_cost's
   "enforcer and operator costs are non-negative" property), and IEEE
   addition of a non-negative term never lowers the base: so when the base
   alone exceeds the incumbent, no chain can win. The test is strict, so a
   tie still reaches [Memo.record_alternative]'s structural tie-break; and
   winners only get cheaper, so a stale read of the incumbent on a
   scheduled path only prunes less. The skipped chains are counted, so
   offered plus pruned is every alternative the derivation rebuilds. *)
let offer_alternatives t (ctx : Memo.context) gid ge child_reqs
    ((local, children_cost, delivered, _) as base) =
  if local +. children_cost > Memo.incumbent_cost t.memo gid ctx then
    bump_by t.counters.a_alts_pruned
      (List.length
         (Props.enforcement_alternatives ~delivered ~required:ctx.Memo.cx_req))
  else
    iter_chain_alternatives t ctx gid ge child_reqs base
      (Memo.record_alternative t.memo gid ctx)

(* Cost one (gexpr, child-request vector) and offer its alternatives. *)
let cost_alternative t (ctx : Memo.context) (gid : int) (ge : Memo.gexpr)
    (op : Expr.physical) v : unit =
  match base_cost t gid ge op v with
  | None -> ()
  | Some base -> offer_alternatives t ctx gid ge v.v_reqs base

(* The alternatives of a context, rebuilt after costing (installed as
   [Memo.alternatives]; DESIGN.md says why the rebuild is exact). The
   direct driver costs the group's physical expressions, each one's
   child-request vectors and each vector's enforcer chains in exactly this
   order, from inputs that are fixed once costing is done: the Memo, the
   base costs in the request-vector table (a vector whose children had no
   winner was never offered and has no base; one the incumbent bound
   pruned has one) and the frozen row, width and skew figures. So the list holds what
   costing offered or pruned, newest first, with bit-identical costs;
   scheduled costing (workers > 1, speedups off) reached the same
   alternatives in job order. *)
let alternatives t gid (ctx : Memo.context) =
  let gid = Memo.find t.memo gid in
  let alts = ref [] in
  List.iter
    (fun (ge, op) ->
      List.iter
        (fun v ->
          Option.iter
            (fun base ->
              iter_chain_alternatives ~count:false t ctx gid ge v.v_reqs base
                (fun alt -> alts := alt :: !alts))
            (read_base t v))
        (request_vectors t ge op ctx.Memo.cx_req))
    (Memo.physical_exprs (Memo.group t.memo gid));
  !alts

(* --- Opt(g, req) / Opt(gexpr, req) --- *)

let opt_goal gid req = Printf.sprintf "opt:%d:%d" gid (Props.req_fingerprint req)

(* The same goal string is formatted on every spawn of the same (group,
   request) — hundreds of thousands of times per optimization. Memoize it;
   the key uses the same fingerprint the string itself embeds, so two
   requests share a memo slot exactly when they share a goal string. *)
let opt_goal_memo t gid req =
  if not t.speedups then opt_goal gid req
  else begin
    let key = (gid, Props.req_fingerprint req) in
    Mutex.lock t.goal_lock;
    let hit = Hashtbl.find_opt t.goal_cache key in
    (match hit with
    | Some _ -> ()
    | None -> Hashtbl.replace t.goal_cache key (opt_goal gid req));
    let v =
      match hit with Some v -> v | None -> Hashtbl.find t.goal_cache key
    in
    Mutex.unlock t.goal_lock;
    v
  end

(* Can every child spawn for this (gexpr, child-request vector) be elided?
   True when the vector already holds its base cost: it was published under
   [cost_lock] after every child best became final, so the mutex acquire on
   the lookup gives the happens-before ordering the goal queue would
   otherwise provide — safe at any worker count. *)
let children_already_costed t (ge : Memo.gexpr) v =
  t.speedups
  (* the sanitizer's race detector models ordering through goal-queue edges
     only; the mutex ordering this elision relies on is invisible to it, so
     keep the full spawn set whenever a trace is being collected *)
  && (not (Gpos.Trace.enabled ()))
  && (ge.Memo.ge_children = []
     || Option.is_some (cached_base t v))

let rec opt_group_job t gid req () =
  let gid = Memo.find t.memo gid in
  let ctx, _ = Memo.obtain_context t.memo gid req in
  let state_obj () = Printf.sprintf "ctx:%d.state" ctx.Memo.cx_id in
  trace_access state_obj false;
  match ctx.Memo.cx_state with
  | Memo.Ctx_complete -> Gpos.Scheduler.Finished
  | Memo.Ctx_in_progress ->
      (* our own re-run after the Opt(gexpr) children drained (concurrent
         requests for this goal are parked on the goal queue instead) *)
      trace_access state_obj true;
      ctx.Memo.cx_state <- Memo.Ctx_complete;
      Gpos.Scheduler.Finished
  | Memo.Ctx_new ->
      trace_access state_obj true;
      ctx.Memo.cx_state <- Memo.Ctx_in_progress;
      let g = Memo.group t.memo gid in
      let jobs =
        Memo.physical_exprs g
        |> List.map (fun (ge, op) ->
               {
                 Gpos.Scheduler.run = opt_gexpr_job t ctx gid ge op req;
                 goal = None;
               })
      in
      if jobs = [] then begin
        trace_access state_obj true;
        ctx.Memo.cx_state <- Memo.Ctx_complete;
        Gpos.Scheduler.Finished
      end
      else Gpos.Scheduler.Wait_for jobs

and opt_gexpr_job t ctx gid ge op req =
  let alternatives = lazy (request_vectors t ge op req) in
  let stage = ref `Spawn in
  fun () ->
    match !stage with
    | `Spawn ->
        stage := `Cost;
        let children = List.map (Memo.find t.memo) ge.Memo.ge_children in
        (* spawn Opt(child group, child request) for every request appearing
           in any alternative; goal queues deduplicate *)
        let pairs =
          Lazy.force alternatives
          |> List.concat_map (fun v ->
                 (* an alternative whose base cost is already cached needs no
                    child spawns at all: its child winners are final *)
                 if children_already_costed t ge v then begin
                   bump_by t.counters.a_winner_skips (List.length v.v_reqs);
                   []
                 end
                 else List.combine children v.v_reqs)
        in
        let pairs =
          if not t.speedups then pairs
          else begin
            (* the goal queue would deduplicate these anyway, but each spawn
               pays a job allocation, a goal-string format and a queue
               transaction; drop local duplicates up front *)
            let seen = Hashtbl.create 8 in
            List.filter
              (fun key ->
                if Hashtbl.mem seen key then false
                else (Hashtbl.replace seen key (); true))
              pairs
          end
        in
        let child_jobs =
          List.map
            (fun (cg, cr) ->
              {
                Gpos.Scheduler.run = opt_group_job t cg cr;
                goal = Some (opt_goal_memo t cg cr);
              })
            pairs
        in
        if child_jobs = [] then (
          stage := `Cost;
          List.iter (fun v -> cost_alternative t ctx gid ge op v)
            (Lazy.force alternatives);
          Gpos.Scheduler.Finished)
        else Gpos.Scheduler.Wait_for child_jobs
    | `Cost ->
        stage := `Done;
        List.iter
          (fun v -> cost_alternative t ctx gid ge op v)
          (Lazy.force alternatives);
        Gpos.Scheduler.Finished
    | `Done -> Gpos.Scheduler.Finished

(* --- direct single-worker optimization ---

   On the deterministic single-worker schedule with no trace collection, the
   depth-first (Lifo) job order degenerates to plain recursion: every child
   Opt goal completes before its parent costs against it. Driving the walk
   directly skips the per-goal job allocations, goal-string bookkeeping and
   queue transactions, which dominate small-query costing time. The parallel,
   fuzzed and traced paths keep the scheduler. *)
let rec opt_group_direct t gid req =
  let gid = Memo.find t.memo gid in
  let ctx, _ = Memo.obtain_context t.memo gid req in
  match ctx.Memo.cx_state with
  | Memo.Ctx_complete | Memo.Ctx_in_progress ->
      (* in-progress = a cycle back into an ancestor's context: proceed
         without it, exactly as the scheduler absorbs the deadlocked goal *)
      ()
  | Memo.Ctx_new ->
      ctx.Memo.cx_state <- Memo.Ctx_in_progress;
      let g = Memo.group t.memo gid in
      List.iter
        (fun (ge, op) -> opt_gexpr_direct t ctx gid ge op req)
        (Memo.physical_exprs g);
      ctx.Memo.cx_state <- Memo.Ctx_complete

and opt_gexpr_direct t ctx gid ge op req =
  (* where the scheduled walk would start an Opt gexpr job *)
  Gpos.Scheduler.preempt ();
  let children = List.map (Memo.find t.memo) ge.Memo.ge_children in
  List.iter
    (fun v ->
      (* one base read per vector: a hit means every child winner is final,
         so it both elides the child recursion and supplies the base cost;
         a miss recurses, then [base_cost] looks again, since a cycle
         through an ancestor's context may have priced the vector *)
      match cached_base t v with
      | Some base ->
          bump_by t.counters.a_winner_skips (List.length v.v_reqs);
          bump_by t.counters.a_base_reuses 1;
          offer_alternatives t ctx gid ge v.v_reqs base
      | None ->
          List.iter2
            (fun cg cr -> opt_group_direct t cg cr)
            children v.v_reqs;
          cost_alternative t ctx gid ge op v)
    (request_vectors t ge op req)

(* --- wait for a context to be complete, then finalize --- *)

let mark_contexts_complete t =
  (* optimization jobs have drained: every touched context is final *)
  List.iter
    (fun gid ->
      List.iter
        (fun ctx -> ctx.Memo.cx_state <- Memo.Ctx_complete)
        (Memo.contexts_of_group t.memo gid))
    (Memo.group_ids t.memo)

(* --- the four optimization steps (paper §4.1) --- *)

(* A root job that spawns [children] exactly once and finishes when they
   drain. *)
let once children =
  let spawned = ref false in
  fun () ->
    if !spawned then Gpos.Scheduler.Finished
    else begin
      spawned := true;
      Gpos.Scheduler.Wait_for children
    end

let explore t =
  let root = Memo.root t.memo in
  Gpos.Scheduler.run t.sched
    (once
       [
         {
           Gpos.Scheduler.run = exp_group_job t root;
           goal = Some (Printf.sprintf "exp:%d" root);
         };
       ])

let derive_statistics t = Memolib.Memo_stats.derive_all t.memo ~base:t.base

let implement t =
  (* implementation runs on every group so that plan alternatives exist even
     in corners exploration pruned *)
  Gpos.Scheduler.run t.sched
    (once
       (List.map
          (fun gid ->
            {
              Gpos.Scheduler.run = imp_group_job t gid;
              goal = Some (Printf.sprintf "imp:%d" gid);
            })
          (Memo.group_ids t.memo)))

let optimize t (req : Props.req) =
  freeze_group_caches t;
  t.vectors <- Array.make (Memo.ngexprs t.memo) None;
  Memo.set_alternatives t.memo (alternatives t);
  let root = Memo.root t.memo in
  if t.direct_costing && not (Gpos.Trace.enabled ()) then
    opt_group_direct t root req
  else
    Gpos.Scheduler.run t.sched_opt
      (once
         [
           {
             Gpos.Scheduler.run = opt_group_job t root req;
             goal = Some (opt_goal root req);
           };
         ]);
  mark_contexts_complete t

(* Full workflow. Returns the best plan for the root request. Each of the
   paper's §4.1 steps is wrapped in an Obs span — free unless a span session
   is active. *)
let run t (req : Props.req) : Expr.plan =
  Obs.Span.with_ ~name:"explore" (fun () -> explore t);
  Obs.Span.with_ ~name:"stats-derive" (fun () -> derive_statistics t);
  Obs.Span.with_ ~name:"implement" (fun () -> implement t);
  Obs.Span.with_ ~name:"costing" (fun () -> optimize t req);
  Obs.Span.with_ ~name:"extract" (fun () ->
      Memolib.Extract.best_plan t.memo (Memo.root t.memo) req)

let vector_reqs v = v.v_reqs
let vector_priced v = Option.is_some v.v_base

let priced_vectors t =
  Mutex.lock t.cost_lock;
  let n =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some r ->
            List.fold_left
              (fun acc v -> if vector_priced v then acc + 1 else acc)
              acc r.r_pool)
      0 t.vectors
  in
  Mutex.unlock t.cost_lock;
  n

(* --- observability snapshots (lib/obs) --- *)

(* Per-rule profile over the engine's rule set; rules that never fired and
   were never skipped are included with zeroes so totals line up. *)
let rule_profile t : Obs.Report.rule_stat list =
  List.map
    (fun (r : Xform.Rule.t) ->
      let rs =
        Option.value
          (Hashtbl.find_opt t.rule_stats r.Xform.Rule.id)
          ~default:
            {
              rs_fired = 0;
              rs_results = 0;
              rs_skipped = 0;
              rs_prefiltered = 0;
              rs_time_ms = 0.0;
            }
      in
      {
        Obs.Report.r_name = r.Xform.Rule.name;
        r_kind =
          (if Xform.Rule.is_exploration r then "explore" else "implement");
        r_fired = rs.rs_fired;
        r_results = rs.rs_results;
        r_skipped = rs.rs_skipped;
        r_prefiltered = rs.rs_prefiltered;
        r_time_ms = rs.rs_time_ms;
      })
    (Xform.Ruleset.rules t.ruleset)

let sched_profiles t =
  [
    ("explore/implement", Gpos.Scheduler.profile t.sched);
    ("costing", Gpos.Scheduler.profile t.sched_opt);
  ]

let search_profile t : Obs.Report.search_stat =
  let c = t.counters in
  {
    c_xforms = Atomic.get c.a_xform_applied;
    c_xform_results = Atomic.get c.a_xform_results;
    c_prefilter_skips = Atomic.get c.a_prefilter_skips;
    c_op_costings = Atomic.get c.a_op_costings;
    c_enforcer_costings = Atomic.get c.a_enf_costings;
    c_alternatives_pruned = Atomic.get c.a_alts_pruned;
    c_deadline_checks = Atomic.get c.a_deadline_checks;
    c_stats_hits = Atomic.get c.a_stats_hits;
    c_base_reuses = Atomic.get c.a_base_reuses;
    c_winner_skips = Atomic.get c.a_winner_skips;
  }
