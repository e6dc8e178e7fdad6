(* The unified observability report: per-rule profiles, Memo growth,
   scheduler utilization, search work counts, execution metrics and the
   collected spans, merged into one value attached to [Optimizer.report].

   Each counting layer fills one record defined once: the Memo its
   [memo_stat], the engine its [search_stat], each scheduler its
   [Gpos.Scheduler.profile]. [Orca.Optimizer] hands the same records to
   lib/telemetry, assembles one [t] per optimization stage and [merge]s
   them; the CLI merges further across a whole suite. Exec metrics arrive
   as generic key/value pairs ([Exec.Metrics.to_kv]) so this library
   depends on nothing above gpos. *)

type rule_stat = {
  r_name : string;
  r_kind : string;  (* "explore" | "implement" *)
  r_fired : int;    (* applications actually run *)
  r_results : int;  (* alternatives produced *)
  r_skipped : int;  (* applications filtered out (stage deadline fired) *)
  r_prefiltered : int;
      (* applications skipped by the applicability pre-filter (the rule's
         root-shape bitmap ruled the group expression out) *)
  r_time_ms : float;
}

type memo_stat = {
  m_groups : int;
  m_gexprs : int;
  m_inserts : int;      (* insert_gexpr calls *)
  m_dedup_hits : int;   (* inserts resolved to an existing expression *)
  m_merges : int;       (* group merges triggered by duplicate detection *)
  m_ctx_created : int;
  m_ctx_cache_hits : int;  (* obtain_context found an existing context *)
  m_winner_updates : int;  (* record_alternative improved cx_best *)
  m_winner_kept : int;     (* record_alternative kept the incumbent *)
  m_ops_interned : int;    (* distinct hash-consed operator payloads *)
  m_intern_hits : int;     (* operators resolved to an existing interned id *)
}

(* Search work counts of one engine: rule applications, costing and the
   caches that skip work. *)
type search_stat = {
  c_xforms : int;            (* transformation-rule applications *)
  c_xform_results : int;     (* alternatives produced by rule applications *)
  c_prefilter_skips : int;   (* rule applications pruned by the shape bitmap *)
  c_contexts : int;          (* optimization contexts created by the engine *)
  c_op_costings : int;       (* Cost_model.op_cost invocations *)
  c_enforcer_costings : int; (* Cost_model.enforcer_cost invocations *)
  c_alternatives : int;      (* alternatives recorded into contexts *)
  c_deadline_checks : int;
  c_stats_hits : int;        (* rows/width/skew served from the stats memo *)
  c_base_reuses : int;       (* op+children base costs served from cache *)
  c_winner_skips : int;      (* child Opt spawns skipped: context complete *)
}

(* Cardinality accuracy per operator class (lib/prov): Q-error =
   max(est/act, act/est) per observed plan node, aggregated as a geometric
   mean. The geomean is stored as (Σ ln(qerr), node count) so merging across
   stages and queries is exact. *)
type acc_stat = {
  a_class : string;     (* Physical_ops.class_name, or "(all)" *)
  a_nodes : int;        (* observed nodes (est and actual both known) *)
  a_log_sum : float;    (* Σ ln(qerror) over observed nodes *)
  a_max : float;        (* worst node-level Q-error *)
  a_unobserved : int;   (* nodes with no actual (never executed) *)
}

type t = {
  label : string;
  queries : int;  (* merged query count (1 per optimization session) *)
  total_ms : float;
  stage_names : string list;
  rules : rule_stat list;
  memo : memo_stat;
  scheds : (string * Gpos.Scheduler.profile) list;
      (* "explore/implement" | "costing" *)
  search : search_stat;
  exec : (string * float) list;  (* Exec.Metrics key/values, when executed *)
  acc : acc_stat list;  (* cardinality accuracy by operator class (lib/prov) *)
  spans : Span.event list;
}

let empty_memo =
  {
    m_groups = 0;
    m_gexprs = 0;
    m_inserts = 0;
    m_dedup_hits = 0;
    m_merges = 0;
    m_ctx_created = 0;
    m_ctx_cache_hits = 0;
    m_winner_updates = 0;
    m_winner_kept = 0;
    m_ops_interned = 0;
    m_intern_hits = 0;
  }

let empty_search =
  {
    c_xforms = 0;
    c_xform_results = 0;
    c_prefilter_skips = 0;
    c_contexts = 0;
    c_op_costings = 0;
    c_enforcer_costings = 0;
    c_alternatives = 0;
    c_deadline_checks = 0;
    c_stats_hits = 0;
    c_base_reuses = 0;
    c_winner_skips = 0;
  }

let empty =
  {
    label = "";
    queries = 0;
    total_ms = 0.0;
    stage_names = [];
    rules = [];
    memo = empty_memo;
    scheds = [];
    search = empty_search;
    exec = [];
    acc = [];
    spans = [];
  }

let with_exec t kv = { t with exec = kv }
let with_spans t spans = { t with spans }
let with_acc t acc = { t with acc }

let acc_geomean a = if a.a_nodes = 0 then 1.0 else exp (a.a_log_sum /. float_of_int a.a_nodes)

(* --- merging --- *)

let merge_memo a b =
  {
    m_groups = a.m_groups + b.m_groups;
    m_gexprs = a.m_gexprs + b.m_gexprs;
    m_inserts = a.m_inserts + b.m_inserts;
    m_dedup_hits = a.m_dedup_hits + b.m_dedup_hits;
    m_merges = a.m_merges + b.m_merges;
    m_ctx_created = a.m_ctx_created + b.m_ctx_created;
    m_ctx_cache_hits = a.m_ctx_cache_hits + b.m_ctx_cache_hits;
    m_winner_updates = a.m_winner_updates + b.m_winner_updates;
    m_winner_kept = a.m_winner_kept + b.m_winner_kept;
    m_ops_interned = a.m_ops_interned + b.m_ops_interned;
    m_intern_hits = a.m_intern_hits + b.m_intern_hits;
  }

let merge_search a b =
  {
    c_xforms = a.c_xforms + b.c_xforms;
    c_xform_results = a.c_xform_results + b.c_xform_results;
    c_prefilter_skips = a.c_prefilter_skips + b.c_prefilter_skips;
    c_contexts = a.c_contexts + b.c_contexts;
    c_op_costings = a.c_op_costings + b.c_op_costings;
    c_enforcer_costings = a.c_enforcer_costings + b.c_enforcer_costings;
    c_alternatives = a.c_alternatives + b.c_alternatives;
    c_deadline_checks = a.c_deadline_checks + b.c_deadline_checks;
    c_stats_hits = a.c_stats_hits + b.c_stats_hits;
    c_base_reuses = a.c_base_reuses + b.c_base_reuses;
    c_winner_skips = a.c_winner_skips + b.c_winner_skips;
  }

(* The union of two keyed lists, sorted by key; an entry on both sides is
   [merge]d. *)
let merge_keyed key merge a b =
  let tbl = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace tbl (key x) x) a;
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace tbl k
        (match Hashtbl.find_opt tbl k with None -> x | Some p -> merge p x))
    b;
  Hashtbl.fold (fun _ x acc -> x :: acc) tbl []
  |> List.sort (fun x y -> compare (key x) (key y))

let merge_rules =
  merge_keyed
    (fun r -> r.r_name)
    (fun p r ->
      {
        p with
        r_fired = p.r_fired + r.r_fired;
        r_results = p.r_results + r.r_results;
        r_skipped = p.r_skipped + r.r_skipped;
        r_prefiltered = p.r_prefiltered + r.r_prefiltered;
        r_time_ms = p.r_time_ms +. r.r_time_ms;
      })

(* Two schedulers' utilization as one: counts sum, the worker count and
   queue high-water mark take the larger. *)
let merge_sched (p : Gpos.Scheduler.profile) (s : Gpos.Scheduler.profile) :
    Gpos.Scheduler.profile =
  {
    p_workers = max p.p_workers s.p_workers;
    p_jobs_created = p.p_jobs_created + s.p_jobs_created;
    p_jobs_run = p.p_jobs_run + s.p_jobs_run;
    p_jobs_suspended = p.p_jobs_suspended + s.p_jobs_suspended;
    p_goal_hits = p.p_goal_hits + s.p_goal_hits;
    p_max_queue_depth = max p.p_max_queue_depth s.p_max_queue_depth;
    p_per_worker_run =
      (try List.map2 ( + ) p.p_per_worker_run s.p_per_worker_run
       with Invalid_argument _ -> p.p_per_worker_run);
  }

(* Every labelled scheduler folded into one profile. *)
let sched_total = function
  | [] -> invalid_arg "Report.sched_total: no schedulers"
  | (_, p) :: rest -> List.fold_left (fun acc (_, s) -> merge_sched acc s) p rest

let merge_scheds =
  merge_keyed fst (fun (label, p) (_, s) -> (label, merge_sched p s))

let merge_exec = merge_keyed fst (fun (k, p) (_, v) -> (k, v +. p))

let merge_acc =
  merge_keyed
    (fun s -> s.a_class)
    (fun p s ->
      {
        p with
        a_nodes = p.a_nodes + s.a_nodes;
        a_log_sum = p.a_log_sum +. s.a_log_sum;
        a_max = Float.max p.a_max s.a_max;
        a_unobserved = p.a_unobserved + s.a_unobserved;
      })

let merge a b =
  {
    label = (if a.label = "" then b.label else a.label);
    queries = a.queries + b.queries;
    total_ms = a.total_ms +. b.total_ms;
    stage_names =
      a.stage_names
      @ List.filter (fun s -> not (List.mem s a.stage_names)) b.stage_names;
    rules = merge_rules a.rules b.rules;
    memo = merge_memo a.memo b.memo;
    scheds = merge_scheds a.scheds b.scheds;
    search = merge_search a.search b.search;
    exec = merge_exec a.exec b.exec;
    acc = merge_acc a.acc b.acc;
    spans = a.spans @ b.spans;
  }

let merge_all = List.fold_left merge empty

(* --- rendering --- *)

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let to_string ?(top = 10) t =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "== observability report: %s (%d quer%s, %.1f ms optimization) ==\n"
    (if t.label = "" then "?" else t.label)
    t.queries
    (if t.queries = 1 then "y" else "ies")
    t.total_ms;
  if t.stage_names <> [] then
    pf "stages: %s\n" (String.concat ", " t.stage_names);
  (* rules, top-N by cumulative time then firings *)
  let fired =
    List.filter
      (fun r -> r.r_fired > 0 || r.r_skipped > 0 || r.r_prefiltered > 0)
      t.rules
  in
  let ranked =
    List.sort
      (fun a b ->
        match Float.compare b.r_time_ms a.r_time_ms with
        | 0 -> compare b.r_fired a.r_fired
        | c -> c)
      fired
  in
  let shown = List.filteri (fun i _ -> i < top) ranked in
  pf "\nper-rule profile (top %d of %d by cumulative time):\n" top
    (List.length fired);
  pf "  %-28s %-10s %8s %8s %8s %11s %10s\n" "rule" "kind" "fired" "results"
    "skipped" "prefiltered" "time(ms)";
  List.iter
    (fun r ->
      pf "  %-28s %-10s %8d %8d %8d %11d %10.3f\n" r.r_name r.r_kind r.r_fired
        r.r_results r.r_skipped r.r_prefiltered r.r_time_ms)
    shown;
  let total_fired = List.fold_left (fun a r -> a + r.r_fired) 0 t.rules in
  let total_results = List.fold_left (fun a r -> a + r.r_results) 0 t.rules in
  let total_skipped = List.fold_left (fun a r -> a + r.r_skipped) 0 t.rules in
  let total_prefiltered =
    List.fold_left (fun a r -> a + r.r_prefiltered) 0 t.rules
  in
  pf "  %-28s %-10s %8d %8d %8d %11d\n" "(all rules)" "" total_fired
    total_results total_skipped total_prefiltered;
  (* memo *)
  let m = t.memo in
  pf "\nmemo: %d groups, %d group expressions\n" m.m_groups m.m_gexprs;
  pf "  inserts=%d dedup-hits=%d (%.1f%% duplicate rate) merges=%d\n"
    m.m_inserts m.m_dedup_hits (pct m.m_dedup_hits m.m_inserts) m.m_merges;
  pf "  contexts: created=%d cache-hits=%d  winners: updates=%d kept=%d (%.1f%% cache efficiency)\n"
    m.m_ctx_created m.m_ctx_cache_hits m.m_winner_updates m.m_winner_kept
    (pct m.m_winner_kept (m.m_winner_updates + m.m_winner_kept));
  if m.m_ops_interned > 0 || m.m_intern_hits > 0 then
    pf "  interning: %d distinct operator payloads, %d hits (%.1f%% shared)\n"
      m.m_ops_interned m.m_intern_hits
      (pct m.m_intern_hits (m.m_ops_interned + m.m_intern_hits));
  (* schedulers *)
  List.iter
    (fun (label, (s : Gpos.Scheduler.profile)) ->
      pf "scheduler[%s]: workers=%d created=%d run=%d suspended=%d goal-hits=%d max-queue=%d per-worker=[%s]\n"
        label s.p_workers s.p_jobs_created s.p_jobs_run s.p_jobs_suspended
        s.p_goal_hits s.p_max_queue_depth
        (String.concat ";" (List.map string_of_int s.p_per_worker_run)))
    t.scheds;
  (* cost model *)
  let c = t.search in
  pf "cost model: op-costings=%d enforcer-costings=%d alternatives=%d deadline-checks=%d\n"
    c.c_op_costings c.c_enforcer_costings c.c_alternatives c.c_deadline_checks;
  if c.c_base_reuses > 0 || c.c_winner_skips > 0 then
    pf "cost reuse: base-costs=%d winner-skips=%d\n" c.c_base_reuses
      c.c_winner_skips;
  (* exec *)
  if t.exec <> [] then begin
    pf "execution: ";
    pf "%s\n"
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%.4g" k v) t.exec))
  end;
  (* cardinality accuracy (lib/prov); absent entirely unless collected *)
  if t.acc <> [] then begin
    pf "\ncardinality accuracy (Q-error by operator class):\n";
    pf "  %-24s %8s %10s %10s %12s\n" "class" "nodes" "geomean" "max"
      "unobserved";
    List.iter
      (fun a ->
        pf "  %-24s %8d %10.3f %10.3f %12d\n" a.a_class a.a_nodes
          (acc_geomean a) a.a_max a.a_unobserved)
      t.acc
  end;
  if t.spans <> [] then begin
    pf "\nspan flame summary:\n";
    Buffer.add_string buf (Trace_export.flame_summary t.spans)
  end;
  Buffer.contents buf
