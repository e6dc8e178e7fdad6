(* The parameterized plan cache: final physical plans keyed on
   (fingerprint, catalog version, stats version), LRU-bounded, explicitly
   invalidated on catalog/stats change.

   Each entry holds the normalized query text (for fingerprint-collision
   detection) plus a small MRU list of *binding variants* — one genuinely
   optimized plan per parameter vector seen. An exact-variant hit returns
   the cached plan unchanged, which is byte-identical to a fresh
   optimization because the optimizer is deterministic for a fixed snapshot
   (audited end to end by `bench serve`). A request whose parameters differ
   from every cached variant takes the generic-plan route: the most recent
   variant is parameter-rebound — its constants substituted in place — when
   that is provably unambiguous, and otherwise counts as a miss and gets its
   own variant. Rebound plans are returned but never cached, so stored
   variants always come from the optimizer.

   A variant also keeps the bytes an exact hit replies with: its plan's DXL,
   JSON-escaped. They are filled on the first exact hit that asks for them
   (never on insert: most one-shot entries are never hit) and go when the
   variant is dropped by the MRU bound, eviction or invalidation. *)

open Ir

(* ---------------- parameter rebinding ----------------------------- *)

(* Substitute parameter values into a cached plan. The map sends each old
   datum to its replacement; [applied] counts substitutions per old datum so
   the caller can verify every changed parameter was accounted for. *)

let subst_datum map applied d =
  match Hashtbl.find_opt map d with
  | Some d' ->
      Hashtbl.replace applied d (1 + Option.value ~default:0 (Hashtbl.find_opt applied d));
      d'
  | None -> d

let rec subst_scalar map applied (s : Expr.scalar) : Expr.scalar =
  let r = subst_scalar map applied in
  let rd = subst_datum map applied in
  match s with
  | Expr.Col _ -> s
  | Expr.Const d -> Expr.Const (rd d)
  | Expr.Cmp (op, a, b) -> Expr.Cmp (op, r a, r b)
  | Expr.Arith (op, a, b) -> Expr.Arith (op, r a, r b)
  | Expr.And cs -> Expr.And (List.map r cs)
  | Expr.Or cs -> Expr.Or (List.map r cs)
  | Expr.Coalesce cs -> Expr.Coalesce (List.map r cs)
  | Expr.Not c -> Expr.Not (r c)
  | Expr.Is_null c -> Expr.Is_null (r c)
  | Expr.Cast (c, ty) -> Expr.Cast (r c, ty)
  | Expr.Like (c, pat) -> (
      let c = r c in
      match Hashtbl.find_opt map (Datum.String pat) with
      | Some (Datum.String pat') ->
          Hashtbl.replace applied (Datum.String pat)
            (1
            + Option.value ~default:0
                (Hashtbl.find_opt applied (Datum.String pat)));
          Expr.Like (c, pat')
      | _ -> Expr.Like (c, pat))
  | Expr.In_list (c, ds) -> Expr.In_list (r c, List.map rd ds)
  | Expr.Case (whens, els) ->
      Expr.Case
        (List.map (fun (c, v) -> (r c, r v)) whens, Option.map r els)
  | Expr.Subplan sp ->
      Expr.Subplan { sp with Expr.sp_plan = subst_plan map applied sp.Expr.sp_plan }

and subst_proj map applied (p : Expr.proj) =
  { p with Expr.proj_expr = subst_scalar map applied p.Expr.proj_expr }

and subst_pop map applied (pop : Expr.physical) : Expr.physical =
  let r = subst_scalar map applied in
  let ro = Option.map r in
  match pop with
  | Expr.P_table_scan (td, parts, filter) ->
      Expr.P_table_scan (td, parts, ro filter)
  | Expr.P_index_scan (td, idx, cmp, key, residual) ->
      Expr.P_index_scan (td, idx, cmp, r key, ro residual)
  | Expr.P_filter f -> Expr.P_filter (r f)
  | Expr.P_project projs -> Expr.P_project (List.map (subst_proj map applied) projs)
  | Expr.P_hash_join (k, keys, residual) ->
      Expr.P_hash_join (k, List.map (fun (a, b) -> (r a, r b)) keys, ro residual)
  | Expr.P_merge_join (k, keys, residual) ->
      Expr.P_merge_join (k, keys, ro residual)
  | Expr.P_nl_join (k, pred) -> Expr.P_nl_join (k, r pred)
  | Expr.P_window (parts, order, wfs) ->
      Expr.P_window
        ( parts,
          order,
          List.map (fun w -> { w with Expr.wf_arg = ro w.Expr.wf_arg }) wfs )
  | Expr.P_hash_agg (ph, keys, aggs) ->
      Expr.P_hash_agg
        (ph, keys, List.map (fun a -> { a with Expr.agg_arg = ro a.Expr.agg_arg }) aggs)
  | Expr.P_stream_agg (ph, keys, aggs) ->
      Expr.P_stream_agg
        (ph, keys, List.map (fun a -> { a with Expr.agg_arg = ro a.Expr.agg_arg }) aggs)
  | Expr.P_limit (order, offset, count) ->
      (* LIMIT/OFFSET literals are parameters too, but the extracted plan
         bakes them as ints: rebind through the Int datum mapping. *)
      let ri n =
        match Hashtbl.find_opt map (Datum.Int n) with
        | Some (Datum.Int n') ->
            Hashtbl.replace applied (Datum.Int n)
              (1
              + Option.value ~default:0 (Hashtbl.find_opt applied (Datum.Int n)));
            n'
        | _ -> n
      in
      Expr.P_limit (order, ri offset, Option.map ri count)
  | Expr.P_motion (Expr.Redistribute es) ->
      Expr.P_motion (Expr.Redistribute (List.map r es))
  | Expr.P_motion _ | Expr.P_sort _ | Expr.P_cte_producer _
  | Expr.P_cte_consumer _ | Expr.P_sequence _ | Expr.P_set _
  | Expr.P_const_table _ | Expr.P_partition_selector _ ->
      pop

and subst_plan map applied (p : Expr.plan) : Expr.plan =
  {
    p with
    Expr.pop = subst_pop map applied p.Expr.pop;
    pchildren = List.map (subst_plan map applied) p.Expr.pchildren;
  }

(* Rebinding is refused when any static partition decision is baked into the
   plan: pruned scans and partition selectors were chosen for the *old*
   constants. *)
let rec has_partition_decisions (p : Expr.plan) =
  (match p.Expr.pop with
  | Expr.P_table_scan (_, Some _, _) | Expr.P_partition_selector _ -> true
  | _ -> false)
  || List.exists has_partition_decisions p.Expr.pchildren

(* [rebind ~old_params ~new_params plan] substitutes the new parameter
   vector into a cached plan, or returns [None] when the substitution would
   be ambiguous or incomplete:
   - vectors must agree in arity and per-position datum constructor;
   - the old→new mapping must be a function (equal old values cannot map to
     different new values) and changed old values must be pairwise distinct;
   - every changed old value must actually be found (and replaced) in the
     plan — a constant folded away or translated at bind time (e.g. a date
     literal) fails the rebind rather than silently serving a stale value;
   - plans with baked partition decisions are never rebound.
   Cost and cardinality annotations are kept from the cached plan: a rebound
   plan is a generic plan, its estimates are the shape's, not the values'. *)
let rebind ~old_params ~new_params (plan : Expr.plan) : Expr.plan option =
  if List.length old_params <> List.length new_params then None
  else begin
    let same_ctor a b =
      match (a, b) with
      | Datum.Int _, Datum.Int _
      | Datum.Float _, Datum.Float _
      | Datum.String _, Datum.String _
      | Datum.Bool _, Datum.Bool _
      | Datum.Date _, Datum.Date _
      | Datum.Null, Datum.Null ->
          true
      | _ -> false
    in
    let map = Hashtbl.create 16 in
    let consistent = ref true in
    List.iter2
      (fun o n ->
        if not (same_ctor o n) then consistent := false
        else if not (Datum.equal o n) then
          match Hashtbl.find_opt map o with
          | Some n' when not (Datum.equal n n') -> consistent := false
          | _ -> Hashtbl.replace map o n)
      old_params new_params;
    (* a changed parameter whose old value equals an *unchanged* parameter's
       value is ambiguous: the substitution could touch the wrong literal *)
    List.iter
      (fun o ->
        if Hashtbl.mem map o then
          let changed = Hashtbl.find map o in
          List.iter2
            (fun o' n' ->
              if Datum.equal o o' && Datum.equal o' n'
                 && not (Datum.equal changed n') then consistent := false)
            old_params new_params)
      old_params;
    (* date literals are lifted as strings but bound as Date datums: extend
       the mapping through the date translation *)
    Hashtbl.iter
      (fun o n ->
        match (o, n) with
        | Datum.String so, Datum.String sn -> (
            match (Datum.date_of_string_opt so, Datum.date_of_string_opt sn) with
            | Some od, Some nd ->
                if not (Hashtbl.mem map od) then Hashtbl.replace map od nd
            | _ -> ())
        | _ -> ())
      (Hashtbl.copy map);
    if (not !consistent) || Hashtbl.length map = 0 then
      if !consistent then Some plan (* identical vectors: nothing to do *)
      else None
    else if has_partition_decisions plan then None
    else begin
      let applied = Hashtbl.create 16 in
      let plan' = subst_plan map applied plan in
      (* every changed String param must be applied as String or as its Date
         translation; other datums directly *)
      let accounted o =
        let hits d = Option.value ~default:0 (Hashtbl.find_opt applied d) in
        match o with
        | Datum.String s -> (
            hits o > 0
            || match Datum.date_of_string_opt s with
               | Some od -> hits od > 0
               | None -> false)
        | _ -> hits o > 0
      in
      let ok = Hashtbl.fold (fun o _ acc -> acc && accounted o) map true in
      if ok then Some plan' else None
    end
  end

(* ---------------- the cache proper --------------------------------- *)

type key = { k_fp : string; k_catalog : int; k_stats : int }

type variant = {
  v_params_key : string;
  v_params : Datum.t list;
  v_plan : Expr.plan;
  v_json : string option Atomic.t;
      (* the plan's JSON-escaped DXL, filled by the first [plan_json] call.
         Not a [Lazy.t]: two sessions forcing one lazy at once raise
         [CamlinternalLazy.Undefined]; two racing fills compute the same
         bytes instead. *)
}

let make_variant params plan =
  {
    v_params_key = Normalize.params_key params;
    v_params = params;
    v_plan = plan;
    v_json = Atomic.make None;
  }

let variant_plan v = v.v_plan

let plan_json v =
  match Atomic.get v.v_json with
  | Some json -> json
  | None ->
      let buf = Buffer.create 16384 in
      Dxl.Dxl_plan.add_json_escaped buf v.v_plan;
      let json = Buffer.contents buf in
      Atomic.set v.v_json (Some json);
      json

type entry = {
  e_norm_text : string;
  mutable e_variants : variant list; (* MRU first, length <= max_variants *)
  mutable e_lru : int;               (* global LRU stamp *)
}

type stats = {
  hits : int;
  misses : int;
  rebinds : int;
  evictions : int;
  invalidations : int;
  collisions : int;
  entries : int;
  variants : int;
}

type t = {
  capacity : int;     (* max entries *)
  max_variants : int; (* max binding variants per entry *)
  table : (key, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable seq : int;
  mutable hits : int;
  mutable misses : int;
  mutable rebinds : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable collisions : int;
  mutable on_evict : (string -> unit) option;
      (* notified with the victim's fingerprint after each LRU eviction,
         while the cache lock is held — the service event log's hook.
         Must not reenter the cache. *)
}

let create ?(capacity = 256) ?(max_variants = 8) () =
  {
    capacity = max 1 capacity;
    max_variants = max 1 max_variants;
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    seq = 0;
    hits = 0;
    misses = 0;
    rebinds = 0;
    evictions = 0;
    invalidations = 0;
    collisions = 0;
    on_evict = None;
  }

let set_on_evict t f = t.on_evict <- f
let capacity t = t.capacity

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t entry =
  t.seq <- t.seq + 1;
  entry.e_lru <- t.seq

type lookup = Exact of variant | Rebind of Expr.plan | Absent

let lookup t ~fp ~norm_text ~params ~catalog_version ~stats_version =
  let key = { k_fp = fp; k_catalog = catalog_version; k_stats = stats_version } in
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None ->
          t.misses <- t.misses + 1;
          Telemetry.Metrics.inc Telemetry.Std.plan_cache_misses;
          Absent
      | Some entry when entry.e_norm_text <> norm_text ->
          (* 64-bit fingerprint collision: two distinct shapes share a hash.
             Never serve across it. *)
          t.collisions <- t.collisions + 1;
          t.misses <- t.misses + 1;
          Telemetry.Metrics.inc Telemetry.Std.plan_cache_collisions;
          Telemetry.Metrics.inc Telemetry.Std.plan_cache_misses;
          Absent
      | Some entry -> (
          touch t entry;
          let pkey = Normalize.params_key params in
          match
            List.find_opt (fun v -> v.v_params_key = pkey) entry.e_variants
          with
          | Some v ->
              (* exact binding variant: MRU it and return the plan as-is *)
              entry.e_variants <-
                v :: List.filter (fun w -> w != v) entry.e_variants;
              t.hits <- t.hits + 1;
              Telemetry.Metrics.inc Telemetry.Std.plan_cache_hits;
              Exact v
          | None -> (
              match entry.e_variants with
              | [] ->
                  t.misses <- t.misses + 1;
                  Telemetry.Metrics.inc Telemetry.Std.plan_cache_misses;
                  Absent
              | recent :: _ -> (
                  match
                    rebind ~old_params:recent.v_params ~new_params:params
                      recent.v_plan
                  with
                  | Some plan ->
                      t.rebinds <- t.rebinds + 1;
                      Telemetry.Metrics.inc Telemetry.Std.plan_cache_hits;
                      Rebind plan
                  | None ->
                      t.misses <- t.misses + 1;
                      Telemetry.Metrics.inc Telemetry.Std.plan_cache_misses;
                      Absent))))

type outcome = Hit of Expr.plan | Rebound of Expr.plan | Miss

let find t ~fp ~norm_text ~params ~catalog_version ~stats_version =
  match lookup t ~fp ~norm_text ~params ~catalog_version ~stats_version with
  | Exact v -> Hit v.v_plan
  | Rebind plan -> Rebound plan
  | Absent -> Miss

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.e_lru <= entry.e_lru -> acc
        | _ -> Some (key, entry))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      Telemetry.Metrics.inc Telemetry.Std.plan_cache_evictions;
      (match t.on_evict with None -> () | Some f -> f key.k_fp)

let add t ~fp ~norm_text ~params ~catalog_version ~stats_version plan =
  let key = { k_fp = fp; k_catalog = catalog_version; k_stats = stats_version } in
  let variant = make_variant params plan in
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some entry when entry.e_norm_text <> norm_text ->
          (* collision on insert: keep the resident shape *)
          t.collisions <- t.collisions + 1;
          Telemetry.Metrics.inc Telemetry.Std.plan_cache_collisions
      | Some entry ->
          let kept =
            List.filter
              (fun v -> v.v_params_key <> variant.v_params_key)
              entry.e_variants
          in
          let kept =
            if List.length kept >= t.max_variants then
              List.filteri (fun i _ -> i < t.max_variants - 1) kept
            else kept
          in
          entry.e_variants <- variant :: kept;
          touch t entry
      | None ->
          if Hashtbl.length t.table >= t.capacity then evict_lru t;
          let entry =
            {
              e_norm_text = norm_text;
              e_variants = [ variant ];
              e_lru = 0;
            }
          in
          touch t entry;
          Hashtbl.replace t.table key entry)

(* Drop every entry not built against [keep = (catalog, stats)] versions —
   the explicit-invalidation path after a Source bump. *)
let invalidate t ~keep:(catalog_version, stats_version) =
  locked t (fun () ->
      let stale =
        Hashtbl.fold
          (fun key _ acc ->
            if key.k_catalog <> catalog_version || key.k_stats <> stats_version
            then key :: acc
            else acc)
          t.table []
      in
      List.iter (Hashtbl.remove t.table) stale;
      let n = List.length stale in
      t.invalidations <- t.invalidations + n;
      Telemetry.Metrics.add Telemetry.Std.plan_cache_invalidations n;
      n)

let clear t =
  locked t (fun () ->
      let n = Hashtbl.length t.table in
      Hashtbl.reset t.table;
      t.invalidations <- t.invalidations + n;
      Telemetry.Metrics.add Telemetry.Std.plan_cache_invalidations n;
      n)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        rebinds = t.rebinds;
        evictions = t.evictions;
        invalidations = t.invalidations;
        collisions = t.collisions;
        entries = Hashtbl.length t.table;
        variants =
          Hashtbl.fold
            (fun _ e acc -> acc + List.length e.e_variants)
            t.table 0;
      })
