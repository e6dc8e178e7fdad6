(* The parameterized plan cache: final physical plans keyed on
   (fingerprint, catalog version, stats version), LRU-bounded, explicitly
   invalidated on catalog/stats change.

   Each entry holds the normalized query text (for fingerprint-collision
   detection) plus a small MRU list of *binding variants* — one genuinely
   optimized plan per parameter vector seen. An exact-variant hit returns
   the cached plan unchanged, which is byte-identical to a fresh
   optimization because the optimizer is deterministic for a fixed snapshot
   (audited end to end by `bench serve`). A request whose parameters differ
   from every cached variant takes the generic-plan route: a variant's plan
   is rebound — each changed parameter written into the constants of its
   slot — when every changed slot can be placed, and otherwise the request
   counts as a miss and gets its own variant. Rebound plans are returned but
   never cached, so stored variants always come from the optimizer.

   A variant also keeps the bytes an exact hit replies with: its plan's DXL,
   JSON-escaped. They are filled on the first exact hit that asks for them
   (never on insert: most one-shot entries are never hit) and go when the
   variant is dropped by the MRU bound, eviction or invalidation. *)

open Ir

(* ---------------- parameter rebinding ----------------------------- *)

(* Rebinding is refused when any static partition decision is baked into the
   plan: pruned scans and partition selectors were chosen for the *old*
   constants. *)
let has_partition_decisions =
  Plan_ops.contains (fun p ->
      match p.Expr.pop with
      | Expr.P_table_scan (_, Some _, _) | Expr.P_partition_selector _ -> true
      | _ -> false)

exception Refused

(* [rebind ~old_params ~new_params plan] writes the new parameter vector
   into a plan optimized for [old_params], slot by slot: each [Slot (k, _)]
   constant and LIMIT/OFFSET slot [k] takes parameter [k], typed like the
   constant it replaces (a date literal's string parses as a Date), in
   subplans too. It returns [None] when
   - the vectors differ in arity or in a parameter's datum constructor;
   - a changed slot occurs nowhere live in the plan: the binder used the
     literal as structure or matched it with a twin, or it was folded away;
   - a changed slot was folded into a derived constant;
   - the plan holds partition decisions.
   Cost and cardinality annotations are kept from the cached plan: a rebound
   plan is a generic plan, its estimates are the shape's, not the values'. *)
let rebind ~old_params ~new_params (plan : Expr.plan) : Expr.plan option =
  let old_a = Array.of_list old_params and new_a = Array.of_list new_params in
  let n = Array.length old_a in
  let same_type o p = Datum.type_of o = Datum.type_of p in
  if n <> Array.length new_a || not (Array.for_all2 same_type old_a new_a) then
    None
  else
    let changed = Array.map2 (fun o p -> not (Datum.equal o p)) old_a new_a in
    if not (Array.exists Fun.id changed) then Some plan
    else if has_partition_decisions plan then None
    else
      let live = Array.make n false in
      (* slot [k]'s new value, typed like the plan's [old]; [None] keeps
         [old] *)
      let param k old =
        let i = abs k - 1 in
        if i < 0 then None
        else if i >= n then raise Refused
        else if not changed.(i) then None
        else if k < 0 then raise Refused
        else begin
          live.(i) <- true;
          match (old, new_a.(i)) with
          | Datum.Date _, Datum.String s -> (
              match Datum.date_of_string_opt s with
              | Some d -> Some d
              | None -> raise Refused)
          | _, p -> Some p
        end
      in
      let limit_value k n =
        match param k (Datum.Int n) with
        | None -> n
        | Some (Datum.Int n) -> n
        | Some _ -> raise Refused
      in
      let rec scalar s =
        Scalar_ops.map
          (function
            | Expr.Slot (k, d) -> Option.map (fun d -> Expr.Slot (k, d)) (param k d)
            | Expr.Subplan sp ->
                let sp_kind =
                  match sp.Expr.sp_kind with
                  | Expr.Sp_in e -> Expr.Sp_in (scalar e)
                  | Expr.Sp_not_in e -> Expr.Sp_not_in (scalar e)
                  | k -> k
                in
                Some (Expr.Subplan { sp with Expr.sp_kind; sp_plan = subst sp.Expr.sp_plan })
            | _ -> None)
          s
      and subst (p : Expr.plan) =
        let pop =
          match Physical_ops.map_scalars scalar p.Expr.pop with
          | Expr.P_limit (order, offset, count, slots) ->
              Expr.P_limit
                ( order,
                  limit_value slots.Expr.offset_slot offset,
                  Option.map (limit_value slots.Expr.count_slot) count,
                  slots )
          | pop -> pop
        in
        { p with Expr.pop; pchildren = List.map subst p.Expr.pchildren }
      in
      match subst plan with
      | plan' when Array.for_all2 (fun c l -> l || not c) changed live ->
          Some plan'
      | _ -> None
      | exception Refused -> None

(* ---------------- the cache proper --------------------------------- *)

type key = { k_fp : string; k_catalog : int; k_stats : int }

type variant = {
  v_params : Datum.t list;
  v_plan : Expr.plan;
  v_json : string option Atomic.t;
      (* the plan's JSON-escaped DXL, filled by the first [plan_json] call.
         Not a [Lazy.t]: two sessions forcing one lazy at once raise
         [CamlinternalLazy.Undefined]; two racing fills compute the same
         bytes instead. *)
}

let make_variant params plan =
  { v_params = params; v_plan = plan; v_json = Atomic.make None }

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
          (* structural equality is exact on lexer literals: [Int 10] and
             [Float 10.0] differ by constructor, and the lexer makes no NaN
             and no -0.0 *)
          match List.find_opt (fun v -> v.v_params = params) entry.e_variants
          with
          | Some v ->
              (* exact binding variant: MRU it and return the plan as-is *)
              entry.e_variants <-
                v :: List.filter (fun w -> w != v) entry.e_variants;
              t.hits <- t.hits + 1;
              Telemetry.Metrics.inc Telemetry.Std.plan_cache_hits;
              Exact v
          | None -> (
              (* any variant is a valid source: the most recent that
                 rebinds serves *)
              match
                List.find_map
                  (fun v -> rebind ~old_params:v.v_params ~new_params:params v.v_plan)
                  entry.e_variants
              with
              | Some plan ->
                  t.rebinds <- t.rebinds + 1;
                  Telemetry.Metrics.inc Telemetry.Std.plan_cache_hits;
                  Rebind plan
              | None ->
                  t.misses <- t.misses + 1;
                  Telemetry.Metrics.inc Telemetry.Std.plan_cache_misses;
                  Absent)))

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
          let kept = List.filter (fun v -> v.v_params <> params) entry.e_variants in
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
