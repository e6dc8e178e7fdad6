open Ir

(* The Memo (paper §3, §4.1): a compact encoding of the plan space.

   Groups hold logically equivalent expressions (logical and physical
   alike). Group expressions are operators whose children are groups.
   Duplicate detection is topology-based: an operator fingerprint plus the
   canonical ids of its child groups. Inserting an expression that already
   exists in a different group merges the two groups (union-find).

   Each group owns a hash table of optimization contexts: one per
   optimization request (required properties), recording the best group
   expression, its child requests and enforcers — the linkage structure used
   for plan extraction (paper Fig. 6) and for TAQO's uniform plan sampling. *)

(* Where a group expression came from (lib/prov): the xform that produced
   it, the group expression it was derived from, and the stage/promise at
   application time. [None] marks copy-in expressions (the original query
   tree). Recording the source *expression id* rather than a pointer keeps
   the memo acyclic and lets lineage survive group merges. *)
type origin = {
  o_rule : string; (* xform name, e.g. "join-commute" *)
  o_rule_id : int;
  o_source : int; (* ge_id of the expression the rule was applied to *)
  o_stage : string; (* optimization stage the application ran in *)
  o_promise : int; (* the rule's promise when scheduled *)
}

type gexpr = {
  ge_id : int;
  ge_op : Expr.op;
  ge_op_id : int; (* interned operator id; -1 when interning is off *)
  ge_children : int list; (* group ids as of insertion; canonicalize on use *)
  mutable ge_group : int;
  ge_origin : origin option; (* None = copy-in of the original query tree *)
  mutable ge_explored : bool;
  mutable ge_implemented : bool;
  mutable ge_applied : int list; (* rule ids already applied *)
}

(* One costed way of satisfying a request with a particular group expression:
   child requests (the linkage), enforcers stacked on top, total cost. *)
type alternative = {
  a_gexpr : gexpr;
  a_child_reqs : Props.req list;
  a_child_derived : Props.derived list;
      (* what each child best delivered when this alternative was costed;
         [a_derived] was computed from exactly these, so a plan sampler may
         only substitute child alternatives covering them *)
  a_enforcers : Props.enforcer list; (* applied bottom-up above the gexpr *)
  a_enf_costs : float list; (* incremental cost of each enforcer *)
  a_local_cost : float; (* the operator's own cost, children excluded *)
  a_cost : float; (* total: operator + children + enforcers *)
  a_derived : Props.derived; (* properties delivered after enforcers *)
}

type ctx_state = Ctx_new | Ctx_in_progress | Ctx_complete

type context = {
  cx_id : int; (* process-unique, so sanitizer object names never collide *)
  cx_req : Props.req;
  mutable cx_state : ctx_state;
  mutable cx_best : alternative option;
  mutable cx_alts : alternative list; (* every costed alternative (for TAQO) *)
}

let next_cx_id = Atomic.make 0

type group = {
  g_id : int;
  mutable g_exprs : gexpr list; (* in insertion order *)
  mutable g_output_cols : Colref.t list;
  mutable g_stats : Stats.Relstats.t option;
  mutable g_explored : bool;
  mutable g_implemented : bool;
  mutable g_merged_into : int option;
  g_contexts : (int, context list) Hashtbl.t; (* req fingerprint -> contexts *)
  g_lock : Mutex.t;
}

(* Growth counters for the observability report (lib/obs). Insert-side
   counters are plain ints mutated under [t.lock]; context/winner counters
   are atomics because [obtain_context] and [record_alternative] run under
   per-group locks, concurrently across groups. *)
type obs_counters = {
  mutable oc_inserts : int;      (* insert_gexpr calls *)
  mutable oc_dedup_hits : int;   (* resolved to an existing expression *)
  mutable oc_merges : int;       (* group merges from duplicate detection *)
  oc_ctx_created : int Atomic.t;
  oc_ctx_hits : int Atomic.t;    (* obtain_context found an existing context *)
  oc_winner_updates : int Atomic.t; (* record_alternative improved cx_best *)
  oc_winner_kept : int Atomic.t;    (* incumbent survived the challenge *)
}

(* Moved above [create] so the interner can be built with them. *)
let op_fingerprint = function
  | Expr.Logical l -> Hashtbl.hash (0, Logical_ops.fingerprint l)
  | Expr.Physical p -> Hashtbl.hash (1, Physical_ops.fingerprint p)

let op_equal a b =
  match (a, b) with
  | Expr.Logical x, Expr.Logical y -> Logical_ops.equal x y
  | Expr.Physical x, Expr.Physical y -> Physical_ops.equal x y
  | _ -> false

type t = {
  mutable groups : group array;
  mutable ngroups : int;
  mutable ngexprs : int;
  dedup : (int, gexpr) Hashtbl.t;
  op_intern : Expr.op Intern.t option;
      (* hash-consing of operator payloads: identical operators share one
         dense id (and one representative value), so duplicate detection
         compares ints instead of deep structures. None = interning off. *)
  mutable root : int;
  lock : Mutex.t;
  mutable cte_producer_groups : (int * int) list; (* cte id -> producer group *)
  obs : obs_counters;
}

let create ?(interning = true) () =
  {
    groups = [||];
    ngroups = 0;
    ngexprs = 0;
    dedup = Hashtbl.create 256;
    op_intern =
      (if interning then
         Some (Intern.create ~hash:op_fingerprint ~equal:op_equal ())
       else None);
    root = -1;
    lock = Mutex.create ();
    cte_producer_groups = [];
    obs =
      {
        oc_inserts = 0;
        oc_dedup_hits = 0;
        oc_merges = 0;
        oc_ctx_created = Atomic.make 0;
        oc_ctx_hits = Atomic.make 0;
        oc_winner_updates = Atomic.make 0;
        oc_winner_kept = Atomic.make 0;
      };
  }

(* Growth counters, in the one record lib/obs and lib/telemetry read. *)
let profile t : Obs.Report.memo_stat =
  {
    m_groups = t.ngroups;
    m_gexprs = t.ngexprs;
    m_inserts = t.obs.oc_inserts;
    m_dedup_hits = t.obs.oc_dedup_hits;
    m_merges = t.obs.oc_merges;
    m_ctx_created = Atomic.get t.obs.oc_ctx_created;
    m_ctx_cache_hits = Atomic.get t.obs.oc_ctx_hits;
    m_winner_updates = Atomic.get t.obs.oc_winner_updates;
    m_winner_kept = Atomic.get t.obs.oc_winner_kept;
    m_ops_interned =
      (match t.op_intern with None -> 0 | Some tbl -> Intern.size tbl);
    m_intern_hits =
      (match t.op_intern with None -> 0 | Some tbl -> Intern.hits tbl);
  }

(* Sanitizer hooks: when a Gpos.Trace sink is installed, every lock
   acquisition and every access to shared optimization state is published so
   the race detector can replay them. With no sink this is a branch. *)
let trace_access obj write =
  if Gpos.Trace.enabled () then
    Gpos.Trace.emit (Gpos.Trace.Access { obj = obj (); write })

let with_lock t f =
  Mutex.lock t.lock;
  if Gpos.Trace.enabled () then
    Gpos.Trace.emit (Gpos.Trace.Lock_acquired { lock = "memo" });
  Fun.protect
    ~finally:(fun () ->
      if Gpos.Trace.enabled () then
        Gpos.Trace.emit (Gpos.Trace.Lock_released { lock = "memo" });
      Mutex.unlock t.lock)
    f

let with_group_lock (g : group) f =
  Mutex.lock g.g_lock;
  if Gpos.Trace.enabled () then
    Gpos.Trace.emit
      (Gpos.Trace.Lock_acquired { lock = "group:" ^ string_of_int g.g_id });
  Fun.protect
    ~finally:(fun () ->
      if Gpos.Trace.enabled () then
        Gpos.Trace.emit
          (Gpos.Trace.Lock_released { lock = "group:" ^ string_of_int g.g_id });
      Mutex.unlock g.g_lock)
    f

let group_unsafe t id = t.groups.(id)

(* Canonical group id after merges. *)
let rec find t id =
  let g = group_unsafe t id in
  match g.g_merged_into with None -> id | Some parent -> find t parent

let group t id = group_unsafe t (find t id)

let ngroups t = t.ngroups
let ngexprs t = t.ngexprs
let root t = find t t.root
let set_root t id = t.root <- id

let group_ids t = List.init t.ngroups (fun i -> i) |> List.filter (fun i -> (group_unsafe t i).g_merged_into = None)

let output_cols t id = (group t id).g_output_cols

(* Dedup key over (operator, canonical child groups). With interning on the
   operator part is its dense id; otherwise a structural fingerprint. The
   [children] list is already canonicalized by the caller. *)
let gexpr_key op_id op children =
  if op_id >= 0 then Hashtbl.hash (op_id, children)
  else Hashtbl.hash (op_fingerprint op, children)

(* With interning, operator equality is one int comparison: both sides were
   resolved through the same intern table. *)
let gexpr_equal t (ge : gexpr) op_id op children =
  (if op_id >= 0 && ge.ge_op_id >= 0 then ge.ge_op_id = op_id
   else op_equal ge.ge_op op)
  && List.length ge.ge_children = List.length children
  && List.for_all2
       (fun a b -> find t a = find t b)
       ge.ge_children children

let add_group_slot t =
  if t.ngroups = Array.length t.groups then begin
    let cap = max 16 (2 * Array.length t.groups) in
    let fresh =
      Array.init cap (fun i ->
          if i < t.ngroups then t.groups.(i)
          else
            {
              g_id = i;
              g_exprs = [];
              g_output_cols = [];
              g_stats = None;
              g_explored = false;
              g_implemented = false;
              g_merged_into = None;
              g_contexts = Hashtbl.create 8;
              g_lock = Mutex.create ();
            })
    in
    t.groups <- fresh
  end;
  let id = t.ngroups in
  t.ngroups <- t.ngroups + 1;
  id

(* Merge group [loser] into [winner]: they were discovered to be logically
   equivalent by duplicate detection. *)
let merge_groups t winner loser =
  if winner <> loser then begin
    t.obs.oc_merges <- t.obs.oc_merges + 1;
    let w = group_unsafe t winner and l = group_unsafe t loser in
    l.g_merged_into <- Some winner;
    List.iter (fun ge -> ge.ge_group <- winner) l.g_exprs;
    w.g_exprs <- w.g_exprs @ l.g_exprs;
    l.g_exprs <- [];
    w.g_explored <- w.g_explored && l.g_explored;
    w.g_implemented <- w.g_implemented && l.g_implemented;
    if w.g_stats = None then w.g_stats <- l.g_stats;
    (* contexts of the loser are dropped; they will be recomputed on demand *)
    if t.root = loser then t.root <- winner
  end

(* Insert an operator with child groups into [target] (fresh group when
   None). Returns the resulting gexpr (possibly pre-existing). *)
let insert_gexpr t ?origin ?target op children : gexpr =
  with_lock t (fun () ->
      trace_access (fun () -> "memo.index") true;
      t.obs.oc_inserts <- t.obs.oc_inserts + 1;
      let children = List.map (fun c -> find t c) children in
      (* hash-cons the operator: structurally-equal payloads share one dense
         id and one representative value *)
      let op, op_id =
        match t.op_intern with
        | Some tbl -> Intern.intern_rep tbl op
        | None -> (op, -1)
      in
      let key = gexpr_key op_id op children in
      let existing =
        match Hashtbl.find_all t.dedup key with
        | [] -> None
        | candidates ->
            List.find_opt
              (fun ge -> gexpr_equal t ge op_id op children)
              candidates
      in
      match existing with
      | Some ge ->
          t.obs.oc_dedup_hits <- t.obs.oc_dedup_hits + 1;
          let owner = find t ge.ge_group in
          (match target with
          | Some tgt when find t tgt <> owner ->
              (* same expression found in two groups: they are equivalent *)
              merge_groups t (find t tgt) owner
          | _ -> ());
          ge
      | None ->
          let gid =
            match target with Some tgt -> find t tgt | None -> add_group_slot t
          in
          let ge =
            {
              ge_id = t.ngexprs;
              ge_op = op;
              ge_op_id = op_id;
              ge_children = children;
              ge_group = gid;
              ge_origin = origin;
              ge_explored = false;
              ge_implemented = false;
              ge_applied = [];
            }
          in
          t.ngexprs <- t.ngexprs + 1;
          Hashtbl.add t.dedup key ge;
          let g = group_unsafe t gid in
          g.g_exprs <- g.g_exprs @ [ ge ];
          (* new logical expression invalidates exploration completeness *)
          (match op with
          | Expr.Logical _ ->
              g.g_explored <- false;
              g.g_implemented <- false
          | Expr.Physical _ -> ());
          if g.g_output_cols = [] then begin
            let child_cols =
              List.map (fun c -> (group t c).g_output_cols) children
            in
            match op with
            | Expr.Logical l ->
                g.g_output_cols <- Logical_ops.output_cols l child_cols
            | Expr.Physical p ->
                g.g_output_cols <- Physical_ops.output_cols p child_cols
          end;
          (* track CTE producer groups for stats derivation *)
          (match op with
          | Expr.Logical (Expr.L_cte_anchor cte_id) -> (
              match children with
              | producer :: _ ->
                  if not (List.mem_assoc cte_id t.cte_producer_groups) then
                    t.cte_producer_groups <-
                      (cte_id, producer) :: t.cte_producer_groups
              | [] -> ())
          | _ -> ());
          ge)

(* Copy a mixed expression tree in, bottom-up. *)
let rec insert t ?origin ?target (node : Mexpr.t) : gexpr =
  let children =
    List.map
      (function
        | Mexpr.Group g -> find t g
        | Mexpr.Node n ->
            let ge = insert t ?origin n in
            find t ge.ge_group)
      node.Mexpr.children
  in
  insert_gexpr t ?origin ?target node.Mexpr.op children

let cte_producer_group t cte_id =
  List.assoc_opt cte_id t.cte_producer_groups |> Option.map (find t)

let logical_exprs g =
  List.filter_map
    (fun ge ->
      match ge.ge_op with Expr.Logical l -> Some (ge, l) | _ -> None)
    g.g_exprs

let physical_exprs g =
  List.filter_map
    (fun ge ->
      match ge.ge_op with Expr.Physical p -> Some (ge, p) | _ -> None)
    g.g_exprs

(* Lookup by expression id, for provenance lineage walks. Merged groups move
   their expressions to the winner, so scanning live groups covers every
   expression ever inserted. Only called on explicit --why requests, so a
   scan beats maintaining an index on the insert hot path. *)
let gexpr_by_id t id : gexpr option =
  let found = ref None in
  let n = t.ngroups in
  let i = ref 0 in
  while !found = None && !i < n do
    let g = t.groups.(!i) in
    (match List.find_opt (fun ge -> ge.ge_id = id) g.g_exprs with
    | Some ge -> found := Some ge
    | None -> ());
    incr i
  done;
  !found

(* --- Optimization contexts (group hash tables, paper Fig. 6) --- *)

let find_context t gid (req : Props.req) : context option =
  let g = group t gid in
  with_group_lock g (fun () ->
      trace_access (fun () -> Printf.sprintf "group:%d.ctxs" g.g_id) false;
      let fp = Props.req_fingerprint req in
      match Hashtbl.find_opt g.g_contexts fp with
      | None -> None
      | Some ctxs -> List.find_opt (fun c -> Props.req_equal c.cx_req req) ctxs)

(* Find-or-create; the boolean tells the caller whether it created it (and
   therefore owns computing it). *)
let obtain_context t gid (req : Props.req) : context * bool =
  let g = group t gid in
  with_group_lock g (fun () ->
      let fp = Props.req_fingerprint req in
      let existing =
        match Hashtbl.find_opt g.g_contexts fp with
        | None -> None
        | Some ctxs -> List.find_opt (fun c -> Props.req_equal c.cx_req req) ctxs
      in
      match existing with
      | Some c ->
          Atomic.incr t.obs.oc_ctx_hits;
          trace_access (fun () -> Printf.sprintf "group:%d.ctxs" g.g_id) false;
          (c, false)
      | None ->
          Atomic.incr t.obs.oc_ctx_created;
          trace_access (fun () -> Printf.sprintf "group:%d.ctxs" g.g_id) true;
          let c =
            {
              cx_id = Atomic.fetch_and_add next_cx_id 1;
              cx_req = req;
              cx_state = Ctx_new;
              cx_best = None;
              cx_alts = [];
            }
          in
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt g.g_contexts fp)
          in
          Hashtbl.replace g.g_contexts fp (c :: prev);
          (c, true))

(* Deterministic order on equal-cost alternatives, so the winner does not
   depend on the arrival order of parallel costing jobs (which would make
   the chosen plan schedule-dependent even at identical cost). *)
let alt_key (a : alternative) =
  ( a.a_gexpr.ge_id,
    List.map Props.req_fingerprint a.a_child_reqs,
    List.length a.a_enforcers,
    Hashtbl.hash a.a_enforcers )

let record_alternative t gid (ctx : context) (alt : alternative) =
  let g = group t gid in
  with_group_lock g (fun () ->
      trace_access (fun () -> Printf.sprintf "ctx:%d.best" ctx.cx_id) true;
      ctx.cx_alts <- alt :: ctx.cx_alts;
      match ctx.cx_best with
      | Some best
        when best.a_cost < alt.a_cost
             || (best.a_cost = alt.a_cost && alt_key best <= alt_key alt) ->
          Atomic.incr t.obs.oc_winner_kept
      | _ ->
          Atomic.incr t.obs.oc_winner_updates;
          ctx.cx_best <- Some alt)

let contexts_of_group t gid =
  let g = group t gid in
  Hashtbl.fold (fun _ ctxs acc -> ctxs @ acc) g.g_contexts []

(* --- statistics --- *)

let stats t gid =
  let g = group t gid in
  trace_access (fun () -> Printf.sprintf "group:%d.stats" g.g_id) false;
  g.g_stats

let set_stats t gid s =
  let g = group t gid in
  trace_access (fun () -> Printf.sprintf "group:%d.stats" g.g_id) true;
  g.g_stats <- Some s

(* Structural checksum over everything a rule's [apply] could corrupt:
   group/expression counts, the root, per-group topology (expression ids,
   operators, child links), output columns, merge links and completion
   flags. Contexts and stats are deliberately excluded — the engine
   mutates those concurrently around rule application, and the no-mutation
   contract is about the logical plan space, not the costing caches. *)
let checksum t =
  with_lock t (fun () ->
      let acc = ref (Hashtbl.hash (t.ngroups, t.ngexprs, t.root)) in
      let mix v = acc := Hashtbl.hash (!acc, v) in
      for gid = 0 to t.ngroups - 1 do
        let g = group_unsafe t gid in
        mix
          ( g.g_id,
            g.g_merged_into,
            g.g_explored,
            g.g_implemented,
            List.map Colref.id g.g_output_cols );
        List.iter
          (fun ge ->
            mix
              ( ge.ge_id,
                op_fingerprint ge.ge_op,
                ge.ge_children,
                ge.ge_group ))
          g.g_exprs
      done;
      !acc)

(* --- debugging / the Fig. 4 and Fig. 6 displays --- *)

let gexpr_to_string t ge =
  let op_str =
    match ge.ge_op with
    | Expr.Logical l -> Logical_ops.to_string l
    | Expr.Physical p -> Physical_ops.to_string p
  in
  let children = List.map (fun c -> string_of_int (find t c)) ge.ge_children in
  Printf.sprintf "%d: %s [%s]" ge.ge_id op_str (String.concat "," children)

(* Graphviz export: one record node per group listing its expressions, one
   edge per (expression slot -> child group). *)
let to_dot t =
  let buf = Buffer.create 1024 in
  let esc s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '<' -> "&lt;"
           | '>' -> "&gt;"
           | '"' -> "&quot;"
           | '&' -> "&amp;"
           | '|' -> "\\|"
           | '{' -> "\\{"
           | '}' -> "\\}"
           | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  Buffer.add_string buf "digraph memo {\n  rankdir=TB;\n  node [shape=record, fontsize=10];\n";
  List.iter
    (fun gid ->
      let g = group_unsafe t gid in
      let rows =
        match g.g_stats with
        | Some s -> Printf.sprintf " rows=%.0f" (Stats.Relstats.rows s)
        | None -> ""
      in
      let cells =
        List.mapi
          (fun i ge ->
            let op =
              match ge.ge_op with
              | Expr.Logical l -> Logical_ops.to_string l
              | Expr.Physical p -> Physical_ops.to_string p
            in
            Printf.sprintf "<e%d> %s" i (esc op))
          g.g_exprs
      in
      Buffer.add_string buf
        (Printf.sprintf "  g%d [label=\"{GROUP %d%s%s|%s}\"];\n" gid gid
           (if gid = root t then " (root)" else "")
           rows
           (String.concat "|" cells));
      List.iteri
        (fun i ge ->
          List.iter
            (fun child ->
              Buffer.add_string buf
                (Printf.sprintf "  g%d:e%d -> g%d;\n" gid i (find t child)))
            ge.ge_children)
        g.g_exprs)
    (group_ids t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_string t =
  let buf = Buffer.create 512 in
  List.iter
    (fun gid ->
      let g = group_unsafe t gid in
      Buffer.add_string buf
        (Printf.sprintf "GROUP %d%s%s\n" gid
           (if gid = root t then " (root)" else "")
           (match g.g_stats with
           | Some s -> Printf.sprintf "  rows=%.1f" (Stats.Relstats.rows s)
           | None -> ""));
      List.iter
        (fun ge ->
          Buffer.add_string buf ("  " ^ gexpr_to_string t ge ^ "\n"))
        g.g_exprs)
    (group_ids t);
  Buffer.contents buf
