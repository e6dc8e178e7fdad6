(** The Memo (paper §3, §4.1): a compact encoding of the plan space.

    Groups hold logically equivalent expressions — logical and physical are
    first-class citizens of equal footing. Group expressions are operators
    whose children are groups. Duplicate detection is topology-based (an
    operator fingerprint plus canonical child-group ids); inserting an
    expression that already exists in a different group merges the two groups
    through a union-find.

    Each group owns a hash table of optimization contexts — one per
    optimization request — recording every costed alternative and the best
    one: the linkage structure used for plan extraction (Fig. 6) and for
    TAQO's uniform plan sampling. *)

open Ir

(** Where a group expression came from (lib/prov): the xform that produced
    it, the group expression it was derived from ([o_source] is a [ge_id] —
    an id, not a pointer, so the memo stays acyclic and lineage survives
    group merges), and the stage/promise at application time. *)
type origin = {
  o_rule : string;  (** xform name, e.g. "join-commute" *)
  o_rule_id : int;
  o_source : int;   (** [ge_id] of the expression the rule was applied to *)
  o_stage : string; (** optimization stage the application ran in *)
  o_promise : int;  (** the rule's promise when it was scheduled *)
}

type gexpr = {
  ge_id : int;
  ge_op : Expr.op;
  ge_op_id : int;
      (** hash-consed operator id: equal ids iff structurally equal payloads
          (within one Memo); -1 when the Memo was created without interning *)
  ge_children : int list;  (** group ids as of insertion; canonicalize via [find] *)
  mutable ge_group : int;
  ge_origin : origin option;
      (** [None] = copy-in of the original query tree *)
  mutable ge_explored : bool;
  mutable ge_implemented : bool;
  mutable ge_applied : int list; (** rule ids already applied *)
}

(** One costed way of satisfying a request: a group expression, the requests
    passed to its children (the linkage), the enforcer chain stacked on top,
    and its costs. *)
type alternative = {
  a_gexpr : gexpr;
  a_child_reqs : Props.req list;
  a_child_derived : Props.derived list;
      (** what each child best delivered when this alternative was costed:
          [a_derived] was computed from exactly these properties, so plan
          sampling may only substitute child alternatives that cover them
          (see [Props.derived_covers]) *)
  a_enforcers : Props.enforcer list; (** applied bottom-up above the gexpr *)
  a_enf_costs : float list;          (** incremental cost of each enforcer *)
  a_local_cost : float;              (** the operator's own cost, children excluded *)
  a_cost : float;                    (** total: operator + children + enforcers *)
  a_derived : Props.derived;         (** properties delivered after enforcers *)
}

type ctx_state = Ctx_new | Ctx_in_progress | Ctx_complete

type context = {
  cx_id : int;
      (** process-unique context id (stable sanitizer object names) *)
  cx_req : Props.req;
  mutable cx_state : ctx_state;
  mutable cx_best : alternative option;
  mutable cx_alts : alternative list; (** every costed alternative *)
}

type group = {
  g_id : int;
  mutable g_exprs : gexpr list;
  mutable g_output_cols : Colref.t list; (** the group's logical properties *)
  mutable g_stats : Stats.Relstats.t option;
  mutable g_explored : bool;
  mutable g_implemented : bool;
  mutable g_merged_into : int option;
  g_contexts : (int, context list) Hashtbl.t;
  g_lock : Mutex.t;
}

type t

val create : ?interning:bool -> unit -> t
(** [interning] (default true) hash-conses operator payloads so duplicate
    detection compares dense ids instead of deep structures; off preserves
    the structural path for A/B identity testing. *)

val profile : t -> Obs.Report.memo_stat
(** Size, growth, duplicate-detection and winner-cache counters for the
    observability report (lib/obs) and telemetry. Collected
    unconditionally — each is one counter bump on an already-locked
    path. *)

val find : t -> int -> int
(** Canonical group id after merges. *)

val group : t -> int -> group
val ngroups : t -> int
val ngexprs : t -> int
val root : t -> int
val set_root : t -> int -> unit

val group_ids : t -> int list
(** Live (unmerged) group ids. *)

val output_cols : t -> int -> Colref.t list

val insert_gexpr :
  t -> ?origin:origin -> ?target:int -> Expr.op -> int list -> gexpr
(** Insert one operator with child groups into [target] (a fresh group when
    omitted). Duplicate detection may return a pre-existing expression (the
    first producer's origin is kept); a duplicate found in a different group
    merges the groups. Thread-safe. *)

val insert : t -> ?origin:origin -> ?target:int -> Mexpr.t -> gexpr
(** Copy a mixed expression tree in, bottom-up (paper: rule results are
    "copied-in to the Memo"). *)

val gexpr_by_id : t -> int -> gexpr option
(** Look up a group expression by [ge_id] (provenance lineage walks). *)

val cte_producer_group : t -> int -> int option
(** The group holding a CTE's producer (tracked at anchor insertion). *)

val logical_exprs : group -> (gexpr * Expr.logical) list
val physical_exprs : group -> (gexpr * Expr.physical) list

val find_context : t -> int -> Props.req -> context option

val obtain_context : t -> int -> Props.req -> context * bool
(** Find-or-create the context for (group, request); the boolean says whether
    this call created it (and therefore owns computing it). *)

val record_alternative : t -> int -> context -> alternative -> unit
(** Record a costed alternative, updating the context's best. Ties on cost
    break on a stable structural key rather than arrival order, so the
    chosen plan is independent of the costing schedule. *)

val contexts_of_group : t -> int -> context list

val stats : t -> int -> Stats.Relstats.t option
val set_stats : t -> int -> Stats.Relstats.t -> unit

val checksum : t -> int
(** Structural checksum of the plan space: group/expression counts, root,
    per-group expression topology, output columns, merge links and
    completion flags. Used to enforce the rule contract that [Rule.apply]
    must not mutate the Memo (lib/rulecheck, and the engine's debug-mode
    check). Optimization contexts and statistics are excluded — they are
    costing caches, mutated concurrently, and not part of the contract. *)

val gexpr_to_string : t -> gexpr -> string

val to_string : t -> string
(** The Fig. 4/6 display: every group with its expressions. *)

val to_dot : t -> string
(** Graphviz (dot) export of the Memo graph: one record node per group, one
    edge per group-expression child slot. *)
