(** The parameterized plan cache: final physical plans keyed on
    (fingerprint, catalog version, stats version), LRU-bounded, explicitly
    invalidated on catalog/stats change.

    Each entry stores the normalized query text (fingerprint-collision
    detection) and a small MRU list of binding variants — one optimized plan
    per parameter vector. Exact-variant hits return the cached plan
    unchanged (byte-identical to fresh optimization for a fixed snapshot);
    other parameter vectors are served by {!rebind}, substituting by
    parameter slot, from the first variant (most recent first) that can be
    rebound, and count as misses otherwise. Rebound plans are never stored. A variant
    keeps its reply bytes once an exact hit asks for them ({!plan_json}). All
    operations are thread-safe; counters feed both local {!stats} and the
    [orca_plan_cache_*] telemetry series. *)

open Ir

type t

val create : ?capacity:int -> ?max_variants:int -> unit -> t
(** [capacity] bounds cached entries (default 256, LRU eviction);
    [max_variants] bounds binding variants per entry (default 8, MRU kept). *)

val capacity : t -> int
(** The entry bound — the [!health] endpoint's occupancy denominator. *)

val set_on_evict : t -> (string -> unit) option -> unit
(** Observe LRU evictions: called with the victim entry's fingerprint,
    while the cache lock is held (keep it cheap; must not reenter the
    cache). The service event log's [evict] hook. *)

type variant
(** One binding variant: an optimized plan for one parameter vector. *)

val variant_plan : variant -> Expr.plan

val plan_json : variant -> string
(** The variant's plan as DXL, JSON-escaped: the body of a protocol reply's
    [plan] string, without its quotes. Computed on the first
    call and kept with the variant, so later exact hits reply without
    serializing; they are dropped with the variant. Safe to call from
    several threads: racing first calls compute the same bytes. *)

type lookup =
  | Exact of variant      (** exact binding variant *)
  | Rebind of Expr.plan   (** a variant's plan rebound to the parameters *)
  | Absent

val lookup :
  t ->
  fp:string ->
  norm_text:string ->
  params:Datum.t list ->
  catalog_version:int ->
  stats_version:int ->
  lookup
(** Probe the cache and count the outcome (an exact variant is made MRU).
    Without an exact variant, the variants are tried most recent first and
    the first that {!rebind}s serves. *)

type outcome =
  | Hit of Expr.plan      (** exact binding variant, returned unchanged *)
  | Rebound of Expr.plan  (** generic plan with parameters substituted *)
  | Miss

val find :
  t ->
  fp:string ->
  norm_text:string ->
  params:Datum.t list ->
  catalog_version:int ->
  stats_version:int ->
  outcome
(** {!lookup}, answering a plan for an exact variant. *)

val add :
  t ->
  fp:string ->
  norm_text:string ->
  params:Datum.t list ->
  catalog_version:int ->
  stats_version:int ->
  Expr.plan ->
  unit
(** Insert a freshly optimized plan as the MRU binding variant of its entry,
    evicting (entry-level LRU, then variant-level MRU bound) as needed. An
    insert whose [norm_text] disagrees with the resident entry is a
    fingerprint collision: counted and dropped, the resident shape wins. *)

val invalidate : t -> keep:(int * int) -> int
(** Drop every entry not built against [keep = (catalog_version,
    stats_version)]; returns the number dropped. The explicit-invalidation
    path after a {!Catalog.Source} version bump. *)

val clear : t -> int
(** Drop everything (counted as invalidations); returns the number dropped. *)

type stats = {
  hits : int;           (** exact-variant hits *)
  misses : int;         (** fresh optimizations required *)
  rebinds : int;        (** generic-plan hits via parameter substitution *)
  evictions : int;      (** entries evicted by the LRU bound *)
  invalidations : int;  (** entries dropped by explicit invalidation *)
  collisions : int;     (** fingerprint collisions detected *)
  entries : int;        (** resident entries *)
  variants : int;       (** resident binding variants *)
}

val stats : t -> stats

val rebind :
  old_params:Datum.t list ->
  new_params:Datum.t list ->
  Expr.plan ->
  Expr.plan option
(** [rebind ~old_params ~new_params plan] rebinds a plan optimized for
    [old_params] to [new_params] by parameter slot: every
    {!Expr.Slot} constant and LIMIT/OFFSET slot [k] takes parameter [k],
    typed like the value it replaces (a date literal's string parses as a
    Date). Returns [None] when the vectors differ in arity or in a
    parameter's datum constructor, when a changed slot occurs nowhere live
    in the plan (used as structure or matched with a twin by the binder, or
    folded away; LIKE patterns and IN lists carry no slot), when a changed slot was folded
    into a derived constant, or when the plan holds partition decisions.
    Cost/cardinality annotations stay those of the cached shape
    (generic-plan semantics). Exposed for tests. *)
