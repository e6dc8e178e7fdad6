(** The mutable side of snapshot versioning: owns the live provider and the
    (catalog, stats) version counters, and hands out immutable
    {!Snapshot.t}s. Thread-safe — a resident optimizer service holds one
    source and takes a fresh snapshot per request. *)

type t

val create : ?catalog_version:int -> ?stats_version:int -> Provider.t -> t

val snapshot : t -> Snapshot.t
(** An immutable view of the provider at the current versions. *)

val versions : t -> int * int
(** Current [(catalog_version, stats_version)]. *)

val bump_catalog : ?provider:Provider.t -> t -> unit
(** Record a catalog change (DDL), optionally swapping the provider. Schema
    changes stale the statistics too, so both counters advance. *)

val bump_stats : ?provider:Provider.t -> t -> unit
(** Record a statistics refresh (ANALYZE): only the stats counter advances. *)
