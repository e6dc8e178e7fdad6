(* Always-on metrics registry: counters, gauges, log-bucketed histograms.

   Hot-path operations ([inc]/[add]/[observe]) are lock-free saturating
   atomic adds with no allocation; snapshots, quantiles and merging are
   cold-path. See DESIGN.md "Telemetry & metrics". *)

(* -- histogram bucket geometry ------------------------------------- *)

val nbuckets : int
(** Number of log buckets (256: eight per doubling from 1e-3). *)

val bucket_upper : int -> float
(** Upper bound of bucket [i]; the last bucket absorbs larger values. *)

val bucket_of : float -> int
(** Index of the bucket a value lands in (clamped; NaN -> bucket 0). *)

(* -- primitive values ---------------------------------------------- *)

type counter
type gauge
type histogram

val inc : counter -> unit
val add : counter -> int -> unit
(** Saturating: counters pin at [max_int], never wrap. Negative deltas
    are ignored. *)

val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_max : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** One bucket increment plus two fixed-point adds; no allocation.
    Negative values clamp to 0, NaN is dropped. *)

(* -- histogram snapshots ------------------------------------------- *)

type hsnap = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : int array;  (** length [nbuckets], non-cumulative *)
}

val hsnap : histogram -> hsnap
val empty_hsnap : hsnap

val merge : hsnap -> hsnap -> hsnap
(** Bucket-wise saturating addition: associative and commutative, so
    per-worker or per-segment histograms aggregate in any order. *)

val quantile : hsnap -> float -> float
(** [quantile s q] estimates the q-quantile (q in [0,1]) as the
    representative value of the bucket holding the ceil(q*n)-th smallest
    observation. Monotone in [q]; relative rank error bounded by
    2^(1/16) (~4.4%) for values inside the bucket range. Returns 0 on an
    empty histogram. *)

val bucket_value : int -> float
(** Representative (geometric midpoint) value of bucket [i]. *)

(* -- registry ------------------------------------------------------- *)

type t

val create : unit -> t

val default : t
(** The process-wide registry all of Orca's standard metrics live in. *)

val counter : t -> ?labels:(string * string) list -> help:string -> string -> counter
val gauge : t -> ?labels:(string * string) list -> help:string -> string -> gauge
val histogram : t -> ?labels:(string * string) list -> help:string -> string -> histogram
(** Registration is idempotent: the same (name, labels) returns the
    existing handle. Re-registering under a different kind raises. *)

val reset : t -> unit
(** Zero every value in place; existing handles stay valid. *)

(* -- snapshots ------------------------------------------------------ *)

type vsnap = S_counter of int | S_gauge of float | S_histogram of hsnap

type sample = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_value : vsnap;
}

type snapshot = { snap_ts : float; samples : sample list }

val snapshot : t -> snapshot
(** Samples sorted by (name, labels); [snap_ts] comes from [Gpos.Clock]
    so snapshots are deterministic under [Clock.with_fake]. *)
