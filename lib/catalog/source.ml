(* The mutable side of snapshot versioning: a catalog source owns the live
   provider plus the (catalog, stats) version counters, and hands out
   immutable snapshots. DDL bumps the catalog version (schema changes
   invalidate statistics too, so the stats version moves with it); an
   ANALYZE-style refresh bumps only the stats version. A resident optimizer
   service holds one source and takes a fresh snapshot per request, so
   version bumps are naturally race-free with in-flight optimizations. *)

type t = {
  mutable provider : Provider.t;
  mutable catalog_version : int;
  mutable stats_version : int;
  mutex : Mutex.t;
}

let create ?(catalog_version = 0) ?(stats_version = 0) provider =
  { provider; catalog_version; stats_version; mutex = Mutex.create () }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let snapshot t =
  locked t (fun () ->
      Snapshot.make ~catalog_version:t.catalog_version
        ~stats_version:t.stats_version t.provider)

let versions t =
  locked t (fun () -> (t.catalog_version, t.stats_version))

(* A catalog change may alter table shapes, so any statistics gathered under
   the old schema are stale as well: both counters advance. *)
let bump_catalog ?provider t =
  locked t (fun () ->
      Option.iter (fun p -> t.provider <- p) provider;
      t.catalog_version <- t.catalog_version + 1;
      t.stats_version <- t.stats_version + 1)

let bump_stats ?provider t =
  locked t (fun () ->
      Option.iter (fun p -> t.provider <- p) provider;
      t.stats_version <- t.stats_version + 1)
