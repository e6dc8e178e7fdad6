(* Reference answers and the answer check.

   The client builds the same warehouse the server builds (same generator,
   seed and scale factor), computes each base query's answer with the
   independent naive evaluator once per checkout, and executes every served
   DXL plan against it. *)

open Ir

type env = { cluster : Exec.Cluster.t; provider : Catalog.Provider.t; cache : Catalog.Md_cache.t }

(* Mirrors the server's warehouse: [orca_cli serve --sf SF] with its default
   8 segments and 64 MB per segment. *)
let segments = 8

let env sf =
  let db = Tpcds.Datagen.generate ~sf () in
  let e = Engines.Engine.create_env ~nsegs:segments db in
  {
    cluster = Engines.Engine.cluster_for e ~mem_per_seg:(64.0 *. 1024.0 *. 1024.0);
    provider = e.Engines.Engine.provider;
    cache = e.Engines.Engine.cache;
  }

(* A bag of rows in canonical form: floats to four places, sorted. *)
let canonical rows =
  List.sort compare
    (List.map
       (fun r ->
         String.concat ","
           (List.map
              (function Datum.Float f -> Printf.sprintf "%.4f" f | d -> Datum.to_string d)
              (Array.to_list r)))
       rows)

let naive env sql =
  let accessor = Catalog.Accessor.create ~provider:env.provider ~cache:env.cache () in
  canonical (Exec.Naive.run env.cluster (Sqlfront.Binder.bind_sql accessor sql))

(* The reference answers of [bases], computed once and kept in [dir]. The
   file name carries a digest of the scale factor and every base text, so a
   different program or setting never reads a stale file. *)
let references ~dir ~sf ~log (env : env Lazy.t) (bases : Streams.base array) =
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (Printf.sprintf "v1 sf=%g" sf :: Array.to_list (Array.map (fun b -> b.Streams.sql) bases))))
  in
  let path = Filename.concat dir ("answers-" ^ key ^ ".bin") in
  if Sys.file_exists path then (In_channel.with_open_bin path Marshal.from_channel : string list array)
  else begin
    log (Printf.sprintf "computing reference answers for %d queries at sf %g (once)" (Array.length bases) sf);
    let env = Lazy.force env in
    let answers = Array.map (fun b -> naive env b.Streams.sql) bases in
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> Marshal.to_channel oc answers []);
    Sys.rename tmp path;
    answers
  end

type verdict = { rows_ok : bool; sim_s : float; exec_ms : float; why : string }

(* Execute one served plan and compare its rows with the reference. *)
let check env ~expected dxl =
  let t0 = Unix.gettimeofday () in
  match Exec.Executor.run env.cluster (Dxl.Dxl_plan.of_string dxl) with
  | rows, metrics ->
      let got = canonical rows in
      let rows_ok = got = expected in
      {
        rows_ok;
        sim_s = metrics.Exec.Metrics.sim_seconds;
        exec_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
        why =
          (if rows_ok then ""
           else Printf.sprintf "%d rows, expected %d" (List.length got) (List.length expected));
      }
  | exception e ->
      {
        rows_ok = false;
        sim_s = 0.0;
        exec_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
        why = Printexc.to_string e;
      }
