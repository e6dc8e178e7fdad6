(* The traced replay: the requests of a run's audit prefixes fed in process
   through the same public calls [Server.optimize_sql] makes, with an
   [Obs.Span] around each layer's entry point.

   A request span holds the layer spans: normalize, catalog.snapshot (the
   source snapshot, and on a miss the accessors built from it),
   plan_cache.find (rebinding included), and on a miss sql.bind,
   orca.optimize and plan_cache.add; then dxl.to_string and reply.json.
   Spans the program records itself while a session is open (parse, bind,
   the optimizer's phases) fall inside a layer and count as its time.

   A layer's self time is its span's duration minus that of the layer spans
   directly inside it; the request's own self time is [unattributed_ms], so
   the self times add up to the request total. Allocation is counted the
   same way, in words (minor-heap words plus direct major allocations), by
   the wrapper itself. *)

let layers =
  [ "normalize"; "catalog.snapshot"; "plan_cache.find"; "sql.bind"; "orca.optimize";
    "plan_cache.add"; "dxl.to_string"; "reply.json" ]

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type acc = { mutable calls : int; mutable alloc_w : float }

type state = {
  traced : bool;
  accs : (string, acc) Hashtbl.t;
  mutable frames : float ref list;   (* allocation of open layers' children *)
  mutable req : string;
}

let layer s name f =
  if not s.traced then f ()
  else begin
    let frame = ref 0.0 in
    s.frames <- frame :: s.frames;
    let w0 = words () in
    Fun.protect
      ~finally:(fun () ->
        let incl = words () -. w0 in
        s.frames <- List.tl s.frames;
        (match s.frames with parent :: _ -> parent := !parent +. incl | [] -> ());
        let a =
          match Hashtbl.find_opt s.accs name with
          | Some a -> a
          | None ->
              let a = { calls = 0; alloc_w = 0.0 } in
              Hashtbl.replace s.accs name a;
              a
        in
        a.calls <- a.calls + 1;
        a.alloc_w <- a.alloc_w +. incl -. !frame)
      (fun () -> Obs.Span.with_ ~attrs:[ ("req", s.req) ] ~name f)
  end

(* What the optimizer reports on each miss, summed. *)
type search = {
  mutable preprocess_ms : float;
  mutable search_ms : float;
  mutable groups : int;
  mutable gexprs : int;
  mutable contexts : int;
  mutable xforms : int;
  mutable jobs_run : int;
  mutable dxl_bytes : int;
}

type result = {
  outcomes : (string * int) list;     (* per lane: "hot.hit", ... *)
  wall_ms : float;                    (* all replayed requests *)
  spans : Obs.Span.event list;
  accs : (string, acc) Hashtbl.t;
  search : search;
  evictions : int;
  minor_words : float;
  major_collections : int;
}

(* One request, as [Server.optimize_sql] serves it. *)
let request s ~source ~md_cache ~cache ~config ~search sql =
  let trace = "replay-" ^ s.req in
  let n = layer s "normalize" (fun () -> Server.Normalize.normalize sql) in
  let snapshot = layer s "catalog.snapshot" (fun () -> Catalog.Source.snapshot source) in
  let catalog_version = Catalog.Snapshot.catalog_version snapshot in
  let stats_version = Catalog.Snapshot.stats_version snapshot in
  let fp = n.Server.Normalize.fingerprint in
  let norm_text = n.Server.Normalize.text and params = n.Server.Normalize.params in
  let plan, result =
    match
      layer s "plan_cache.find" (fun () ->
          Server.Plan_cache.find cache ~fp ~norm_text ~params ~catalog_version ~stats_version)
    with
    | Server.Plan_cache.Hit p -> (p, Server.Hit)
    | Server.Plan_cache.Rebound p -> (p, Server.Rebound)
    | Server.Plan_cache.Miss ->
        let make_accessor () =
          layer s "catalog.snapshot" (fun () ->
              Catalog.Accessor.of_snapshot ~snapshot ~cache:md_cache ())
        in
        let bind_accessor = make_accessor () in
        let query = layer s "sql.bind" (fun () -> Sqlfront.Binder.bind_sql bind_accessor sql) in
        Catalog.Accessor.release bind_accessor;
        let report =
          layer s "orca.optimize" (fun () ->
              Orca.Flight.optimize
                ~config:(Orca.Orca_config.with_trace_id config trace)
                ~label:trace ~fingerprint:fp ~make_accessor query)
        in
        layer s "plan_cache.add" (fun () ->
            Server.Plan_cache.add cache ~fp ~norm_text ~params ~catalog_version ~stats_version
              report.Orca.Optimizer.plan);
        if s.traced then begin
          List.iter
            (fun (phase, ms) ->
              if phase = "preprocess" then search.preprocess_ms <- search.preprocess_ms +. ms
              else if String.starts_with ~prefix:"stage:" phase then
                search.search_ms <- search.search_ms +. ms)
            report.Orca.Optimizer.phase_ms;
          search.groups <- search.groups + report.Orca.Optimizer.groups;
          search.gexprs <- search.gexprs + report.Orca.Optimizer.gexprs;
          search.contexts <- search.contexts + report.Orca.Optimizer.contexts;
          search.xforms <- search.xforms + report.Orca.Optimizer.xforms;
          search.jobs_run <- search.jobs_run + report.Orca.Optimizer.jobs_run
        end;
        (report.Orca.Optimizer.plan, Server.Missed)
  in
  let dxl = layer s "dxl.to_string" (fun () -> Dxl.Dxl_plan.to_string plan) in
  if s.traced then search.dxl_bytes <- search.dxl_bytes + String.length dxl;
  (* ms is pinned so the reply's length, and so its allocation, repeats *)
  ignore
    (layer s "reply.json" (fun () ->
         Server.json_of_reply ~include_plan:true
           {
             Server.r_plan = plan;
             r_dxl = Lazy.from_val dxl;
             r_trace = trace;
             r_fingerprint = fp;
             r_result = result;
             r_ms = 0.0;
             r_catalog_version = catalog_version;
             r_stats_version = stats_version;
           }));
  result

(* Replay [warm] untimed, then [lanes] (name, texts) interleaved one for
   one, on a fresh cache over [provider]. *)
let run ~traced ~provider ~config ~warm lanes =
  let source = Catalog.Source.create provider in
  let md_cache = Catalog.Md_cache.create () in
  let cache = Server.Plan_cache.create () in
  let search =
    { preprocess_ms = 0.0; search_ms = 0.0; groups = 0; gexprs = 0; contexts = 0; xforms = 0;
      jobs_run = 0; dxl_bytes = 0 }
  in
  let s = { traced = false; accs = Hashtbl.create 16; frames = []; req = "warm" } in
  List.iter
    (fun sql ->
      try ignore (request s ~source ~md_cache ~cache ~config ~search sql)
      with Orca.Optimizer.Unsupported_query _ | Gpos.Gpos_error.Error _ -> ())
    warm;
  let s = { s with traced } in
  let evictions0 = (Server.Plan_cache.stats cache).Server.Plan_cache.evictions in
  let outcomes = Hashtbl.create 8 in
  let count key = Hashtbl.replace outcomes key (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes key)) in
  let lanes = List.map (fun (name, texts) -> (name, ref texts)) lanes in
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let id = ref 0 in
  let one () =
    List.iter
      (fun (name, texts) ->
        match !texts with
        | [] -> ()
        | sql :: rest ->
            texts := rest;
            incr id;
            s.req <- string_of_int !id;
            let result =
              if traced then
                Obs.Span.with_ ~attrs:[ ("req", s.req) ] ~name:"request" (fun () ->
                    request s ~source ~md_cache ~cache ~config ~search sql)
              else request s ~source ~md_cache ~cache ~config ~search sql
            in
            count (name ^ "." ^ Server.cache_result_to_string result))
      lanes
  in
  let drain () = while List.exists (fun (_, t) -> !t <> []) lanes do one () done in
  let t0 = Unix.gettimeofday () in
  let spans = if traced then snd (Obs.Span.collect drain) else (drain (); []) in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  {
    outcomes = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []);
    wall_ms;
    spans;
    accs = s.accs;
    search;
    evictions = (Server.Plan_cache.stats cache).Server.Plan_cache.evictions - evictions0;
    minor_words = Gc.minor_words () -. minor0;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - major0;
  }

(* Self times in ms, per layer name ("request" is the unattributed rest):
   each span's duration minus that of the layer spans directly inside it.
   A span is inside another when the other's path is a prefix of its own;
   the events arrive in start order, parents first. *)
let self_ms spans =
  let ours e = e.Obs.Span.sp_name = "request" || List.mem e.Obs.Span.sp_name layers in
  let tbl = Hashtbl.create 16 in
  let close (e, child) =
    let v = (e.Obs.Span.sp_dur_us -. !child) /. 1000.0 in
    Hashtbl.replace tbl e.Obs.Span.sp_name (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl e.Obs.Span.sp_name))
  in
  let stack = ref [] in
  List.iter
    (fun e ->
      if ours e then begin
        let rec pop () =
          match !stack with
          | ((p, _) as top) :: rest
            when not (String.starts_with ~prefix:(p.Obs.Span.sp_path ^ "/") e.Obs.Span.sp_path) ->
              close top;
              stack := rest;
              pop ()
          | _ -> ()
        in
        pop ();
        (match !stack with (_, child) :: _ -> child := !child +. e.Obs.Span.sp_dur_us | [] -> ());
        stack := (e, ref 0.0) :: !stack
      end)
    spans;
  List.iter close !stack;
  tbl
