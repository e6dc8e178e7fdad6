(* Orca as a resident service (paper §3: the optimizer runs outside the
   database system, fielding requests over a stream). A server owns a
   mutable catalog {!Catalog.Source}, an MD cache shared across sessions and
   a {!Plan_cache}. Each request takes an immutable snapshot of the source,
   consults the cache under the snapshot's (catalog, stats) versions and
   only optimizes on a miss — so concurrent sessions, catalog bumps and
   cache invalidation interleave without locks around optimization itself.

   Observability (lib/sre): every session gets an id, every request a
   trace id ("s<sid>-r<rid>") echoed in its reply, stamped on the
   structured event log, threaded into [Orca_config.trace_id] on misses
   (lib/obs span attribution, flight-recorder dump traceflags) and used as
   the flight-recorder entry label. Misses run through {!Orca.Flight}, so
   arming [Telemetry.Recorder.configure ~slow_ms ~dump_dir] turns slow or
   failing server requests into replayable AMPERe dumps. A rolling-window
   {!Sre.Slo} monitor is the server's one latency histogram: it backs the
   [!slo] endpoint and the [!stats] quantiles.

   Front end: a newline-delimited request/response protocol, served either
   over stdin/stdout ([serve_channels]) or a Unix-domain socket with one
   thread per connection ([serve_unix]). A plain line is SQL to optimize;
   [!]-prefixed lines are control commands (see [handle_line]). Every
   response is a single JSON line on the protocol stream; progress and
   diagnostics go through the [log] callback (stderr in the CLI) and the
   event log sinks to a file or stderr only, keeping stdout
   protocol-clean. *)

(* server.ml doubles as the library's entry module: re-export the pieces. *)
module Normalize = Normalize
module Plan_cache = Plan_cache

(* One protocol session (or the shared sid-0 pseudo-session of direct API
   callers). Its counts are the server's lifetime request accounting:
   atomics, so the request path takes no server lock (the API session is
   hit concurrently). A request's trace id is ["s<sid>-r<rid>"]. *)
type session = {
  s_sid : int;
  s_next_rid : int Atomic.t;
  s_count : int Atomic.t;  (* requests fielded *)
  s_errs : int Atomic.t;
  mutable s_live : bool;  (* open protocol connection *)
}

let make_session sid ~live =
  {
    s_sid = sid;
    s_next_rid = Atomic.make 1;
    s_count = Atomic.make 0;
    s_errs = Atomic.make 0;
    s_live = live;
  }

type t = {
  source : Catalog.Source.t;
  md_cache : Catalog.Md_cache.t;
  cache : Plan_cache.t;
  config : Orca.Orca_config.t;
  lock : Mutex.t; (* session registry, last_md_change *)
  started : float;
  mutable last_md_change : float; (* !health snapshot age; server lock *)
  api : session;
  mutable sessions : session list;
      (* every session ever opened, newest first, ending with the API's
         sid 0: the head holds the highest sid *)
  events : Sre.Events.t;
  slo : Sre.Slo.t; (* the server's one latency histogram *)
}

let create ?(config = Orca.Orca_config.default) ?capacity ?max_variants
    ?(events = Sre.Events.create ()) source =
  let api = make_session 0 ~live:false in
  let cache = Plan_cache.create ?capacity ?max_variants () in
  let now = Gpos.Clock.now () in
  let t =
    {
      source;
      md_cache = Catalog.Md_cache.create ();
      cache;
      config;
      lock = Mutex.create ();
      started = now;
      last_md_change = now;
      api;
      sessions = [ api ];
      events;
      slo = Sre.Slo.create ();
    }
  in
  Plan_cache.set_on_evict cache
    (Some
       (fun fp ->
         if Sre.Events.on events Sre.Events.Info then
           Sre.Events.emit events ~kind:"evict"
             [ ("fingerprint", Sre.Events.S fp) ]));
  t

let of_provider ?config ?capacity ?max_variants ?events provider =
  create ?config ?capacity ?max_variants ?events
    (Catalog.Source.create provider)

let source t = t.source
let plan_cache t = t.cache
let events t = t.events
let slo t = t.slo
let uptime_s t = Gpos.Clock.now () -. t.started

(* ---------------- sessions and tracing ----------------------------- *)

let session_id s = s.s_sid

let open_session t =
  Mutex.lock t.lock;
  let s = make_session ((List.hd t.sessions).s_sid + 1) ~live:true in
  t.sessions <- s :: t.sessions;
  Mutex.unlock t.lock;
  Telemetry.Metrics.inc Telemetry.Std.serve_sessions;
  if Sre.Events.on t.events Sre.Events.Info then
    Sre.Events.emit t.events ~kind:"session_open"
      [ ("session", Sre.Events.I s.s_sid) ];
  s

let close_session t s =
  if s.s_live then begin
    s.s_live <- false;
    if Sre.Events.on t.events Sre.Events.Info then
      Sre.Events.emit t.events ~kind:"session_close"
        [
          ("session", Sre.Events.I s.s_sid);
          ("requests", Sre.Events.I (Atomic.get s.s_count));
          ("errors", Sre.Events.I (Atomic.get s.s_errs));
        ]
  end

type cache_result = Hit | Rebound | Missed

let cache_result_to_string = function
  | Hit -> "hit"
  | Rebound -> "rebind"
  | Missed -> "miss"

type reply = {
  r_plan : Ir.Expr.plan;
  r_dxl : string Lazy.t;
  r_trace : string;
  r_fingerprint : string;
  r_result : cache_result;
  r_ms : float;
  r_catalog_version : int;
  r_stats_version : int;
}

(* The one accounting site: every request reaches it exactly once, and
   nothing else counts or times a request. It bumps the session's counts
   and the process-wide orca_serve_* series, observes the latency into the
   SLO window and emits the request_finish / request_error event — so the
   session counts, the window and the terminal events agree. *)
let finish_request t s ~trace ~ms outcome =
  let ok = match outcome with `Ok _ -> true | `Error _ -> false in
  Atomic.incr s.s_count;
  Telemetry.Metrics.inc Telemetry.Std.serve_requests;
  if not ok then begin
    Atomic.incr s.s_errs;
    Telemetry.Metrics.inc Telemetry.Std.serve_errors
  end;
  Telemetry.Metrics.observe Telemetry.Std.serve_ms ms;
  Sre.Slo.observe t.slo ~ms ~ok;
  if Sre.Events.on t.events Sre.Events.Info then
    match outcome with
    | `Ok (result, cost) ->
        Sre.Events.emit t.events ~trace ~kind:"request_finish"
          [
            ("cache", Sre.Events.S (cache_result_to_string result));
            ("ms", Sre.Events.F ms);
            ("cost", Sre.Events.F cost);
          ]
    | `Error msg ->
        Sre.Events.emit t.events ~level:Sre.Events.Error ~trace
          ~kind:"request_error"
          [ ("ms", Sre.Events.F ms); ("error", Sre.Events.S msg) ]

(* Optimize one SQL request through the plan cache. On a miss the query is
   bound and optimized against the snapshot taken before the cache probe, so
   the inserted plan is keyed exactly on the versions it was built from.
   Misses run through the flight recorder under this request's trace id.
   An exact hit also returns its cache variant, which holds the reply's
   plan bytes. *)
let serve_sql ?session t sql :
    (reply * Plan_cache.variant option, string) result =
  let s = match session with Some s -> s | None -> t.api in
  let t0 = Gpos.Clock.now () in
  let trace =
    Printf.sprintf "s%d-r%d" s.s_sid (Atomic.fetch_and_add s.s_next_rid 1)
  in
  match
    let n = Normalize.normalize sql in
    if Sre.Events.on t.events Sre.Events.Debug then
      Sre.Events.emit t.events ~level:Sre.Events.Debug ~trace
        ~kind:"request_start"
        [
          ("session", Sre.Events.I s.s_sid);
          ("fingerprint", Sre.Events.S n.Normalize.fingerprint);
        ];
    let snapshot = Catalog.Source.snapshot t.source in
    let catalog_version = Catalog.Snapshot.catalog_version snapshot in
    let stats_version = Catalog.Snapshot.stats_version snapshot in
    let plan, result, variant =
      match
        Plan_cache.lookup t.cache ~fp:n.Normalize.fingerprint
          ~norm_text:n.Normalize.text ~params:n.Normalize.params
          ~catalog_version ~stats_version
      with
      | Plan_cache.Exact v -> (Plan_cache.variant_plan v, Hit, Some v)
      | Plan_cache.Rebind plan -> (plan, Rebound, None)
      | Plan_cache.Absent ->
          let make_accessor () =
            Catalog.Accessor.of_snapshot ~snapshot ~cache:t.md_cache ()
          in
          let bind_accessor = make_accessor () in
          let query = Sqlfront.Binder.bind_sql bind_accessor sql in
          Catalog.Accessor.release bind_accessor;
          let config = Orca.Orca_config.with_trace_id t.config trace in
          let report =
            Orca.Flight.optimize ~config ~label:trace
              ~fingerprint:n.Normalize.fingerprint ~make_accessor query
          in
          Plan_cache.add t.cache ~fp:n.Normalize.fingerprint
            ~norm_text:n.Normalize.text ~params:n.Normalize.params
            ~catalog_version ~stats_version report.Orca.Optimizer.plan;
          (report.Orca.Optimizer.plan, Missed, None)
    in
    let ms = Gpos.Clock.ms_since t0 in
    finish_request t s ~trace ~ms (`Ok (result, plan.Ir.Expr.pcost));
    ( {
        r_plan = plan;
        r_dxl = lazy (Dxl.Dxl_plan.to_string plan);
        r_trace = trace;
        r_fingerprint = n.Normalize.fingerprint;
        r_result = result;
        r_ms = ms;
        r_catalog_version = catalog_version;
        r_stats_version = stats_version;
      },
      variant )
  with
  | reply -> Ok reply
  | exception e ->
      (* Whatever a request raises — Stack_overflow included — ends as its
         own error reply, never as the session's or the process's end. *)
      let msg =
        match e with
        | Orca.Optimizer.Unsupported_query msg -> "unsupported query: " ^ msg
        | Gpos.Gpos_error.Error _ -> Gpos.Gpos_error.to_string e
        | e -> "Internal: " ^ Printexc.to_string e
      in
      finish_request t s ~trace ~ms:(Gpos.Clock.ms_since t0) (`Error msg);
      Error msg

let optimize_sql ?session t sql = Result.map fst (serve_sql ?session t sql)

(* Bump the source version and drop every cache entry keyed on an older
   snapshot; returns the number dropped and the new versions. *)
let invalidate t what =
  (match what with
  | `Catalog -> Catalog.Source.bump_catalog t.source
  | `Stats -> Catalog.Source.bump_stats t.source);
  let versions = Catalog.Source.versions t.source in
  let dropped = Plan_cache.invalidate t.cache ~keep:versions in
  Mutex.lock t.lock;
  t.last_md_change <- Gpos.Clock.now ();
  Mutex.unlock t.lock;
  (if Sre.Events.on t.events Sre.Events.Warn then
     let cat, st = versions in
     Sre.Events.emit t.events ~level:Sre.Events.Warn ~kind:"invalidate"
       [
         ( "what",
           Sre.Events.S (match what with `Catalog -> "catalog" | `Stats -> "stats")
         );
         ("dropped", Sre.Events.I dropped);
         ("catalog_version", Sre.Events.I cat);
         ("stats_version", Sre.Events.I st);
       ]);
  (dropped, versions)

type stats = {
  s_requests : int;
  s_errors : int;
  s_cache : Plan_cache.stats;
  s_uptime_s : float;
  s_sessions_open : int;
  s_sessions_total : int; (* incl. the sid-0 API pseudo-session *)
  s_per_session : (int * int * int) list; (* (sid, requests, errors), by sid *)
  s_p50_ms : float;
  s_p95_ms : float;
  s_p99_ms : float;
}

(* [slo] is the SLO window's report the quantiles are read from, taken by
   the caller so [health] builds one report for both its uses. *)
let stats_with t (slo : Sre.Slo.report) =
  Mutex.lock t.lock;
  let sessions = t.sessions in
  Mutex.unlock t.lock;
  let per_session =
    List.rev_map
      (fun s ->
        (* errors before requests: finish_request bumps them in the other
           order, so a racing read never shows more errors than requests *)
        let errs = Atomic.get s.s_errs in
        (s.s_sid, Atomic.get s.s_count, errs))
      sessions
  in
  let sum f = List.fold_left (fun acc row -> acc + f row) 0 per_session in
  {
    s_requests = sum (fun (_, r, _) -> r);
    s_errors = sum (fun (_, _, e) -> e);
    s_cache = Plan_cache.stats t.cache;
    s_uptime_s = uptime_s t;
    s_sessions_open = List.length (List.filter (fun s -> s.s_live) sessions);
    s_sessions_total = List.length sessions;
    s_per_session = per_session;
    s_p50_ms = slo.Sre.Slo.r_p50_ms;
    s_p95_ms = slo.Sre.Slo.r_p95_ms;
    s_p99_ms = slo.Sre.Slo.r_p99_ms;
  }

let stats t = stats_with t (Sre.Slo.report t.slo)

let health t =
  let slo = Sre.Slo.report t.slo in
  let s = stats_with t slo in
  let snapshot_age =
    Mutex.lock t.lock;
    let a = Gpos.Clock.now () -. t.last_md_change in
    Mutex.unlock t.lock;
    a
  in
  let cat, st = Catalog.Source.versions t.source in
  let input =
    {
      Sre.Health.h_uptime_s = s.s_uptime_s;
      h_sessions_open = s.s_sessions_open;
      h_sessions_total = s.s_sessions_total;
      h_requests = s.s_requests;
      h_errors = s.s_errors;
      h_snapshot_age_s = snapshot_age;
      h_catalog_version = cat;
      h_stats_version = st;
      h_cache_entries = s.s_cache.Plan_cache.entries;
      h_cache_capacity = Plan_cache.capacity t.cache;
      h_slo = Some slo;
    }
  in
  (input, Sre.Health.evaluate input)

(* ---------------- the line protocol -------------------------------- *)

let json_error msg =
  Gpos.Json.to_string
    (Gpos.Json.Obj [ ("ok", Gpos.Json.Bool false); ("error", Gpos.Json.Str msg) ])

(* The hot path. The plan (~17 KB of DXL on TPC-DS) comes last, after a
   flat header, because clients split the reply at the plan field. Its body
   is an exact hit's stored bytes ([`Stored]), copied as they are; a DXL
   string, escaped ([`Dxl]); or the reply's plan printed straight into the
   buffer, already escaped ([`Print]: no DXL string is built). *)
let add_reply buf ~plan (r : reply) =
  Buffer.add_string buf {|{"ok":true,"trace":"|};
  Gpos.Json.escape buf r.r_trace;
  Printf.bprintf buf
    {|","cache":"%s","fingerprint":"%s","ms":%.3f,"cost":%.6g,"rows":%.6g,"catalog_version":%d,"stats_version":%d|}
    (cache_result_to_string r.r_result)
    r.r_fingerprint r.r_ms r.r_plan.Ir.Expr.pcost r.r_plan.Ir.Expr.pest_rows
    r.r_catalog_version r.r_stats_version;
  (match plan with
  | `Omit -> ()
  | (`Stored _ | `Dxl _ | `Print) as body ->
      Buffer.add_string buf {|,"plan":"|};
      (match body with
      | `Stored json -> Buffer.add_string buf json
      | `Dxl dxl -> Gpos.Json.escape buf dxl
      | `Print -> Dxl.Dxl_plan.add_json_escaped buf r.r_plan);
      Buffer.add_char buf '"');
  Buffer.add_char buf '}'

let json_of_reply ~include_plan (r : reply) =
  let plan, plan_bytes =
    if not include_plan then (`Omit, 0)
    else
      let dxl = Lazy.force r.r_dxl in
      (* the DXL grown by its escaped attribute quotes *)
      (`Dxl dxl, String.length dxl * 9 / 8)
  in
  let buf = Buffer.create (256 + plan_bytes) in
  add_reply buf ~plan r;
  Buffer.contents buf

(* Control replies: one [Gpos.Json] object behind the shared ["ok":true]
   envelope. *)
let ok_reply fields =
  Gpos.Json.to_string (Gpos.Json.Obj (("ok", Gpos.Json.Bool true) :: fields))

let json_of_stats t =
  let s = stats t in
  let c = s.s_cache in
  let answered = c.Plan_cache.hits + c.Plan_cache.rebinds in
  let probes = answered + c.Plan_cache.misses in
  let hit_rate =
    if probes = 0 then 0.0 else float_of_int answered /. float_of_int probes
  in
  let n = Gpos.Json.int and f d x = Gpos.Json.Num (Gpos.Json.fixed d x) in
  ok_reply
    [
      ("requests", n s.s_requests);
      ("errors", n s.s_errors);
      ("uptime_s", f 3 s.s_uptime_s);
      ("hits", n c.Plan_cache.hits);
      ("rebinds", n c.Plan_cache.rebinds);
      ("misses", n c.Plan_cache.misses);
      ("evictions", n c.Plan_cache.evictions);
      ("invalidations", n c.Plan_cache.invalidations);
      ("collisions", n c.Plan_cache.collisions);
      ("entries", n c.Plan_cache.entries);
      ("variants", n c.Plan_cache.variants);
      ("hit_rate", f 4 hit_rate);
      ("p50_ms", f 4 s.s_p50_ms);
      ("p95_ms", f 4 s.s_p95_ms);
      ("p99_ms", f 4 s.s_p99_ms);
      ("sessions_open", n s.s_sessions_open);
      ("sessions_total", n s.s_sessions_total);
      ( "per_session",
        Gpos.Json.Arr
          (List.map
             (fun (sid, reqs, errs) ->
               Gpos.Json.Obj
                 [ ("session", n sid); ("requests", n reqs); ("errors", n errs) ])
             s.s_per_session) );
    ]

(* The !metrics endpoint: the Prometheus exposition of the process-wide
   registry, self-linted and shipped as one escaped JSON string so the
   protocol stream stays line-parseable (the raw multi-line text never
   touches stdout). *)
let json_of_metrics () =
  let snap = Telemetry.Metrics.snapshot Telemetry.Metrics.default in
  let prom = Telemetry.Expose.to_prometheus snap in
  let problems = Telemetry.Expose.lint_prometheus prom in
  ok_reply
    [
      ("lint_errors", Gpos.Json.int (List.length problems));
      ("metrics", Gpos.Json.Str prom);
    ]

let json_of_health t =
  let input, verdict = health t in
  ok_reply (Sre.Health.fields input verdict)

let json_of_slo t = ok_reply [ ("slo", Sre.Slo.json (Sre.Slo.report t.slo)) ]

(* One request line: a plain line is SQL; [!]-prefixed lines are control
   commands:
     !ping                      liveness probe
     !plan on|off               include the DXL plan in responses
     !invalidate catalog|stats  bump the source version, drop stale entries
     !stats                     cache/serve/session counters + latency
     !metrics                   linted Prometheus exposition (escaped)
     !health                    readiness checks
     !slo                       rolling-window SLO report
     !quit                      end the session
   The response is written into [buf]. *)
let handle_line t ~session ~session_plan buf line =
  let reply json =
    Buffer.add_string buf json;
    `Reply
  in
  let line = String.trim line in
  if line = "" then `Silent
  else if String.length line > 0 && line.[0] = '!' then
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ "!ping" ] -> reply {|{"ok":true,"pong":true}|}
    | [ "!quit" ] ->
        Buffer.add_string buf {|{"ok":true,"bye":true}|};
        `Quit
    | [ "!plan"; "on" ] ->
        session_plan := true;
        reply {|{"ok":true,"plan":true}|}
    | [ "!plan"; "off" ] ->
        session_plan := false;
        reply {|{"ok":true,"plan":false}|}
    | [ "!stats" ] -> reply (json_of_stats t)
    | [ "!metrics" ] -> reply (json_of_metrics ())
    | [ "!health" ] -> reply (json_of_health t)
    | [ "!slo" ] -> reply (json_of_slo t)
    | [ "!invalidate"; what ] when what = "catalog" || what = "stats" ->
        let target = if what = "catalog" then `Catalog else `Stats in
        let dropped, (cat, st) = invalidate t target in
        reply
          (ok_reply
             [
               ("invalidated", Gpos.Json.Str what);
               ("dropped", Gpos.Json.int dropped);
               ("catalog_version", Gpos.Json.int cat);
               ("stats_version", Gpos.Json.int st);
             ])
    | _ -> reply (json_error ("unknown control command: " ^ line))
  else
    match serve_sql ~session t line with
    | Ok (r, variant) ->
        let plan =
          match variant with
          | _ when not !session_plan -> `Omit
          | Some v -> `Stored (Plan_cache.plan_json v)
          | None -> `Print
        in
        add_reply buf ~plan r;
        `Reply
    | Error msg -> reply (json_error msg)

(* One session over arbitrary channels. Each response is written into the
   session's one reply buffer, then to the channel, and flushed per line so
   a pipelined client never deadlocks; [log] receives session progress. *)
let serve_channels ?(log = ignore) ?(include_plan = false) t ic oc =
  let session = open_session t in
  let session_plan = ref include_plan in
  let buf = Buffer.create 4096 in
  log (Printf.sprintf "session %d open" session.s_sid);
  let quit = ref false in
  (try
     Fun.protect
       ~finally:(fun () -> close_session t session)
       (fun () ->
         while not !quit do
           match input_line ic with
           | exception End_of_file -> quit := true
           | line -> (
               Buffer.clear buf;
               match handle_line t ~session ~session_plan buf line with
               | `Silent -> ()
               | (`Reply | `Quit) as action ->
                   Buffer.add_char buf '\n';
                   Buffer.output_buffer oc buf;
                   flush oc;
                   quit := action = `Quit)
         done)
   with Sys_error _ -> ());
  log (Printf.sprintf "session %d closed" session.s_sid)

(* Unix-domain socket listener: one thread per accepted connection, each
   running the same session loop. [max_sessions] bounds accepted connections
   (tests); without it the listener runs until the process dies. *)
let serve_unix ?(log = ignore) ?(include_plan = false) ?max_sessions t ~path
    () =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      log (Printf.sprintf "listening on %s" path);
      let threads = ref [] in
      let accepted = ref 0 in
      let continue () =
        match max_sessions with None -> true | Some n -> !accepted < n
      in
      while continue () do
        let fd, _ = Unix.accept sock in
        incr accepted;
        let n = !accepted in
        let th =
          Thread.create
            (fun fd ->
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              let log msg = log (Printf.sprintf "[conn %d] %s" n msg) in
              serve_channels ~log ~include_plan t ic oc;
              (* closing the channel closes [fd]; closing [fd] again could
                 close a descriptor [accept] has since handed to another
                 session *)
              close_out_noerr oc)
            fd
        in
        threads := th :: !threads
      done;
      List.iter Thread.join !threads)
