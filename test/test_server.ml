(* Tests for lib/server: query normalization and fingerprinting, the
   parameterized plan cache (exact hits byte-identical to fresh
   optimization, parameter rebinds, LRU eviction, forged-fingerprint
   collisions), snapshot versioning and invalidation, version threading
   through accessor/stats/optimizer report, the line protocol, and
   concurrent sessions over both the API and the Unix-socket listener. *)

module Sv = Server
module Nz = Server.Normalize
module Pc = Server.Plan_cache

let sql_base = "SELECT a, b FROM t1 WHERE b = 10"

(* same token stream: case/whitespace differences only *)
let sql_variant = "select  A,  b   from T1 where B = 10"

(* same shape, one constant changed *)
let sql_changed = "SELECT a, b FROM t1 WHERE b = 11"

(* different shape entirely *)
let sql_other = "SELECT a FROM t2 WHERE a = 10"

let new_server () =
  Sv.of_provider
    ~config:(Lazy.force Fixtures.orca_config)
    (Lazy.force Fixtures.small).Fixtures.provider

let ok_reply server sql =
  match Sv.optimize_sql server sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "optimize_sql %S failed: %s" sql e

let result_t =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Sv.cache_result_to_string r))
    ( = )

(* fresh, cache-free optimization of [sql] for byte-identity comparisons *)
let cold_plan_on accessor sql =
  let query = Sqlfront.Binder.bind_sql accessor sql in
  let report =
    Orca.Optimizer.optimize ~config:(Lazy.force Fixtures.orca_config) accessor
      query
  in
  report.Orca.Optimizer.plan

let cold_plan sql = cold_plan_on (Fixtures.small_accessor ()) sql

(* --- normalization --- *)

let test_normalize_shape () =
  let n1 = Nz.normalize sql_base and n2 = Nz.normalize sql_variant in
  Alcotest.(check string) "same canonical text" n1.Nz.text n2.Nz.text;
  Alcotest.(check string) "same fingerprint" n1.Nz.fingerprint n2.Nz.fingerprint;
  Alcotest.(check string)
    "same parameter vector"
    (Nz.params_key n1.Nz.params)
    (Nz.params_key n2.Nz.params);
  let has sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "placeholder in the text" true (has "$1" n1.Nz.text);
  Alcotest.(check bool) "literal lifted out of the text" false
    (has "10" n1.Nz.text);
  Alcotest.(check int) "one parameter" 1 (List.length n1.Nz.params)

let test_normalize_params_differ () =
  let n1 = Nz.normalize sql_base and n3 = Nz.normalize sql_changed in
  Alcotest.(check string)
    "changed constant keeps the fingerprint" n1.Nz.fingerprint
    n3.Nz.fingerprint;
  Alcotest.(check bool)
    "changed constant changes the parameter key" true
    (Nz.params_key n1.Nz.params <> Nz.params_key n3.Nz.params)

let test_normalize_distinct_shapes () =
  let n1 = Nz.normalize sql_base and n4 = Nz.normalize sql_other in
  Alcotest.(check bool)
    "different shapes, different fingerprints" true
    (n1.Nz.fingerprint <> n4.Nz.fingerprint)

(* --- the cache through the server API --- *)

let test_hit_identical_plan () =
  let server = new_server () in
  let r1 = ok_reply server sql_base in
  let r2 = ok_reply server sql_variant in
  Alcotest.check result_t "first request misses" Sv.Missed r1.Sv.r_result;
  Alcotest.check result_t "variant is an exact hit" Sv.Hit r2.Sv.r_result;
  (* the cached plan serializes byte-for-byte like a fresh optimization *)
  let cold = Dxl.Dxl_plan.to_string (cold_plan sql_base) in
  Alcotest.(check string) "hit DXL = cold DXL" cold (Lazy.force r2.Sv.r_dxl);
  let d = Prov.Plan_diff.diff r2.Sv.r_plan (cold_plan sql_base) in
  Alcotest.(check bool) "structural diff is empty" true d.Prov.Plan_diff.d_identical

let test_rebind () =
  let server = new_server () in
  ignore (ok_reply server sql_base);
  let r = ok_reply server sql_changed in
  Alcotest.check result_t "changed constant rebinds" Sv.Rebound r.Sv.r_result;
  (* the rebound plan carries the new constant and the cached shape *)
  let d = Prov.Plan_diff.diff r.Sv.r_plan (cold_plan sql_changed) in
  Alcotest.(check bool)
    "rebound plan has the fresh plan's shape" true
    d.Prov.Plan_diff.d_structural;
  Alcotest.(check bool)
    "new constant substituted into the plan" true
    (let dxl = Lazy.force r.Sv.r_dxl in
     let has sub =
       let n = String.length sub and m = String.length dxl in
       let rec go i = i + n <= m && (String.sub dxl i n = sub || go (i + 1)) in
       go 0
     in
     has "int:11" && not (has "int:10"));
  (* rebound plans are never cached: the same request rebinds again *)
  let r' = ok_reply server sql_changed in
  Alcotest.check result_t "rebind is not cached" Sv.Rebound r'.Sv.r_result

(* A changed String parameter that is not a date literal used to raise in
   the date translation (an error reply); it now rebinds as a String. *)
let test_rebind_non_date_string () =
  let env = Lazy.force Fixtures.tpcds_env in
  let server =
    Sv.of_provider ~config:(Lazy.force Fixtures.orca_config)
      env.Engines.Engine.provider
  in
  let sql cat = "SELECT i_item_id FROM item WHERE i_category = '" ^ cat ^ "'" in
  ignore (ok_reply server (sql "Books"));
  let r = ok_reply server (sql "Music") in
  Alcotest.check result_t "non-date string rebinds" Sv.Rebound r.Sv.r_result;
  Alcotest.(check string) "rebound plan is the fresh plan"
    (Dxl.Dxl_plan.to_string
       (cold_plan_on (Fixtures.tpcds_accessor ()) (sql "Music")))
    (Lazy.force r.Sv.r_dxl);
  Alcotest.(check bool) "a date and a non-date never map" true
    (Pc.rebind
       ~old_params:[ Ir.Datum.String "2000-01-01" ]
       ~new_params:[ Ir.Datum.String "not a date" ]
       r.Sv.r_plan
    = None)

let test_rebind_ambiguity_misses () =
  let server = new_server () in
  let sql_two = "SELECT a, b FROM t1 WHERE b = 10 AND a = 10" in
  (* changing only one of two equal constants is ambiguous: the cache must
     optimize fresh rather than guess which literal to substitute *)
  let sql_two' = "SELECT a, b FROM t1 WHERE b = 11 AND a = 10" in
  ignore (ok_reply server sql_two);
  let r = ok_reply server sql_two' in
  Alcotest.check result_t "ambiguous rebind is a miss" Sv.Missed r.Sv.r_result;
  (* ...and the miss added its own variant: the same text now hits *)
  let r' = ok_reply server sql_two' in
  Alcotest.check result_t "second time is an exact hit" Sv.Hit r'.Sv.r_result

(* --- the cache directly: collisions and LRU --- *)

let test_fingerprint_collision () =
  let cache = Pc.create () in
  let plan = cold_plan sql_base in
  let add text = Pc.add cache ~fp:"forged" ~norm_text:text ~params:[] ~catalog_version:0 ~stats_version:0 plan in
  let find text =
    Pc.find cache ~fp:"forged" ~norm_text:text ~params:[] ~catalog_version:0
      ~stats_version:0
  in
  add "shape-a";
  (* a different shape behind the same fingerprint must never be served *)
  (match find "shape-b" with
  | Pc.Miss -> ()
  | _ -> Alcotest.fail "collision served a foreign plan");
  (* insert under the collision keeps the resident shape *)
  add "shape-b";
  (match find "shape-a" with
  | Pc.Hit _ -> ()
  | _ -> Alcotest.fail "resident shape evicted by colliding insert");
  let s = Pc.stats cache in
  Alcotest.(check int) "two collisions counted" 2 s.Pc.collisions

let test_lru_eviction () =
  let cache = Pc.create ~capacity:2 () in
  let plan = cold_plan sql_base in
  let add fp = Pc.add cache ~fp ~norm_text:fp ~params:[] ~catalog_version:0 ~stats_version:0 plan in
  let find fp =
    Pc.find cache ~fp ~norm_text:fp ~params:[] ~catalog_version:0
      ~stats_version:0
  in
  add "q1";
  add "q2";
  (* touch q1 so q2 becomes least-recently-used *)
  (match find "q1" with
  | Pc.Hit _ -> ()
  | _ -> Alcotest.fail "q1 should hit");
  add "q3";
  (match find "q2" with
  | Pc.Miss -> ()
  | _ -> Alcotest.fail "q2 should have been evicted (LRU)");
  (match (find "q1", find "q3") with
  | Pc.Hit _, Pc.Hit _ -> ()
  | _ -> Alcotest.fail "q1 and q3 should both be resident");
  let s = Pc.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Pc.evictions;
  Alcotest.(check int) "capacity respected" 2 s.Pc.entries

(* --- snapshot versioning and invalidation --- *)

let test_invalidation () =
  let server = new_server () in
  ignore (ok_reply server sql_base);
  let r = ok_reply server sql_base in
  Alcotest.check result_t "warm" Sv.Hit r.Sv.r_result;
  (* a stats refresh stales the plan: the next request re-optimizes *)
  let dropped, (cat, st) = Sv.invalidate server `Stats in
  Alcotest.(check int) "one entry dropped" 1 dropped;
  Alcotest.(check (pair int int)) "stats bump" (0, 1) (cat, st);
  let r = ok_reply server sql_base in
  Alcotest.check result_t "stale plan not served" Sv.Missed r.Sv.r_result;
  Alcotest.(check (pair int int))
    "reply carries the new versions" (0, 1)
    (r.Sv.r_catalog_version, r.Sv.r_stats_version);
  let r = ok_reply server sql_base in
  Alcotest.check result_t "warm again under the new versions" Sv.Hit
    r.Sv.r_result;
  (* a catalog change advances both counters *)
  let dropped, (cat, st) = Sv.invalidate server `Catalog in
  Alcotest.(check int) "entry dropped again" 1 dropped;
  Alcotest.(check (pair int int)) "catalog bump stales stats too" (1, 2)
    (cat, st)

let test_version_threading () =
  let s = Lazy.force Fixtures.small in
  let source = Catalog.Source.create s.Fixtures.provider in
  Catalog.Source.bump_stats source;
  let snapshot = Catalog.Source.snapshot source in
  let accessor =
    Catalog.Accessor.of_snapshot ~snapshot ~cache:(Catalog.Md_cache.create ())
      ()
  in
  Alcotest.(check (pair int int))
    "accessor binds the snapshot versions" (0, 1)
    (Catalog.Accessor.md_versions accessor);
  let td = Option.get (Catalog.Accessor.bind_table accessor "t1") in
  let st = Catalog.Accessor.base_stats accessor td in
  Alcotest.(check int) "base stats stamped with the stats version" 1
    (Stats.Relstats.version st);
  let query = Sqlfront.Binder.bind_sql accessor sql_base in
  let report =
    Orca.Optimizer.optimize ~config:(Lazy.force Fixtures.orca_config) accessor
      query
  in
  Alcotest.(check (pair int int))
    "optimizer report records the versions" (0, 1)
    report.Orca.Optimizer.md_versions

let test_relstats_version_ops () =
  let st = Stats.Relstats.make ~version:3 ~rows:100.0 [] in
  Alcotest.(check int) "make carries the version" 3 (Stats.Relstats.version st);
  let st' = Stats.Relstats.scale st 0.5 in
  Alcotest.(check int) "scale preserves the version" 3
    (Stats.Relstats.version st');
  Alcotest.(check int) "set_version" 7
    (Stats.Relstats.version (Stats.Relstats.set_version st 7))

(* --- the line protocol --- *)

let read_all_lines fd =
  let ic = Unix.in_channel_of_descr fd in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let test_protocol_session () =
  let server = new_server () in
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr req_w in
  output_string oc "!ping\n";
  output_string oc (sql_base ^ "\n");
  output_string oc (sql_base ^ "\n");
  output_string oc "!plan on\n";
  output_string oc (sql_base ^ "\n");
  output_string oc "!invalidate stats\n";
  output_string oc "!stats\n";
  output_string oc "!bogus\n";
  output_string oc "!quit\n";
  close_out oc;
  let ic = Unix.in_channel_of_descr req_r in
  let soc = Unix.out_channel_of_descr resp_w in
  Sv.serve_channels server ic soc;
  close_out soc;
  (match read_all_lines resp_r with
  | [ pong; first; second; plan_on; with_plan; inval; stats; bogus; bye ] ->
      let has sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check string) "ping" {|{"ok":true,"pong":true}|} pong;
      Alcotest.(check bool) "first misses" true (has {|"cache":"miss"|} first);
      Alcotest.(check bool) "second hits" true (has {|"cache":"hit"|} second);
      Alcotest.(check string) "plan on" {|{"ok":true,"plan":true}|} plan_on;
      Alcotest.(check bool) "plan included on demand" true
        (has {|"plan":"|} with_plan);
      Alcotest.(check bool) "plan off by default" false (has {|"plan":"|} second);
      Alcotest.(check bool) "invalidate reports the drop" true
        (has {|"invalidated":"stats","dropped":1|} inval);
      Alcotest.(check bool) "stats exposes the counters" true
        (has {|"hits":|} stats && has {|"hit_rate":|} stats);
      Alcotest.(check bool) "unknown control command errors" true
        (has {|"ok":false|} bogus);
      Alcotest.(check bool) "quit acknowledged" true (has {|"bye":true|} bye)
  | lines -> Alcotest.failf "expected 9 response lines, got %d" (List.length lines));
  Unix.close req_r;
  Unix.close resp_r

(* An integer literal past max_int is a parse error reply, not the end of
   the process; both errors count in !stats. Any other exception is an
   Internal error reply. *)
let test_protocol_bad_literals () =
  let server = new_server () in
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr req_w in
  output_string oc "SELECT a FROM t1 WHERE a = 99999999999999999999999999\n";
  output_string oc "SELECT a FROM t1 LIMIT 99999999999999999999999\n";
  output_string oc "!ping\n";
  output_string oc "!stats\n";
  close_out oc;
  let ic = Unix.in_channel_of_descr req_r in
  let soc = Unix.out_channel_of_descr resp_w in
  Sv.serve_channels server ic soc;
  close_out soc;
  let has sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (match read_all_lines resp_r with
  | [ where; limit; pong; stats ] ->
      List.iter
        (fun reply ->
          Alcotest.(check bool) "parse error reply" true
            (has {|"ok":false|} reply && has "ParseError" reply))
        [ where; limit ];
      Alcotest.(check string) "still serving" {|{"ok":true,"pong":true}|} pong;
      Alcotest.(check bool) "both counted as errors" true
        (has {|"errors":2,|} stats)
  | lines -> Alcotest.failf "expected 4 response lines, got %d" (List.length lines));
  Unix.close req_r;
  Unix.close resp_r;
  (* any other exception a request raises (here the scheduler rejecting
     zero workers) is an Internal error reply, counted like the rest *)
  let broken =
    Sv.of_provider
      ~config:(Orca.Orca_config.with_workers (Lazy.force Fixtures.orca_config) 0)
      (Lazy.force Fixtures.small).Fixtures.provider
  in
  (match Sv.optimize_sql broken sql_base with
  | Error msg ->
      Alcotest.(check bool) "internal error reply" true
        (String.starts_with ~prefix:"Internal: " msg)
  | Ok _ -> Alcotest.fail "zero workers must fail");
  Alcotest.(check int) "counted" 1 (Sv.stats broken).Sv.s_errors

(* --- concurrency --- *)

let test_concurrent_sessions () =
  let server = new_server () in
  let nthreads = 8 and per_thread = 25 in
  let sqls = [| sql_base; sql_variant; sql_changed; sql_other |] in
  let failures = ref 0 in
  let lock = Mutex.create () in
  let worker i =
    for j = 0 to per_thread - 1 do
      let sql = sqls.((i + j) mod Array.length sqls) in
      match Sv.optimize_sql server sql with
      | Ok _ -> ()
      | Error _ ->
          Mutex.lock lock;
          incr failures;
          Mutex.unlock lock
    done
  in
  let threads = List.init nthreads (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no request failed" 0 !failures;
  let s = Sv.stats server in
  Alcotest.(check int)
    "every request counted" (nthreads * per_thread)
    s.Sv.s_requests;
  let c = s.Sv.s_cache in
  Alcotest.(check int)
    "every probe accounted for" (nthreads * per_thread)
    (c.Pc.hits + c.Pc.rebinds + c.Pc.misses)

let test_unix_socket_sessions () =
  let server = new_server () in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "orca-serve-test-%d.sock" (Unix.getpid ()))
  in
  let nclients = 3 in
  let listener =
    Thread.create
      (fun () -> Sv.serve_unix ~max_sessions:nclients server ~path ())
      ()
  in
  (* wait for the socket to appear *)
  let rec wait n =
    if n = 0 then Alcotest.fail "listener never bound its socket"
    else if not (Sys.file_exists path) then (Thread.delay 0.02; wait (n - 1))
  in
  wait 250;
  let client i =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    output_string oc (sql_base ^ "\n");
    output_string oc ((if i mod 2 = 0 then sql_variant else sql_changed) ^ "\n");
    output_string oc "!quit\n";
    flush oc;
    let l1 = input_line ic in
    let l2 = input_line ic in
    let l3 = input_line ic in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    List.for_all
      (fun l -> String.length l > 0 && String.sub l 0 10 = {|{"ok":true|})
      [ l1; l2; l3 ]
  in
  let oks = ref 0 in
  let lock = Mutex.create () in
  let clients =
    List.init nclients (fun i ->
        Thread.create
          (fun () ->
            if client i then begin
              Mutex.lock lock;
              incr oks;
              Mutex.unlock lock
            end)
          ())
  in
  List.iter Thread.join clients;
  Thread.join listener;
  Alcotest.(check int) "every session served" nclients !oks;
  Alcotest.(check bool) "socket removed on exit" false (Sys.file_exists path);
  let s = Sv.stats server in
  Alcotest.(check int) "all socket requests counted" (2 * nclients)
    s.Sv.s_requests

(* --- observability (lib/sre wiring) --- *)

let has sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_trace_in_replies () =
  let server = new_server () in
  let r1 = ok_reply server sql_base in
  let r2 = ok_reply server sql_variant in
  Alcotest.(check string) "API requests trace in session 0" "s0-r1"
    r1.Sv.r_trace;
  Alcotest.(check string) "request ids advance" "s0-r2" r2.Sv.r_trace;
  (* a protocol session owns its own sid and rid stream *)
  let s = Sv.open_session server in
  Alcotest.(check int) "first explicit session is sid 1" 1 (Sv.session_id s);
  let r3 =
    match Sv.optimize_sql ~session:s server sql_base with
    | Ok r -> r
    | Error e -> Alcotest.failf "session request failed: %s" e
  in
  Alcotest.(check string) "session request traces under its sid" "s1-r1"
    r3.Sv.r_trace;
  Sv.close_session server s;
  (* the trace id is echoed in the protocol reply JSON *)
  Alcotest.(check bool) "trace echoed in the reply line" true
    (has {|"trace":"s0-r1"|} (Sv.json_of_reply ~include_plan:false r1));
  (* ... and the session's miss was recorded in the flight ring under its
     trace id (r1's miss was the server's only one: r2/r3 hit the cache) *)
  (match List.rev (Telemetry.Recorder.entries ()) with
  | last :: _ ->
      Alcotest.(check string) "flight entry labeled with the trace id"
        "s0-r1" last.Telemetry.Recorder.e_label
  | [] -> Alcotest.fail "miss did not reach the flight recorder")

let test_request_events () =
  let server = new_server () in
  let r1 = ok_reply server sql_base in
  let r2 = ok_reply server sql_variant in
  ignore (Sv.invalidate server `Stats);
  let es = Sre.Events.entries (Sv.events server) in
  let finishes =
    List.filter (fun e -> e.Sre.Events.ev_kind = "request_finish") es
  in
  Alcotest.(check int) "one terminal event per request" 2
    (List.length finishes);
  Alcotest.(check (list (option string)))
    "terminal events carry their traces"
    [ Some r1.Sv.r_trace; Some r2.Sv.r_trace ]
    (List.map (fun e -> e.Sre.Events.ev_trace) finishes);
  let starts =
    List.filter (fun e -> e.Sre.Events.ev_kind = "request_start") es
  in
  Alcotest.(check bool) "request_start records the fingerprint" true
    (List.for_all
       (fun e ->
         List.exists
           (fun (k, v) ->
             k = "fingerprint" && v = Sre.Events.S r1.Sv.r_fingerprint)
           e.Sre.Events.ev_fields)
       starts);
  let outcome e =
    List.exists (fun (k, v) -> k = "cache" && v = Sre.Events.S e)
  in
  (match List.map (fun e -> e.Sre.Events.ev_fields) finishes with
  | [ f1; f2 ] ->
      Alcotest.(check bool) "miss then hit recorded" true
        (outcome "miss" f1 && outcome "hit" f2)
  | _ -> Alcotest.fail "unreachable");
  Alcotest.(check bool) "invalidation logged at warn" true
    (List.exists
       (fun e ->
         e.Sre.Events.ev_kind = "invalidate"
         && e.Sre.Events.ev_level = Sre.Events.Warn)
       es)

let test_error_events_and_slo () =
  let server = new_server () in
  ignore (ok_reply server sql_base);
  (match Sv.optimize_sql server "SELECT nope FROM missing_table" with
  | Ok _ -> Alcotest.fail "bogus query optimized"
  | Error _ -> ());
  let es = Sre.Events.entries (Sv.events server) in
  Alcotest.(check bool) "failed request leaves a request_error event" true
    (List.exists
       (fun e ->
         e.Sre.Events.ev_kind = "request_error"
         && e.Sre.Events.ev_level = Sre.Events.Error)
       es);
  let r = Sre.Slo.report (Sv.slo server) in
  Alcotest.(check int) "both requests in the SLO window" 2 r.Sre.Slo.r_requests;
  Alcotest.(check int) "the failure counted against availability" 1
    r.Sre.Slo.r_errors;
  let st = Sv.stats server in
  Alcotest.(check int) "stats counts the error" 1 st.Sv.s_errors;
  Alcotest.(check bool) "lifetime latency quantiles populated" true
    (st.Sv.s_p50_ms > 0.0 && st.Sv.s_p99_ms >= st.Sv.s_p50_ms)

(* unescape a JSON string literal's body (the reply fields are produced by
   the server's own escaper: quote, backslash, \n\r\t and \uXXXX) *)
let json_unescape s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (if s.[!i] <> '\\' then Buffer.add_char buf s.[!i]
     else begin
       incr i;
       match s.[!i] with
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'u' ->
           let code = int_of_string ("0x" ^ String.sub s (!i + 1) 4) in
           i := !i + 4;
           Buffer.add_char buf (Char.chr (code land 0xff))
       | c -> Buffer.add_char buf c
     end);
    incr i
  done;
  Buffer.contents buf

(* run one scripted protocol session; returns the response lines *)
let run_session server lines =
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr req_w in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  let ic = Unix.in_channel_of_descr req_r in
  let soc = Unix.out_channel_of_descr resp_w in
  Sv.serve_channels server ic soc;
  close_out soc;
  let out = read_all_lines resp_r in
  Unix.close req_r;
  Unix.close resp_r;
  out

let test_metrics_endpoint () =
  let server = new_server () in
  match run_session server [ sql_base; "!metrics"; "!quit" ] with
  | [ _; metrics; _ ] ->
      Alcotest.(check bool) "server-side lint is clean" true
        (has {|"lint_errors":0|} metrics);
      (* extract the escaped exposition and lint it client-side too *)
      let key = {|"metrics":"|} in
      let start =
        let rec find i =
          if i + String.length key > String.length metrics then
            Alcotest.fail "no metrics field in the reply"
          else if String.sub metrics i (String.length key) = key then
            i + String.length key
          else find (i + 1)
        in
        find 0
      in
      let stop = String.rindex metrics '"' in
      let prom = json_unescape (String.sub metrics start (stop - start)) in
      Alcotest.(check (list string))
        "exposition passes the Prometheus linter" []
        (Telemetry.Expose.lint_prometheus prom);
      Alcotest.(check bool) "serve counters exposed" true
        (has "orca_serve_requests_total" prom)
  | lines -> Alcotest.failf "expected 3 reply lines, got %d" (List.length lines)

let test_health_slo_endpoints () =
  let server = new_server () in
  match
    run_session server [ sql_base; "!health"; "!slo"; "!stats"; "!quit" ]
  with
  | [ _; health; slo; stats; _ ] ->
      List.iter
        (fun (name, line) ->
          Alcotest.(check bool) (name ^ " is one JSON line") true
            (String.length line > 0
            && line.[0] = '{'
            && line.[String.length line - 1] = '}'
            && has {|"ok":true|} line))
        [ ("health", health); ("slo", slo); ("stats", stats) ];
      Alcotest.(check bool) "health reports ready" true
        (has {|"status":"ready"|} health);
      Alcotest.(check bool) "health carries its checks" true
        (has {|"checks":[{"name":"error-rate"|} health);
      Alcotest.(check bool) "slo carries the objectives and burn" true
        (has {|"latency_burn":|} slo && has {|"window_s":300|} slo);
      (* the enriched !stats satellite: uptime, quantiles, sessions *)
      List.iter
        (fun f ->
          Alcotest.(check bool) ("stats has " ^ f) true (has ("\"" ^ f ^ "\":") stats))
        [
          "uptime_s"; "p50_ms"; "p95_ms"; "p99_ms"; "sessions_open";
          "sessions_total"; "per_session";
        ];
      Alcotest.(check bool) "per-session accounting rendered" true
        (has {|"per_session":[{"session":0,"requests":0,"errors":0},{"session":1,"requests":1|} stats)
  | lines -> Alcotest.failf "expected 5 reply lines, got %d" (List.length lines)

let test_protocol_stays_line_parseable () =
  (* the stdout-cleanliness satellite: with the event log sinking to a
     file, a full session transcript must remain one well-formed JSON
     object per line — events never interleave with protocol replies *)
  let server = new_server () in
  let sink_path = Filename.temp_file "orca-serve-events" ".jsonl" in
  let sink = open_out sink_path in
  Sre.Events.set_sink (Sv.events server) (Some sink);
  let replies =
    run_session server
      [
        "!ping"; sql_base; sql_variant; sql_changed; "!invalidate stats";
        sql_base; "!metrics"; "!health"; "!slo"; "!stats"; "!quit";
      ]
  in
  Sre.Events.set_sink (Sv.events server) None;
  close_out sink;
  Alcotest.(check int) "one reply line per request line" 11
    (List.length replies);
  List.iter
    (fun line ->
      Alcotest.(check bool)
        ("well-formed single-line reply: " ^ line)
        true
        (String.length line > 0
        && line.[0] = '{'
        && line.[String.length line - 1] = '}'
        && has {|"ok":|} line
        && not (has {|"event":|} line)))
    replies;
  let ic = open_in sink_path in
  let sink_lines = ref [] in
  (try
     while true do
       sink_lines := input_line ic :: !sink_lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove sink_path;
  Alcotest.(check bool) "events landed in the sink instead" true
    (List.length !sink_lines > 0
    && List.for_all
         (fun l -> String.length l > 0 && has {|"event":|} l && l.[0] = '{')
         !sink_lines)

let test_concurrent_session_accounting () =
  let server = new_server () in
  let nthreads = 8 and per_thread = 25 in
  let sqls = [| sql_base; sql_variant; sql_changed; sql_other |] in
  let traces = Array.make (nthreads * per_thread) "" in
  let failures = ref 0 in
  let lock = Mutex.create () in
  let worker i =
    let session = Sv.open_session server in
    for j = 0 to per_thread - 1 do
      let sql = sqls.((i + j) mod Array.length sqls) in
      match Sv.optimize_sql ~session server sql with
      | Ok r -> traces.((i * per_thread) + j) <- r.Sv.r_trace
      | Error _ ->
          Mutex.lock lock;
          incr failures;
          Mutex.unlock lock
    done;
    Sv.close_session server session
  in
  let threads = List.init nthreads (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no request failed" 0 !failures;
  let s = Sv.stats server in
  Alcotest.(check int) "every request counted globally"
    (nthreads * per_thread) s.Sv.s_requests;
  (* per-session counters sum exactly to the global count; the API
     pseudo-session fielded nothing *)
  Alcotest.(check int) "sessions registered" (nthreads + 1)
    s.Sv.s_sessions_total;
  Alcotest.(check int) "per-session counts sum to the total"
    (nthreads * per_thread)
    (List.fold_left (fun acc (_, r, _) -> acc + r) 0 s.Sv.s_per_session);
  List.iter
    (fun (sid, reqs, errs) ->
      if sid = 0 then
        Alcotest.(check (pair int int)) "API session idle" (0, 0) (reqs, errs)
      else begin
        Alcotest.(check int)
          (Printf.sprintf "session %d fielded its own requests" sid)
          per_thread reqs;
        Alcotest.(check int) "no errors" 0 errs
      end)
    s.Sv.s_per_session;
  (* trace ids are globally unique across the concurrent sessions *)
  let tbl = Hashtbl.create 256 in
  Array.iter (fun tr -> Hashtbl.replace tbl tr ()) traces;
  Alcotest.(check int) "trace ids unique" (nthreads * per_thread)
    (Hashtbl.length tbl);
  (* and the event log agrees: exactly one terminal event per request *)
  let es = Sre.Events.entries (Sv.events server) in
  let terminal =
    List.filter
      (fun e ->
        e.Sre.Events.ev_kind = "request_finish"
        || e.Sre.Events.ev_kind = "request_error")
      es
  in
  Alcotest.(check int) "terminal events sum to s_requests"
    s.Sv.s_requests (List.length terminal);
  Alcotest.(check int) "every session opened and closed" nthreads
    (List.length
       (List.filter (fun e -> e.Sre.Events.ev_kind = "session_close") es))

let test_eviction_event () =
  let server =
    Sv.of_provider
      ~config:(Lazy.force Fixtures.orca_config)
      ~capacity:2
      (Lazy.force Fixtures.small).Fixtures.provider
  in
  ignore (ok_reply server sql_base);
  ignore (ok_reply server sql_other);
  ignore (ok_reply server "SELECT b FROM t2 WHERE b = 4");
  let s = Sv.stats server in
  Alcotest.(check int) "an entry was evicted" 1 s.Sv.s_cache.Pc.evictions;
  Alcotest.(check bool) "the eviction left an event with the fingerprint"
    true
    (List.exists
       (fun e ->
         e.Sre.Events.ev_kind = "evict"
         && List.exists (fun (k, _) -> k = "fingerprint") e.Sre.Events.ev_fields)
       (Sre.Events.entries (Sv.events server)))

let test_flight_recorder_wiring () =
  let dir = Filename.temp_file "orca-serve-flight" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Telemetry.Recorder.configure ~slow_ms:(Some 0.0) ~dump_dir:(Some dir) ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Recorder.configure ~slow_ms:None ~dump_dir:None ();
      Array.iter (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let server = new_server () in
      let r = ok_reply server sql_base in
      (* every request beats a 0 ms threshold: the miss must have been
         recaptured as an AMPERe dump attributed to this trace *)
      let dumps = Sys.readdir dir in
      Alcotest.(check int) "one flight dump emitted" 1 (Array.length dumps);
      Alcotest.(check bool) "dump named for the flight recorder" true
        (has "ampere-flight-" dumps.(0));
      let ic = open_in (Filename.concat dir dumps.(0)) in
      let len = in_channel_length ic in
      let dump = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "dump traceflags carry the trace id" true
        (has r.Sv.r_trace dump))

(* The reply bytes svcbench/wire.ml depends on: a flat header with
   ,"plan":"..." last, escaped quotes/backslashes/control bytes, raw
   non-ASCII; and the error envelope. The printed fields are pinned so the
   golden does not move with the cost model. *)
let test_wire_reply_golden () =
  Gpos.Clock.with_fake (fun () ->
      let server = new_server () in
      let r = ok_reply server sql_base in
      let r =
        {
          Sv.r_plan =
            { r.Sv.r_plan with Ir.Expr.pcost = 1234.5; pest_rows = 42.0 };
          r_dxl = lazy "<dxl:Plan a=\"1\">\n\t\\ caf\xc3\xa9 \x01\r</dxl:Plan>";
          r_trace = "s3-r7";
          r_fingerprint = "00ff00ff00ff00ff";
          r_result = Sv.Rebound;
          r_ms = 0.4567;
          r_catalog_version = 2;
          r_stats_version = 5;
        }
      in
      let header =
        {|{"ok":true,"trace":"s3-r7","cache":"rebind","fingerprint":"00ff00ff00ff00ff","ms":0.457,"cost":1234.5,"rows":42,"catalog_version":2,"stats_version":5|}
      in
      Alcotest.(check string) "reply without plan" (header ^ "}")
        (Sv.json_of_reply ~include_plan:false r);
      Alcotest.(check string) "reply with plan"
        (header
        ^ {|,"plan":"<dxl:Plan a=\"1\">\n\t\\ caf|} ^ "\xc3\xa9"
        ^ {| \u0001\r</dxl:Plan>"}|})
        (Sv.json_of_reply ~include_plan:true r);
      match run_session server [ "!bogus \"x\"\t\\y"; "!quit" ] with
      | [ err; _ ] ->
          Alcotest.(check string) "error envelope"
            {|{"ok":false,"error":"unknown control command: !bogus \"x\"\t\\y"}|}
            err
      | lines ->
          Alcotest.failf "expected 2 reply lines, got %d" (List.length lines))

(* --- stored reply bytes ----------------------------------------------- *)

(* A session over temporary files: the TPC-DS replies (~18 KB each) would
   fill a pipe that nobody reads until the session ends. *)
let run_session_files server lines =
  let req = Filename.temp_file "orca_req" ".txt"
  and resp = Filename.temp_file "orca_resp" ".txt" in
  Out_channel.with_open_bin req (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  In_channel.with_open_bin req (fun ic ->
      Out_channel.with_open_bin resp (fun oc -> Sv.serve_channels server ic oc));
  let out = In_channel.with_open_bin resp In_channel.input_all in
  Sys.remove req;
  Sys.remove resp;
  List.filter (fun l -> l <> "") (String.split_on_char '\n' out)

(* A reply's plan field as sent (still escaped) and the header before it. *)
let split_plan reply =
  let key = {|,"plan":"|} in
  let rec find i =
    if i + String.length key > String.length reply then
      Alcotest.failf "no plan field in %S" reply
    else if String.sub reply i (String.length key) = key then i
    else find (i + 1)
  in
  let i = find 0 in
  let body = i + String.length key in
  ( String.sub reply 0 i,
    String.sub reply body (String.length reply - body - 2) )

let escaped_dxl plan =
  let buf = Buffer.create 16384 in
  Gpos.Json.escape buf (Dxl.Dxl_plan.to_string plan);
  Buffer.contents buf

let test_stored_reply_bytes () =
  let env = Lazy.force Fixtures.tpcds_env in
  let server =
    Sv.of_provider ~config:(Lazy.force Fixtures.orca_config)
      env.Engines.Engine.provider
  in
  let texts =
    List.map (fun q -> q.Tpcds.Queries.sql) (Lazy.force Tpcds.Queries.all)
  in
  (* each text three times on an empty cache, so the first is a fresh miss *)
  let lines =
    ("!plan on"
    :: List.concat_map (fun sql -> [ sql; sql; sql; "!invalidate stats" ]) texts
    )
    @ [ List.hd texts; List.hd texts ]
  in
  let rec check_texts answered replies texts =
    match (replies, texts) with
    | r1 :: r2 :: r3 :: _inv :: rest, sql :: texts ->
        if not (has {|"ok":true|} r1) then check_texts answered rest texts
        else begin
          let h1, p1 = split_plan r1 and h2, p2 = split_plan r2
          and h3, p3 = split_plan r3 in
          Alcotest.(check bool) "first send is a miss" true
            (has {|"cache":"miss"|} h1);
          Alcotest.(check bool) "second send hits" true (has {|"cache":"hit"|} h2);
          Alcotest.(check bool) "third send hits" true (has {|"cache":"hit"|} h3);
          Alcotest.(check string) "second reply's plan is the miss's" p1 p2;
          Alcotest.(check string) "third reply's plan is the miss's" p1 p3;
          Alcotest.(check string) "plan is the escaped cold DXL"
            (escaped_dxl (cold_plan_on (Fixtures.tpcds_accessor ()) sql))
            p1;
          check_texts (answered + 1) rest texts
        end
    | rest, [] -> (answered, rest)
    | _ -> Alcotest.fail "fewer replies than requests"
  in
  match run_session_files server lines with
  | plan_on :: replies -> (
      Alcotest.(check string) "!plan on" {|{"ok":true,"plan":true}|} plan_on;
      let answered, tail = check_texts 0 replies texts in
      Alcotest.(check bool) "most TPC-DS texts answered" true (answered >= 100);
      match tail with
      | [ again; hit ] ->
          (* the last invalidation dropped the entry: miss, then hit *)
          Alcotest.(check bool) "after !invalidate the text misses" true
            (has {|"cache":"miss"|} (fst (split_plan again)));
          Alcotest.(check bool) "then hits again" true
            (has {|"cache":"hit"|} (fst (split_plan hit)));
          Alcotest.(check string) "same bytes after the refill"
            (snd (split_plan again)) (snd (split_plan hit))
      | l -> Alcotest.failf "expected 2 trailing replies, got %d" (List.length l))
  | [] -> Alcotest.fail "no replies"

(* The first exact hit on a fresh variant fills its bytes; parallel first
   hits race to fill and must all see the same bytes (a shared [Lazy.t]
   would raise [CamlinternalLazy.Undefined] here). *)
let test_stored_bytes_parallel_fill () =
  let server = new_server () in
  let r = ok_reply server sql_base in
  Alcotest.(check result_t) "insert is a miss" Sv.Missed r.Sv.r_result;
  let n = Nz.normalize sql_base in
  let cat, st = Catalog.Source.versions (Sv.source server) in
  let ready = Atomic.make 0 in
  let first_hit () =
    Atomic.incr ready;
    while Atomic.get ready < 8 do
      Domain.cpu_relax ()
    done;
    match
      Pc.lookup (Sv.plan_cache server) ~fp:n.Nz.fingerprint ~norm_text:n.Nz.text
        ~params:n.Nz.params ~catalog_version:cat ~stats_version:st
    with
    | Pc.Exact v -> Pc.plan_json v
    | Pc.Rebind _ | Pc.Absent -> failwith "expected an exact hit"
  in
  let bytes = List.map Domain.join (List.init 8 (fun _ -> Domain.spawn first_hit)) in
  List.iter
    (fun b ->
      Alcotest.(check string) "every first hit gets the escaped DXL"
        (escaped_dxl r.Sv.r_plan) b)
    bytes

let test_sre_plan_identity () =
  (* the acceptance criterion: observability fully on (trace ids, events,
     SLO) versus dark must not change a single plan byte *)
  let dark =
    Sv.of_provider
      ~config:(Lazy.force Fixtures.orca_config)
      ~events:(Sre.Events.create ~enabled:false ())
      (Lazy.force Fixtures.small).Fixtures.provider
  in
  let lit = new_server () in
  List.iter
    (fun sql ->
      let a = ok_reply dark sql and b = ok_reply lit sql in
      Alcotest.(check string)
        ("identical DXL for " ^ sql)
        (Lazy.force a.Sv.r_dxl) (Lazy.force b.Sv.r_dxl))
    [ sql_base; sql_other; "SELECT a, b FROM t1 WHERE b = 10 AND a = 10" ];
  Alcotest.(check int) "the dark server logged nothing" 0
    (Sre.Events.total (Sv.events dark));
  Alcotest.(check bool) "the lit server logged the work" true
    (Sre.Events.total (Sv.events lit) > 0)

let suite =
  [
    Alcotest.test_case "normalize: case/whitespace share a shape" `Quick
      test_normalize_shape;
    Alcotest.test_case "normalize: constants become parameters" `Quick
      test_normalize_params_differ;
    Alcotest.test_case "normalize: distinct shapes, distinct fingerprints"
      `Quick test_normalize_distinct_shapes;
    Alcotest.test_case "cache hit is byte-identical to fresh optimization"
      `Quick test_hit_identical_plan;
    Alcotest.test_case "changed constant takes the rebind path" `Quick
      test_rebind;
    Alcotest.test_case "non-date string parameters rebind" `Quick
      test_rebind_non_date_string;
    Alcotest.test_case "ambiguous rebind optimizes fresh" `Quick
      test_rebind_ambiguity_misses;
    Alcotest.test_case "fingerprint collision never served" `Quick
      test_fingerprint_collision;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "invalidation on version bumps" `Quick test_invalidation;
    Alcotest.test_case "versions threaded through accessor/stats/report"
      `Quick test_version_threading;
    Alcotest.test_case "relstats version algebra" `Quick
      test_relstats_version_ops;
    Alcotest.test_case "line-protocol session" `Quick test_protocol_session;
    Alcotest.test_case "out-of-range literals are error replies" `Quick
      test_protocol_bad_literals;
    Alcotest.test_case "concurrent sessions share the cache" `Quick
      test_concurrent_sessions;
    Alcotest.test_case "unix-socket listener serves concurrent clients" `Quick
      test_unix_socket_sessions;
    Alcotest.test_case "trace ids echoed in replies and flight entries" `Quick
      test_trace_in_replies;
    Alcotest.test_case "request lifecycle lands in the event log" `Quick
      test_request_events;
    Alcotest.test_case "errors reach the event log, SLO and stats" `Quick
      test_error_events_and_slo;
    Alcotest.test_case "!metrics passes the Prometheus linter" `Quick
      test_metrics_endpoint;
    Alcotest.test_case "!health, !slo and enriched !stats" `Quick
      test_health_slo_endpoints;
    Alcotest.test_case "protocol stream stays line-parseable under sre" `Quick
      test_protocol_stays_line_parseable;
    Alcotest.test_case "concurrent sessions account exactly" `Quick
      test_concurrent_session_accounting;
    Alcotest.test_case "LRU eviction emits an event" `Quick test_eviction_event;
    Alcotest.test_case "server misses feed the flight recorder" `Quick
      test_flight_recorder_wiring;
    Alcotest.test_case "plans byte-identical with sre on vs off" `Quick
      test_sre_plan_identity;
    Alcotest.test_case "wire reply bytes golden" `Quick test_wire_reply_golden;
    Alcotest.test_case "exact hits reply with the stored plan bytes" `Quick
      test_stored_reply_bytes;
    Alcotest.test_case "parallel first hits fill one variant's bytes" `Quick
      test_stored_bytes_parallel_fill;
  ]
