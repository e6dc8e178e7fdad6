(* Tests for lib/sre: trace ids (allocated by the server's session
   record), the structured event log (ring bounds, level filtering,
   zero-cost-when-disabled, golden JSON under the fake clock, file sink),
   the rolling-window SLO monitor (hand-computed burn rates, window
   rotation and gap reset) and the readiness policy. *)

module Ev = Sre.Events
module Slo = Sre.Slo
module H = Sre.Health

(* --- tracing --- *)

let trace_sql = "SELECT a, b FROM t1 WHERE b = 10"

let trace_server () =
  Server.of_provider
    ~config:(Lazy.force Fixtures.orca_config)
    (Lazy.force Fixtures.small).Fixtures.provider

let next_trace ?session server =
  match Server.optimize_sql ?session server trace_sql with
  | Ok r -> r.Server.r_trace
  | Error e -> Alcotest.failf "optimize_sql failed: %s" e

let test_trace_ids () =
  let server = trace_server () in
  let s1 = Server.open_session server in
  let s2 = Server.open_session server in
  Alcotest.(check int) "first session is sid 1" 1 (Server.session_id s1);
  Alcotest.(check int) "second session is sid 2" 2 (Server.session_id s2);
  Alcotest.(check string) "first request" "s1-r1"
    (next_trace ~session:s1 server);
  Alcotest.(check string) "rids are per-session" "s2-r1"
    (next_trace ~session:s2 server);
  Alcotest.(check string) "rids advance" "s1-r2"
    (next_trace ~session:s1 server);
  Alcotest.(check string) "api traces in sid 0" "s0-r1" (next_trace server)

(* Threads open sessions concurrently and interleave requests on their own
   session with requests on the shared sid-0 API session. *)
let test_trace_ids_concurrent () =
  let server = trace_server () in
  let n = 4 and per = 25 in
  let sids = Array.make n 0 in
  let own = Array.make (n * per) "" and api = Array.make (n * per) "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let s = Server.open_session server in
            sids.(i) <- Server.session_id s;
            for j = 0 to per - 1 do
              own.((i * per) + j) <- next_trace ~session:s server;
              api.((i * per) + j) <- next_trace server
            done;
            Server.close_session server s)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check (list int))
    "concurrently opened sessions get distinct sids" (List.init n (( + ) 1))
    (List.sort compare (Array.to_list sids));
  let tbl = Hashtbl.create (2 * n * per) in
  Array.iter (fun id -> Hashtbl.replace tbl id ()) own;
  Array.iter (fun id -> Hashtbl.replace tbl id ()) api;
  Alcotest.(check int)
    "every concurrently allocated trace id is unique" (2 * n * per)
    (Hashtbl.length tbl);
  Alcotest.(check (list string))
    "sid-0 rids are gapless"
    (List.init (n * per) (fun k -> Printf.sprintf "s0-r%d" (k + 1)))
    (List.sort
       (fun a b ->
         compare
           (Scanf.sscanf a "s0-r%d" Fun.id)
           (Scanf.sscanf b "s0-r%d" Fun.id))
       (Array.to_list api))

(* --- the event log --- *)

let test_events_ring () =
  let t = Ev.create ~capacity:4 () in
  for i = 1 to 10 do
    Ev.emit t ~kind:"tick" [ ("i", Ev.I i) ]
  done;
  Alcotest.(check int) "total counts every emission" 10 (Ev.total t);
  let es = Ev.entries t in
  Alcotest.(check int) "ring retains capacity entries" 4 (List.length es);
  Alcotest.(check (list int))
    "oldest first, newest retained" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Ev.ev_seq) es)

let test_events_levels () =
  let t = Ev.create ~level:Ev.Warn () in
  Alcotest.(check bool) "debug is off" false (Ev.on t Ev.Debug);
  Alcotest.(check bool) "info is off" false (Ev.on t Ev.Info);
  Alcotest.(check bool) "warn is on" true (Ev.on t Ev.Warn);
  Alcotest.(check bool) "error is on" true (Ev.on t Ev.Error);
  Ev.emit t ~level:Ev.Debug ~kind:"drop" [];
  Ev.emit t ~level:Ev.Info ~kind:"drop" [];
  Ev.emit t ~level:Ev.Error ~kind:"keep" [];
  Alcotest.(check int) "below-threshold events dropped" 1 (Ev.total t);
  match Ev.entries t with
  | [ e ] -> Alcotest.(check string) "kept the error" "keep" e.Ev.ev_kind
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

let test_events_disabled () =
  let t = Ev.create ~enabled:false () in
  Alcotest.(check bool) "disabled log is off at every level" false
    (Ev.on t Ev.Error);
  for _ = 1 to 100 do
    Ev.emit t ~kind:"noise" []
  done;
  Alcotest.(check int) "disabled emit records nothing" 0 (Ev.total t);
  Alcotest.(check (list string)) "no entries" []
    (List.map (fun e -> e.Ev.ev_kind) (Ev.entries t))

let test_events_golden_json () =
  Gpos.Clock.with_fake ~start:5.0 ~step:0.0 (fun () ->
      let t = Ev.create () in
      Ev.emit t ~trace:"s1-r1" ~kind:"unit-test"
        [
          ("s", Ev.S "x\"y");
          ("i", Ev.I 42);
          ("f", Ev.F 1.5);
          ("b", Ev.B true);
        ];
      Ev.emit t ~level:Ev.Warn ~kind:"plain" [];
      match Ev.entries t with
      | [ a; b ] ->
          Alcotest.(check string) "full entry"
            {|{"seq":1,"ts":5.000000,"level":"info","event":"unit-test","trace":"s1-r1","s":"x\"y","i":42,"f":1.5,"b":true}|}
            (Ev.entry_to_json a);
          Alcotest.(check string) "traceless entry"
            {|{"seq":2,"ts":5.000000,"level":"warn","event":"plain"}|}
            (Ev.entry_to_json b);
          Alcotest.(check string) "json lines join them"
            (Ev.entry_to_json a ^ "\n" ^ Ev.entry_to_json b ^ "\n")
            (Ev.to_json_lines t)
      | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es))

let test_events_sink () =
  let path = Filename.temp_file "orca-sre-events" ".jsonl" in
  let t = Ev.create () in
  let oc = open_out path in
  Ev.set_sink t (Some oc);
  Ev.emit t ~kind:"one" [ ("n", Ev.I 1) ];
  Ev.emit t ~kind:"two" [ ("n", Ev.I 2) ];
  Ev.set_sink t None;
  close_out oc;
  Ev.emit t ~kind:"after-detach" [];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  match List.rev !lines with
  | [ l1; l2 ] ->
      let has sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "first event mirrored" true
        (has {|"event":"one"|} l1);
      Alcotest.(check bool) "second event mirrored" true
        (has {|"event":"two"|} l2);
      Alcotest.(check bool) "sink lines are whole JSON objects" true
        (String.length l1 > 0
        && l1.[0] = '{'
        && l1.[String.length l1 - 1] = '}')
  | ls ->
      Alcotest.failf "expected 2 sink lines (detach honored), got %d"
        (List.length ls)

(* --- the SLO monitor --- *)

let close_to = Alcotest.float 1e-9

let test_slo_report () =
  Gpos.Clock.with_fake ~start:0.0 ~step:0.0 (fun () ->
      let t = Slo.create () in
      (* 100 requests: 95 fast+ok, 3 slow+ok, 2 fast+failed *)
      for _ = 1 to 95 do
        Slo.observe t ~ms:10.0 ~ok:true
      done;
      for _ = 1 to 3 do
        Slo.observe t ~ms:500.0 ~ok:true
      done;
      for _ = 1 to 2 do
        Slo.observe t ~ms:10.0 ~ok:false
      done;
      let r = Slo.report t in
      Alcotest.(check int) "requests" 100 r.Slo.r_requests;
      Alcotest.(check int) "errors" 2 r.Slo.r_errors;
      Alcotest.(check int) "good excludes slow and failed" 95 r.Slo.r_good;
      Alcotest.check close_to "availability" 0.98 r.Slo.r_availability;
      Alcotest.check close_to "attainment" 0.95 r.Slo.r_attainment;
      (* bad 5% against a 1% budget; bad 2% against a 0.1% budget *)
      Alcotest.check (Alcotest.float 1e-6) "latency burn" 5.0
        r.Slo.r_latency_burn;
      Alcotest.check (Alcotest.float 1e-6) "availability burn" 20.0
        r.Slo.r_availability_burn;
      Alcotest.(check bool) "latency objective violated" false r.Slo.r_latency_ok;
      Alcotest.(check bool) "unhealthy" false (Slo.healthy r);
      Alcotest.(check bool) "p99 reflects the slow tail" true
        (r.Slo.r_p99_ms > 100.0 && r.Slo.r_p50_ms < 100.0))

let test_slo_empty_window () =
  Gpos.Clock.with_fake (fun () ->
      let r = Slo.report (Slo.create ()) in
      Alcotest.check close_to "availability of silence" 1.0 r.Slo.r_availability;
      Alcotest.check close_to "attainment of silence" 1.0 r.Slo.r_attainment;
      Alcotest.check close_to "no burn" 0.0 r.Slo.r_latency_burn;
      Alcotest.(check bool) "healthy" true (Slo.healthy r))

let tight_objectives =
  {
    Slo.slo_window_s = 2.0;
    slo_intervals = 2;
    slo_latency_ms = 100.0;
    slo_latency_target = 0.99;
    slo_availability_target = 0.999;
  }

let test_slo_rotation () =
  (* 1 s intervals, 2-interval window; the fake clock advances 1 s per
     [Clock.now] call, so every call lands in a fresh interval *)
  Gpos.Clock.with_fake ~start:0.0 ~step:1.0 (fun () ->
      let t = Slo.create ~objectives:tight_objectives () in
      Slo.observe t ~ms:1.0 ~ok:true;
      (* now=1: interval rolls *)
      Slo.observe t ~ms:1.0 ~ok:true;
      (* now=2: rolls again, overwriting the first interval's slot *)
      let r = Slo.report t in
      (* now=3: the report's own rotation ages the first observation out *)
      Alcotest.(check int) "window forgot the aged-out interval" 1
        r.Slo.r_requests)

let test_slo_gap_reset () =
  Gpos.Clock.with_fake ~start:0.0 ~step:10.0 (fun () ->
      let t = Slo.create ~objectives:tight_objectives () in
      Slo.observe t ~ms:1.0 ~ok:true;
      (* the next clock reading is 10 s later: a gap past the whole window
         resets the ring in one step *)
      let r = Slo.report t in
      Alcotest.(check int) "everything aged out across the gap" 0
        r.Slo.r_requests)

let test_slo_json_single_line () =
  Gpos.Clock.with_fake (fun () ->
      let t = Slo.create () in
      Slo.observe t ~ms:1.0 ~ok:true;
      let s = Slo.to_json (Slo.report t) in
      Alcotest.(check bool) "single-line object" true
        (String.length s > 2
        && s.[0] = '{'
        && s.[String.length s - 1] = '}'
        && not (String.contains s '\n'));
      let has sub =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      List.iter
        (fun f -> Alcotest.(check bool) f true (has ("\"" ^ f ^ "\":")))
        [
          "window_s";
          "latency_slo_ms";
          "requests";
          "availability";
          "attainment";
          "p99_ms";
          "latency_burn";
          "availability_burn";
          "latency_ok";
        ])

(* --- readiness --- *)

let base_input =
  {
    H.h_uptime_s = 12.0;
    h_sessions_open = 1;
    h_sessions_total = 3;
    h_requests = 100;
    h_errors = 1;
    h_snapshot_age_s = 5.0;
    h_catalog_version = 0;
    h_stats_version = 2;
    h_cache_entries = 10;
    h_cache_capacity = 256;
    h_slo = None;
  }

let check_of v name =
  match List.find_opt (fun c -> c.H.c_name = name) v.H.checks with
  | Some c -> c
  | None -> Alcotest.failf "no %s check in the verdict" name

let test_health_ready () =
  let v = H.evaluate base_input in
  Alcotest.(check bool) "ready" true v.H.ready;
  Alcotest.(check bool) "error-rate passes" true
    (check_of v "error-rate").H.c_ok;
  Alcotest.(check bool) "occupancy passes" true
    (check_of v "cache-occupancy").H.c_ok;
  (* an idle server (no requests yet) is ready, not 0/0-degraded *)
  let idle = H.evaluate { base_input with H.h_requests = 0; h_errors = 0 } in
  Alcotest.(check bool) "idle server is ready" true idle.H.ready

let test_health_degraded () =
  let errs = H.evaluate { base_input with H.h_errors = 20 } in
  Alcotest.(check bool) "20% errors degrade" false errs.H.ready;
  Alcotest.(check bool) "the error-rate check names the failure" false
    (check_of errs "error-rate").H.c_ok;
  let full = H.evaluate { base_input with H.h_cache_entries = 250 } in
  Alcotest.(check bool) "a near-full cache degrades" false full.H.ready;
  (* the fixed thresholds, at their boundaries *)
  let error_ok errors =
    (check_of (H.evaluate { base_input with H.h_errors = errors }) "error-rate")
      .H.c_ok
  in
  Alcotest.(check bool) "10% errors pass" true (error_ok 10);
  Alcotest.(check bool) "11% errors fail" false (error_ok 11);
  let occupancy_ok entries =
    (check_of
       (H.evaluate
          { base_input with H.h_cache_entries = entries; h_cache_capacity = 100 })
       "cache-occupancy")
      .H.c_ok
  in
  Alcotest.(check bool) "94% occupancy passes" true (occupancy_ok 94);
  Alcotest.(check bool) "95% occupancy fails" false (occupancy_ok 95)

let test_health_slo_checks () =
  Gpos.Clock.with_fake (fun () ->
      let slo = Slo.create () in
      for _ = 1 to 10 do
        Slo.observe slo ~ms:1.0 ~ok:false
      done;
      let v =
        H.evaluate { base_input with H.h_slo = Some (Slo.report slo) }
      in
      Alcotest.(check bool) "violated SLO degrades readiness" false v.H.ready;
      Alcotest.(check bool) "slo-availability check fails" false
        (check_of v "slo-availability").H.c_ok;
      let json = H.to_json base_input (H.evaluate base_input) in
      Alcotest.(check bool) "health JSON is one line" true
        (not (String.contains json '\n') && json.[0] = '{');
      let has sub =
        let n = String.length sub and m = String.length json in
        let rec go i =
          i + n <= m && (String.sub json i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "status rendered" true (has {|"status":"ready"|});
      Alcotest.(check bool) "checks array rendered" true (has {|"checks":[|}))

let suite =
  [
    Alcotest.test_case "trace ids: sessions and requests" `Quick test_trace_ids;
    Alcotest.test_case "trace ids: unique under contention" `Quick
      test_trace_ids_concurrent;
    Alcotest.test_case "event ring: bounded, ordered, counted" `Quick
      test_events_ring;
    Alcotest.test_case "event levels filter" `Quick test_events_levels;
    Alcotest.test_case "disabled event log records nothing" `Quick
      test_events_disabled;
    Alcotest.test_case "event JSON is stable under the fake clock" `Quick
      test_events_golden_json;
    Alcotest.test_case "event sink mirrors and detaches" `Quick
      test_events_sink;
    Alcotest.test_case "slo report: hand-computed burn rates" `Quick
      test_slo_report;
    Alcotest.test_case "slo report: empty window is healthy" `Quick
      test_slo_empty_window;
    Alcotest.test_case "slo window rotation forgets old intervals" `Quick
      test_slo_rotation;
    Alcotest.test_case "slo clock gap resets the window" `Quick
      test_slo_gap_reset;
    Alcotest.test_case "slo JSON is one line with every field" `Quick
      test_slo_json_single_line;
    Alcotest.test_case "health: ready on good vitals" `Quick test_health_ready;
    Alcotest.test_case "health: degraded vitals fail their checks" `Quick
      test_health_degraded;
    Alcotest.test_case "health: SLO verdicts and JSON shape" `Quick
      test_health_slo_checks;
  ]
