(* lib/telemetry: histogram algebra (qcheck), counter saturation, the
   Prometheus/JSON expositions (golden-filed under the deterministic
   clock), the linter, and the
   end-to-end flight recorder (slow-query trigger -> ring entry + AMPERe
   dump embedding the obs trace). *)

open Fixtures

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

module M = Telemetry.Metrics
module E = Telemetry.Expose
module R = Telemetry.Recorder

(* --- histogram algebra (property-based) --- *)

(* random snapshots with a handful of occupied buckets *)
let hsnap_gen : M.hsnap QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_range 0 8) (pair (int_range 0 (M.nbuckets - 1)) (int_range 1 50))
    >|= fun cells ->
    let buckets = Array.make M.nbuckets 0 in
    let count = ref 0 and sum = ref 0.0 in
    List.iter
      (fun (i, c) ->
        buckets.(i) <- buckets.(i) + c;
        count := !count + c;
        sum := !sum +. (float_of_int c *. M.bucket_value i))
      cells;
    { M.hs_count = !count; hs_sum = !sum; hs_buckets = buckets })

let hsnap_arb =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "hsnap{count=%d}" s.M.hs_count)
    hsnap_gen

let hsnap_equal a b =
  a.M.hs_count = b.M.hs_count
  && Float.abs (a.M.hs_sum -. b.M.hs_sum) <= 1e-6 *. (1.0 +. Float.abs a.M.hs_sum)
  && a.M.hs_buckets = b.M.hs_buckets

let prop_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"histogram merge is commutative"
    (QCheck.pair hsnap_arb hsnap_arb)
    (fun (a, b) -> hsnap_equal (M.merge a b) (M.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~count:200 ~name:"histogram merge is associative"
    (QCheck.triple hsnap_arb hsnap_arb hsnap_arb)
    (fun (a, b, c) ->
      hsnap_equal (M.merge (M.merge a b) c) (M.merge a (M.merge b c)))

let prop_quantile_monotone =
  QCheck.Test.make ~count:200 ~name:"quantile is monotone in q"
    (QCheck.pair hsnap_arb (QCheck.pair (QCheck.float_range 0.0 1.0) (QCheck.float_range 0.0 1.0)))
    (fun (s, (q1, q2)) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      M.quantile s lo <= M.quantile s hi)

(* The estimate for the q-quantile must land within one bucket width
   (factor 2^(1/8)) of the exact empirical quantile, for observations
   inside the bucketed range. *)
let prop_quantile_rank_error =
  QCheck.Test.make ~count:100 ~name:"quantile rank-error bound"
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 1 200)
          (QCheck.float_range 0.001 1000.0))
       (QCheck.float_range 0.01 1.0))
    (fun (values, q) ->
      let h = M.histogram (M.create ()) ~help:"t" "t" in
      List.iter (M.observe h) values;
      let est = M.quantile (M.hsnap h) q in
      let sorted = List.sort compare values in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let exact = List.nth sorted (rank - 1) in
      let gamma = Float.pow 2.0 (1.0 /. 8.0) in
      est >= exact /. gamma && est <= exact *. gamma)

let test_counter_saturation () =
  let c = M.counter (M.create ()) ~help:"t" "t" in
  M.add c (max_int - 1);
  M.inc c;
  Alcotest.(check int) "pinned at max_int" max_int (M.counter_value c);
  M.inc c;
  Alcotest.(check int) "no wraparound" max_int (M.counter_value c);
  M.add c max_int;
  Alcotest.(check int) "saturating add" max_int (M.counter_value c);
  M.add c (-5);
  Alcotest.(check int) "negative delta ignored" max_int (M.counter_value c)

let test_observe_edge_cases () =
  let h = M.histogram (M.create ()) ~help:"t" "t" in
  M.observe h Float.nan;
  Alcotest.(check int) "NaN dropped" 0 (M.hsnap h).M.hs_count;
  M.observe h (-3.0);
  let s = M.hsnap h in
  Alcotest.(check int) "negative clamps to bucket 0" 1 s.M.hs_buckets.(0);
  Alcotest.(check (float 1e-9)) "negative clamps sum to 0" 0.0 s.M.hs_sum

(* --- registry semantics --- *)

let test_registry () =
  let reg = M.create () in
  let c1 = M.counter reg ~help:"a counter" "c" in
  let c2 = M.counter reg ~help:"a counter" "c" in
  M.inc c1;
  Alcotest.(check int) "idempotent registration" 1 (M.counter_value c2);
  (* same name, different labels: a distinct series *)
  let c3 = M.counter reg ~labels:[ ("k", "v") ] ~help:"a counter" "c" in
  Alcotest.(check int) "labelled series separate" 0 (M.counter_value c3);
  Alcotest.check_raises "kind mismatch raises"
    (Gpos.Gpos_error.Error
       ( Gpos.Gpos_error.Internal,
         "telemetry: c re-registered with a different kind" ))
    (fun () -> ignore (M.gauge reg ~help:"a gauge" "c"));
  M.reset reg;
  Alcotest.(check int) "reset zeroes in place" 0 (M.counter_value c1);
  M.inc c1;
  Alcotest.(check int) "handles survive reset" 1 (M.counter_value c1)

let test_fingerprint () =
  let fp = M.fingerprint in
  Alcotest.(check string)
    "literals and case normalized"
    (fp "SELECT a FROM t WHERE b = 42")
    (fp "select A from T where B = 99");
  Alcotest.(check bool)
    "different shapes differ" false
    (fp "SELECT a FROM t" = fp "SELECT a, b FROM t");
  Alcotest.(check int) "16 hex chars" 16 (String.length (fp "SELECT 1"))

(* --- expositions, golden-filed under the deterministic clock --- *)

(* Each Clock.now call advances the fake clock by 1: the counter/gauge/
   histogram registrations make no clock calls, the snapshot reads once
   (ts=0) and the recorder entry reads once (ts=1 on a second snapshot's
   clock; here the entry is recorded first so e_ts=0 and snap_ts=1). *)
let golden_setup () =
  let reg = M.create () in
  let c = M.counter reg ~help:"Queries optimized." "t_queries_total" in
  M.add c 3;
  let g = M.gauge reg ~help:"Peak heap (MB)." "t_heap_mb" in
  M.set g 12.5;
  let h =
    M.histogram reg ~labels:[ ("phase", "search") ] ~help:"Phase time (ms)."
      "t_phase_ms"
  in
  M.observe h 0.5;
  M.observe h 0.5;
  M.observe h 100.0;
  reg

let golden_json =
  "{\"telemetry\":\"orca\",\"ts\":1,\n\
  \ \"metrics\":[\n\
  \  {\"name\":\"t_heap_mb\",\"labels\":{},\"type\":\"gauge\",\"value\":12.5},\n\
  \  {\"name\":\"t_phase_ms\",\"labels\":{\"phase\":\"search\"},\"type\":\"histogram\",\"count\":3,\"sum\":101,\"p50\":0.49029288,\"p95\":96.7852783,\"p99\":96.7852783,\"buckets\":[[0.512,2],[101.070329,1]]},\n\
  \  {\"name\":\"t_queries_total\",\"labels\":{},\"type\":\"counter\",\"value\":3}\n\
  \ ],\n\
  \ \"flight\":[\n\
  \  {\"seq\":1,\"ts\":0,\"label\":\"q1\",\"fingerprint\":\"deadbeef00000000\",\"ms\":42.5,\"groups\":10,\"gexprs\":40,\"cost\":123.25,\"status\":\"slow\",\"phases\":[[\"search\",40],[\"preprocess\",2]],\"dump\":\"d.xml\"}\n\
  \ ]}\n"

let test_json_golden () =
  Gpos.Clock.with_fake ~start:0.0 ~step:1.0 (fun () ->
      let reg = golden_setup () in
      let rec_ = R.create () in
      let entry =
        R.record ~recorder:rec_ ~label:"q1" ~fingerprint:"deadbeef00000000"
          ~ms:42.5 ~groups:10 ~gexprs:40 ~cost:123.25
          ~phases:[ ("search", 40.0); ("preprocess", 2.0) ]
          ~status:R.Slow ~dump:"d.xml" ()
      in
      ignore entry;
      let json =
        E.to_json ~flight:(R.entries ~recorder:rec_ ()) (M.snapshot reg)
      in
      Alcotest.(check string) "golden JSON snapshot" golden_json json)

let test_prometheus_golden_and_lint () =
  let reg = golden_setup () in
  let prom = E.to_prometheus (M.snapshot reg) in
  Alcotest.(check (list string)) "lint clean" [] (E.lint_prometheus prom);
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("contains " ^ affix) true (contains ~affix prom))
    [
      "# TYPE t_queries_total counter";
      "t_queries_total 3";
      "# TYPE t_heap_mb gauge";
      "t_heap_mb 12.5";
      "# TYPE t_phase_ms histogram";
      "t_phase_ms_bucket{phase=\"search\",le=\"+Inf\"} 3";
      "t_phase_ms_sum{phase=\"search\"} 101";
      "t_phase_ms_count{phase=\"search\"} 3";
    ]

let test_lint_catches_errors () =
  let problems s = E.lint_prometheus s in
  Alcotest.(check bool) "sample without TYPE" true
    (problems "foo_total 3\n" <> []);
  Alcotest.(check bool) "bad metric name" true
    (problems "# TYPE 9bad counter\n9bad 1\n" <> []);
  Alcotest.(check bool) "negative counter" true
    (problems "# TYPE a_total counter\na_total -1\n" <> []);
  Alcotest.(check bool) "duplicate series" true
    (problems "# TYPE a counter\na 1\na 2\n" <> []);
  Alcotest.(check bool) "non-cumulative buckets" true
    (problems
       "# TYPE h histogram\n\
        h_bucket{le=\"1\"} 5\n\
        h_bucket{le=\"2\"} 3\n\
        h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"
    <> []);
  Alcotest.(check bool) "+Inf disagrees with _count" true
    (problems
       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n"
    <> []);
  Alcotest.(check bool) "missing trailing newline" true
    (problems "# TYPE a counter\na 1" <> [])

(* --- the recorder ring --- *)

let test_recorder_ring () =
  let r = R.create ~capacity:4 () in
  for i = 1 to 6 do
    ignore
      (R.record ~recorder:r ~label:(Printf.sprintf "q%d" i) ~fingerprint:"f"
         ~ms:(float_of_int i) ~groups:1 ~gexprs:1 ~cost:1.0 ~phases:[]
         ~status:R.Ok ())
  done;
  Alcotest.(check int) "total counts everything" 6 (R.total ~recorder:r ());
  let es = R.entries ~recorder:r () in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length es);
  Alcotest.(check (list string))
    "oldest evicted, oldest-first order" [ "q3"; "q4"; "q5"; "q6" ]
    (List.map (fun e -> e.R.e_label) es);
  Alcotest.(check (list int))
    "seq monotone" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.R.e_seq) es);
  Alcotest.(check (list (pair string (float 1e-9))))
    "top_phases takes the largest 3"
    [ ("c", 9.0); ("a", 5.0); ("d", 2.0) ]
    (R.top_phases [ ("a", 5.0); ("b", 1.0); ("c", 9.0); ("d", 2.0) ])

(* --- the flight recorder end to end --- *)

let flight_dir =
  lazy
    (let dir = Filename.concat (Filename.get_temp_dir_name ()) "orca-flight-test" in
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     dir)

let test_flight_slow_trigger () =
  let dir = Lazy.force flight_dir in
  R.clear ();
  R.configure ~slow_ms:(Some 0.0) ~dump_dir:(Some dir) ();
  Fun.protect
    ~finally:(fun () -> R.configure ~slow_ms:None ~dump_dir:None ())
    (fun () ->
      let accessor = small_accessor () in
      let sql = "SELECT t1.a, count(*) AS c FROM t1, t2 WHERE t1.a = t2.b GROUP BY t1.a" in
      let query = Sqlfront.Binder.bind_sql accessor sql in
      let report =
        Orca.Flight.optimize
          ~config:(Lazy.force orca_config)
          ~label:"flight-test" ~make_accessor:small_accessor query
      in
      (* every query is over a 0ms threshold: ring entry marked slow *)
      let entry =
        match List.rev (R.entries ()) with
        | e :: _ -> e
        | [] -> Alcotest.fail "no flight entry recorded"
      in
      Alcotest.(check string) "status" "slow" (R.status_string entry.R.e_status);
      Alcotest.(check string) "label" "flight-test" entry.R.e_label;
      Alcotest.(check bool) "phases recorded" true (entry.R.e_phases <> []);
      Alcotest.(check (float 1e-6))
        "cost matches the report" report.Orca.Optimizer.plan.Ir.Expr.pcost
        entry.R.e_cost;
      (* ... and an AMPERe dump was emitted, embedding the obs trace of the
         re-run plus the trigger reason *)
      let dump =
        match entry.R.e_dump with
        | Some d -> d
        | None -> Alcotest.fail "no AMPERe dump path in the flight entry"
      in
      Alcotest.(check bool) "dump file exists" true (Sys.file_exists dump);
      let ic = open_in_bin dump in
      let xml = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.iter
        (fun affix ->
          Alcotest.(check bool) ("dump contains " ^ affix) true (contains ~affix xml))
        [ "dxl:ObsTrace"; "dxl:Plan"; "flight-reason"; "slow" ];
      (* the dump doubles as a regression case: replay reproduces the plan *)
      let d = Orca.Ampere.load dump in
      match Orca.Ampere.verify ~config:(Lazy.force orca_config) d with
      | Orca.Ampere.Replay_match -> ()
      | Orca.Ampere.Replay_plan_diff m -> Alcotest.fail ("replay diff: " ^ m)
      | Orca.Ampere.Replay_failed m -> Alcotest.fail ("replay failed: " ^ m))

let test_flight_ok_entry () =
  R.clear ();
  (* threshold disabled: the query still lands in the ring, status ok,
     and no dump is attempted *)
  let accessor = small_accessor () in
  let query = Sqlfront.Binder.bind_sql accessor "SELECT t1.a FROM t1" in
  let _report =
    Orca.Flight.optimize
      ~config:(Lazy.force orca_config)
      ~label:"ok-test" ~make_accessor:small_accessor query
  in
  match List.rev (R.entries ()) with
  | e :: _ ->
      Alcotest.(check string) "status" "ok" (R.status_string e.R.e_status);
      Alcotest.(check bool) "no dump" true (e.R.e_dump = None)
  | [] -> Alcotest.fail "no flight entry recorded"

(* Concurrent slow misses of one shape (server sessions run
   Flight.optimize without a lock): each gets its own ring number, and its
   dump is named after exactly that number, so no dump overwrites another. *)
let test_flight_concurrent_dumps () =
  let dir = Filename.temp_file "orca-flight-race" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  R.clear ();
  R.configure ~slow_ms:(Some 0.0) ~dump_dir:(Some dir) ();
  Fun.protect
    ~finally:(fun () ->
      R.configure ~slow_ms:None ~dump_dir:None ();
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let sql = "SELECT t1.a, count(*) AS c FROM t1, t2 WHERE t1.a = t2.b GROUP BY t1.a" in
      let run i =
        let accessor = small_accessor () in
        let query = Sqlfront.Binder.bind_sql accessor sql in
        ignore
          (Orca.Flight.optimize
             ~config:(Lazy.force orca_config)
             ~label:(Printf.sprintf "race-%d" i) ~make_accessor:small_accessor
             query)
      in
      let n = 4 in
      List.init n (fun i -> Thread.create run i) |> List.iter Thread.join;
      let es = R.entries () in
      Alcotest.(check int) "one entry per query" n (List.length es);
      Alcotest.(check int) "one dump file per query" n (Array.length (Sys.readdir dir));
      List.iter
        (fun e ->
          Alcotest.(check (option string))
            (e.R.e_label ^ " dump names its own seq")
            (Some (Orca.Flight.dump_path ~dir ~fingerprint:e.R.e_fingerprint ~seq:e.R.e_seq))
            e.R.e_dump)
        es)

(* optimizing under the default config populates the standard metrics *)
let test_std_instrumentation () =
  let before = M.counter_value Telemetry.Std.queries in
  let accessor = small_accessor () in
  let query = Sqlfront.Binder.bind_sql accessor "SELECT t1.a FROM t1" in
  let _ = Orca.Optimizer.optimize ~config:(Lazy.force orca_config) accessor query in
  Alcotest.(check int)
    "orca_queries_total incremented" (before + 1)
    (M.counter_value Telemetry.Std.queries);
  let snap = M.snapshot M.default in
  let prom = E.to_prometheus snap in
  Alcotest.(check (list string))
    "default registry exposition lints clean" [] (E.lint_prometheus prom);
  Alcotest.(check bool) "memo metrics populated" true
    (contains ~affix:"orca_memo_groups_total" prom)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
    QCheck_alcotest.to_alcotest prop_quantile_rank_error;
    Alcotest.test_case "counter saturation" `Quick test_counter_saturation;
    Alcotest.test_case "observe edge cases" `Quick test_observe_edge_cases;
    Alcotest.test_case "registry semantics" `Quick test_registry;
    Alcotest.test_case "query fingerprint" `Quick test_fingerprint;
    Alcotest.test_case "JSON snapshot golden" `Quick test_json_golden;
    Alcotest.test_case "prometheus exposition + lint" `Quick
      test_prometheus_golden_and_lint;
    Alcotest.test_case "lint catches seeded errors" `Quick
      test_lint_catches_errors;
    Alcotest.test_case "recorder ring" `Quick test_recorder_ring;
    Alcotest.test_case "flight recorder slow trigger" `Quick
      test_flight_slow_trigger;
    Alcotest.test_case "flight recorder ok entry" `Quick test_flight_ok_entry;
    Alcotest.test_case "flight dumps of concurrent misses" `Quick
      test_flight_concurrent_dumps;
    Alcotest.test_case "std instrumentation" `Quick test_std_instrumentation;
  ]
