(* Tests for the GPOS substrate: PRNG determinism, the job scheduler
   (dependencies, re-entrancy, goal queues, parallel execution, failures),
   the JSON codec and the bounded ring. *)

let test_prng_deterministic () =
  let a = Gpos.Prng.create 42 and b = Gpos.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Gpos.Prng.int a 1000) (Gpos.Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Gpos.Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Gpos.Prng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13);
    let f = Gpos.Prng.float rng in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_prng_split_independent () =
  let rng = Gpos.Prng.create 1 in
  let a = Gpos.Prng.split rng "a" and b = Gpos.Prng.split rng "b" in
  let va = List.init 10 (fun _ -> Gpos.Prng.int a 1000) in
  let vb = List.init 10 (fun _ -> Gpos.Prng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (va <> vb)

let test_prng_zipf_skew () =
  let rng = Gpos.Prng.create 5 in
  let counts = Array.make 10 0 in
  for _ = 1 to 5000 do
    let v = Gpos.Prng.zipf rng ~n:10 ~theta:1.0 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(5))

let test_scheduler_sequential () =
  let sched = Gpos.Scheduler.create () in
  let log = ref [] in
  let leaf name () =
    log := name :: !log;
    Gpos.Scheduler.Finished
  in
  let root =
    let stage = ref 0 in
    fun () ->
      incr stage;
      match !stage with
      | 1 ->
          Gpos.Scheduler.Wait_for
            [
              { Gpos.Scheduler.run = leaf "a"; goal = None };
              { Gpos.Scheduler.run = leaf "b"; goal = None };
            ]
      | _ ->
          log := "root" :: !log;
          Gpos.Scheduler.Finished
  in
  Gpos.Scheduler.run sched root;
  (* parent resumes only after both children *)
  Alcotest.(check (list string)) "order" [ "root"; "b"; "a" ] !log

let test_scheduler_deep_dependencies () =
  let sched = Gpos.Scheduler.create () in
  let counter = ref 0 in
  (* chain of depth 50: each job spawns one child then increments *)
  let rec make depth =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 && depth > 0 then
        Gpos.Scheduler.Wait_for
          [ { Gpos.Scheduler.run = make (depth - 1); goal = None } ]
      else begin
        incr counter;
        Gpos.Scheduler.Finished
      end
  in
  Gpos.Scheduler.run sched (make 50);
  Alcotest.(check int) "all ran" 51 !counter

let test_scheduler_goal_dedup () =
  let sched = Gpos.Scheduler.create () in
  let expensive_runs = ref 0 in
  let expensive () =
    incr expensive_runs;
    Gpos.Scheduler.Finished
  in
  let root =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then
        Gpos.Scheduler.Wait_for
          (List.init 10 (fun _ ->
               { Gpos.Scheduler.run = expensive; goal = Some "shared-goal" }))
      else Gpos.Scheduler.Finished
  in
  Gpos.Scheduler.run sched root;
  Alcotest.(check int) "goal ran once" 1 !expensive_runs;
  Alcotest.(check int) "nine absorbed" 9
    (Gpos.Scheduler.profile sched).Gpos.Scheduler.p_goal_hits

let test_scheduler_exception () =
  let sched = Gpos.Scheduler.create () in
  let boom () = failwith "boom" in
  let root =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then
        Gpos.Scheduler.Wait_for [ { Gpos.Scheduler.run = boom; goal = None } ]
      else Gpos.Scheduler.Finished
  in
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      Gpos.Scheduler.run sched root);
  (* the scheduler is reusable after a failure *)
  let ok = ref false in
  Gpos.Scheduler.run sched (fun () ->
      ok := true;
      Gpos.Scheduler.Finished);
  Alcotest.(check bool) "reusable" true !ok

let test_scheduler_parallel () =
  let sched = Gpos.Scheduler.create ~workers:4 () in
  let total = 200 in
  let counter = Atomic.make 0 in
  let work () =
    Atomic.incr counter;
    Gpos.Scheduler.Finished
  in
  let root =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then
        Gpos.Scheduler.Wait_for
          (List.init total (fun _ -> { Gpos.Scheduler.run = work; goal = None }))
      else Gpos.Scheduler.Finished
  in
  Gpos.Scheduler.run sched root;
  Alcotest.(check int) "all parallel jobs ran" total (Atomic.get counter)

(* --- goal-queue edge cases (workers = 1) --- *)

let test_goal_already_finished () =
  (* a child spawned with a goal that already finished earlier in the run is
     absorbed immediately instead of re-running the work *)
  let sched = Gpos.Scheduler.create () in
  let runs = ref 0 in
  let work () =
    incr runs;
    Gpos.Scheduler.Finished
  in
  let root =
    let stage = ref 0 in
    fun () ->
      incr stage;
      match !stage with
      | 1 | 2 ->
          Gpos.Scheduler.Wait_for
            [ { Gpos.Scheduler.run = work; goal = Some "g" } ]
      | _ -> Gpos.Scheduler.Finished
  in
  Gpos.Scheduler.run sched root;
  Alcotest.(check int) "work ran once" 1 !runs;
  Alcotest.(check int) "second child absorbed" 1
    (Gpos.Scheduler.profile sched).Gpos.Scheduler.p_goal_hits

let test_nested_same_goal () =
  (* a job holding a goal spawns a child with the same goal: parking the
     parent on its own goal queue would deadlock (the goal finishes only
     after the parent's subtree does), so the child must be absorbed and
     resolved against the ancestor instead *)
  let sched = Gpos.Scheduler.create () in
  let inner_runs = ref 0 in
  let outer =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then
        Gpos.Scheduler.Wait_for
          [
            {
              Gpos.Scheduler.run =
                (fun () ->
                  incr inner_runs;
                  Gpos.Scheduler.Finished);
              goal = Some "g";
            };
          ]
      else Gpos.Scheduler.Finished
  in
  let root =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then
        Gpos.Scheduler.Wait_for
          [ { Gpos.Scheduler.run = outer; goal = Some "g" } ]
      else Gpos.Scheduler.Finished
  in
  Gpos.Scheduler.run sched root;
  (* termination IS the test; the nested child is covered by the ancestor *)
  Alcotest.(check int) "inner absorbed into ancestor goal" 0 !inner_runs

let test_wait_for_empty_reruns () =
  (* Wait_for [] means "re-run me": the job must be re-enqueued, and the
     run must terminate once it finally finishes *)
  let sched = Gpos.Scheduler.create () in
  let n = ref 0 in
  let job () =
    incr n;
    if !n < 5 then Gpos.Scheduler.Wait_for [] else Gpos.Scheduler.Finished
  in
  Gpos.Scheduler.run sched job;
  Alcotest.(check int) "re-ran until finished" 5 !n

let test_failure_clears_goal_table () =
  (* a failing run abandons a parent parked on a goal queue; the goal table
     must be cleared so a later run reusing the same goal key cannot be
     absorbed into the dead entry and wedge forever *)
  let sched = Gpos.Scheduler.create () in
  let holder =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then
        Gpos.Scheduler.Wait_for
          [ { Gpos.Scheduler.run = (fun () -> failwith "boom"); goal = None } ]
      else Gpos.Scheduler.Finished
  in
  let parker =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then
        Gpos.Scheduler.Wait_for
          [
            {
              Gpos.Scheduler.run = (fun () -> Gpos.Scheduler.Finished);
              goal = Some "g";
            };
          ]
      else Gpos.Scheduler.Finished
  in
  let root =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then
        Gpos.Scheduler.Wait_for
          [
            { Gpos.Scheduler.run = holder; goal = Some "g" };
            { Gpos.Scheduler.run = parker; goal = None };
          ]
      else Gpos.Scheduler.Finished
  in
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      Gpos.Scheduler.run sched root);
  let ran = ref false in
  let reuse =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then
        Gpos.Scheduler.Wait_for
          [
            {
              Gpos.Scheduler.run =
                (fun () ->
                  ran := true;
                  Gpos.Scheduler.Finished);
              goal = Some "g";
            };
          ]
      else Gpos.Scheduler.Finished
  in
  Gpos.Scheduler.run sched reuse;
  Alcotest.(check bool) "goal key usable after failed run" true !ran

let test_fuzz_deterministic () =
  (* same fuzz seed -> same schedule; the fuzzer is reproducible *)
  let order seed =
    let sched = Gpos.Scheduler.create ~fuzz:(Gpos.Prng.create seed) () in
    let log = ref [] in
    let leaf i () =
      log := i :: !log;
      Gpos.Scheduler.Finished
    in
    let root =
      let stage = ref 0 in
      fun () ->
        incr stage;
        if !stage = 1 then
          Gpos.Scheduler.Wait_for
            (List.init 8 (fun i ->
                 { Gpos.Scheduler.run = leaf i; goal = None }))
        else Gpos.Scheduler.Finished
    in
    Gpos.Scheduler.run sched root;
    List.rev !log
  in
  Alcotest.(check (list int)) "seed 7 reproducible" (order 7) (order 7);
  Alcotest.(check (list int)) "seed 8 reproducible" (order 8) (order 8)

let test_run_root () =
  let sched = Gpos.Scheduler.create () in
  let result = Gpos.Scheduler.run_root sched (fun store -> store 42) in
  Alcotest.(check (option int)) "result" (Some 42) result

let test_clock () =
  let _, ms = Gpos.Clock.time (fun () -> Sys.opaque_identity (List.init 100 Fun.id)) in
  Alcotest.(check bool) "non-negative" true (ms >= 0.0)

(* --- JSON codec --- *)

module J = Gpos.Json

let json_t =
  Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (J.to_string v)) ( = )

let tricky =
  J.Obj
    [
      ("quote\"key", J.Str "say \"hi\"");
      ("backslash", J.Str "C:\\dir\\");
      ("controls", J.Str "\000\001\031\b\012 end");
      ("whitespace", J.Str "cr\r lf\n tab\t");
      ("non-ascii", J.Str "caf\xc3\xa9 \xff\xfe raw");
      ("nums", J.Arr [ J.Num "0"; J.Num "-12.5e+3"; J.Num "1E-7"; J.int 42 ]);
      ("nested", J.Arr [ J.Obj []; J.Arr []; J.Null; J.Bool true; J.Bool false ]);
    ]

let test_json_round_trip () =
  Alcotest.(check (result json_t string))
    "compact" (Ok tricky) (J.of_string (J.to_string tricky));
  Alcotest.(check (result json_t string))
    "pretty" (Ok tricky) (J.of_string (J.pretty tricky))

let prop_json_string_round_trip =
  QCheck.Test.make ~count:500 ~name:"json string round trip (random bytes)"
    QCheck.string (fun s -> J.of_string (J.to_string (J.Str s)) = Ok (J.Str s))

let test_json_rejects () =
  List.iter
    (fun bad ->
      match J.of_string bad with
      | Ok v -> Alcotest.failf "accepted %S as %s" bad (J.to_string v)
      | Error _ -> ())
    [
      ""; "  "; "txyz"; "tru"; "nul"; "fals"; "truex"; "[1,2"; "{\"a\":1";
      "\"abc"; "\"abc\\"; "1 2"; "{} x"; "[1]]"; "[1,]"; "{\"a\" 1}";
      "{a:1}"; "01"; "1."; ".5"; "-"; "1e"; "+1"; "NaN"; "Infinity";
      "\"\\x\""; "\"\\u12\""; "\"\\u12g4\""; "\"a\nb\""; "\"\\ud800\"";
      "\"\\udc00\"";
    ]

let test_json_unicode_escapes () =
  let str s = Ok (J.Str s) in
  Alcotest.(check (result json_t string))
    "\\u00e9 is UTF-8 e-acute" (str "\xc3\xa9") (J.of_string {|"\u00e9"|});
  Alcotest.(check (result json_t string))
    "ASCII escape" (str "A/") (J.of_string {|"\u0041\/"|});
  Alcotest.(check (result json_t string))
    "surrogate pair" (str "\xf0\x9f\x98\x80") (J.of_string {|"\ud83d\ude00"|})

(* --- bounded ring --- *)

(* A writer that claimed early and stores late must not evict the newer
   entry now occupying its slot. *)
let test_ring_late_store () =
  let r = Gpos.Ring.create 2 in
  let early = Gpos.Ring.claim r in
  List.iter
    (fun v ->
      let seq = Gpos.Ring.claim r in
      Gpos.Ring.store r seq v)
    [ "b"; "c" ];
  Gpos.Ring.store r early "a";
  Alcotest.(check (list string)) "newest kept" [ "b"; "c" ] (Gpos.Ring.to_list r);
  Alcotest.(check int) "total" 3 (Gpos.Ring.total r)

(* --- job boundaries hand over the runtime lock --- *)

(* While a run keeps the CPU busy, another thread of the domain that wants
   the runtime lock gets it at a job boundary within about one 1 ms slice,
   not at the runtime's 50 ms tick: twenty 1 ms sleeps take far less than
   twenty ticks would. *)
let test_scheduler_preempts_busy_run () =
  let stop = Atomic.make false and slept = ref infinity in
  let sleeper =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to 20 do
          Thread.delay 0.001
        done;
        slept := Unix.gettimeofday () -. t0;
        Atomic.set stop true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let busy () =
    let x = ref 0 in
    for i = 1 to 2_000 do
      x := !x + i
    done;
    ignore (Sys.opaque_identity !x);
    if Atomic.get stop || Unix.gettimeofday () > deadline then Gpos.Scheduler.Finished
    else Gpos.Scheduler.Wait_for []
  in
  Gpos.Scheduler.run (Gpos.Scheduler.create ()) busy;
  Thread.join sleeper;
  if !slept > 0.5 then Alcotest.failf "twenty 1 ms sleeps took %.3f s beside a busy run" !slept

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng zipf skew" `Quick test_prng_zipf_skew;
    Alcotest.test_case "scheduler order" `Quick test_scheduler_sequential;
    Alcotest.test_case "scheduler deep chain" `Quick test_scheduler_deep_dependencies;
    Alcotest.test_case "scheduler goal dedup" `Quick test_scheduler_goal_dedup;
    Alcotest.test_case "scheduler exception" `Quick test_scheduler_exception;
    Alcotest.test_case "scheduler parallel" `Quick test_scheduler_parallel;
    Alcotest.test_case "goal already finished" `Quick test_goal_already_finished;
    Alcotest.test_case "nested same goal" `Quick test_nested_same_goal;
    Alcotest.test_case "Wait_for [] re-runs" `Quick test_wait_for_empty_reruns;
    Alcotest.test_case "failure clears goal table" `Quick
      test_failure_clears_goal_table;
    Alcotest.test_case "fuzz deterministic" `Quick test_fuzz_deterministic;
    Alcotest.test_case "run_root" `Quick test_run_root;
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "json print/parse round trip" `Quick test_json_round_trip;
    QCheck_alcotest.to_alcotest prop_json_string_round_trip;
    Alcotest.test_case "json parser is strict" `Quick test_json_rejects;
    Alcotest.test_case "json unicode escapes decode" `Quick test_json_unicode_escapes;
    Alcotest.test_case "ring late store keeps newer" `Quick test_ring_late_store;
    Alcotest.test_case "scheduler preempts a busy run" `Quick test_scheduler_preempts_busy_run;
  ]
