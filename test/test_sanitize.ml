(* Tests for the concurrency sanitizer (lib/sanitize): trace recording, the
   structural race detector, the wait-for-graph deadlock analyzer, the
   injected-bug fixtures, and schedule fuzzing on the real optimizer. *)

module Sch = Gpos.Scheduler
module Tr = Gpos.Trace
module San = Sanitize.Sanitizer
module D = Verify.Diagnostic

let access obj write = Tr.emit (Tr.Access { obj; write })

let with_lock name f =
  Tr.emit (Tr.Lock_acquired { lock = name });
  f ();
  Tr.emit (Tr.Lock_released { lock = name })

let rules ds = List.map (fun (d : D.t) -> d.D.rule) ds
let has_rule r ds = List.mem r (rules ds)

let errors_of ds = D.errors ds

(* A root that spawns [children] once, then runs [after] on its re-run. *)
let once_then ?(after = fun () -> ()) children =
  let stage = ref 0 in
  fun () ->
    incr stage;
    if !stage = 1 then Sch.Wait_for children
    else begin
      after ();
      Sch.Finished
    end

let leaf body () =
  body ();
  Sch.Finished

(* --- race detector on real scheduler traces --- *)

let test_spawn_edge_no_race () =
  (* parent writes before spawning readers: ordered by the spawn edge *)
  let sched = Sch.create () in
  let root =
    let stage = ref 0 in
    fun () ->
      incr stage;
      if !stage = 1 then begin
        access "cfg" true;
        Sch.Wait_for
          (List.init 3 (fun _ ->
               { Sch.run = leaf (fun () -> access "cfg" false); goal = None }))
      end
      else Sch.Finished
  in
  let _, diags = San.check (fun () -> Sch.run sched root) in
  Alcotest.(check (list string)) "no findings" [] (rules (errors_of diags))

let test_join_edge_no_race () =
  (* children write, parent reads after they all complete: join edges *)
  let sched = Sch.create () in
  let _, diags =
    San.check (fun () ->
        Sch.run sched
          (once_then
             ~after:(fun () -> access "result" false)
             (List.init 3 (fun i ->
                  {
                    Sch.run = leaf (fun () -> access (Printf.sprintf "r%d" i) true);
                    goal = None;
                  }))))
  in
  Alcotest.(check (list string)) "no findings" [] (rules (errors_of diags))

let test_sibling_write_race () =
  (* the injected-bug fixture: an unguarded Memo-style mutation made by two
     sibling jobs. The recorded schedule is sequential (workers = 1), but
     the structural happens-before graph leaves the siblings unordered, so
     the race must still be caught. *)
  let sched = Sch.create () in
  let _, diags =
    San.check (fun () ->
        Sch.run sched
          (once_then
             (List.init 2 (fun _ ->
                  {
                    Sch.run = leaf (fun () -> access "ctx:fixture.best" true);
                    goal = None;
                  }))))
  in
  Alcotest.(check bool) "data race detected" true
    (has_rule "sanitize/data-race" (errors_of diags))

let test_lock_suppresses_race () =
  (* same unordered siblings, but both accesses hold the same lock *)
  let sched = Sch.create () in
  let _, diags =
    San.check (fun () ->
        Sch.run sched
          (once_then
             (List.init 2 (fun _ ->
                  {
                    Sch.run =
                      leaf (fun () ->
                          with_lock "memo" (fun () -> access "shared" true));
                    goal = None;
                  }))))
  in
  Alcotest.(check (list string)) "no findings" [] (rules (errors_of diags))

let test_goal_release_orders () =
  (* holder writes, a parked parent reads after the goal is released: the
     goal-queue edge orders them, no lock needed *)
  let sched = Sch.create () in
  let holder =
    once_then
      ~after:(fun () -> access "y" true)
      [ { Sch.run = leaf (fun () -> ()); goal = None } ]
  in
  let parker =
    once_then
      ~after:(fun () -> access "y" false)
      [ { Sch.run = leaf (fun () -> ()); goal = Some "g" } ]
  in
  let _, diags =
    San.check (fun () ->
        Sch.run sched
          (once_then
             [
               { Sch.run = holder; goal = Some "g" };
               { Sch.run = parker; goal = None };
             ]))
  in
  Alcotest.(check (list string)) "no findings" [] (rules (errors_of diags))

let test_lock_inversion_warning () =
  let sched = Sch.create () in
  let _, diags =
    San.check (fun () ->
        Sch.run sched
          (once_then
             [
               {
                 Sch.run =
                   leaf (fun () ->
                       Tr.emit (Tr.Lock_acquired { lock = "a" });
                       Tr.emit (Tr.Lock_acquired { lock = "b" });
                       Tr.emit (Tr.Lock_released { lock = "b" });
                       Tr.emit (Tr.Lock_released { lock = "a" }));
                 goal = None;
               };
               {
                 Sch.run =
                   leaf (fun () ->
                       Tr.emit (Tr.Lock_acquired { lock = "b" });
                       Tr.emit (Tr.Lock_acquired { lock = "a" });
                       Tr.emit (Tr.Lock_released { lock = "a" });
                       Tr.emit (Tr.Lock_released { lock = "b" }));
                 goal = None;
               };
             ]))
  in
  Alcotest.(check bool) "inversion flagged" true
    (has_rule "sanitize/lock-inversion" diags)

(* --- deadlock analyzer on synthetic traces --- *)

let entries evs =
  List.mapi
    (fun i ev -> { Sanitize.Trace_log.seq = i; domain = 0; running = None; ev })
    evs

let test_synthetic_goal_cycle () =
  (* jobs 1 and 2 hold goals a and b and each park on the other's goal: the
     classic goal-queue cycle (must be flagged; a live scheduler would
     simply hang on it, hence the synthetic fixture) *)
  let trace =
    entries
      [
        Tr.Job_created { jid = 1; parent = None; goal = Some "a" };
        Tr.Goal_acquired { goal = "a"; jid = 1 };
        Tr.Job_created { jid = 2; parent = None; goal = Some "b" };
        Tr.Goal_acquired { goal = "b"; jid = 2 };
        Tr.Job_start { jid = 1 };
        Tr.Job_created { jid = 3; parent = Some 1; goal = Some "b" };
        Tr.Goal_absorbed { goal = "b"; parent = 1; child = 3; finished = false };
        Tr.Job_suspended { jid = 1; children = [] };
        Tr.Job_start { jid = 2 };
        Tr.Job_created { jid = 4; parent = Some 2; goal = Some "a" };
        Tr.Goal_absorbed { goal = "a"; parent = 2; child = 4; finished = false };
        Tr.Job_suspended { jid = 2; children = [] };
      ]
  in
  let diags = San.analyze trace in
  Alcotest.(check bool) "cycle flagged" true
    (has_rule "sanitize/goal-cycle" (errors_of diags))

let test_synthetic_lost_waiter () =
  (* job 2 parks on goal a; the holder finishes without ever releasing it *)
  let trace =
    entries
      [
        Tr.Job_created { jid = 1; parent = None; goal = Some "a" };
        Tr.Goal_acquired { goal = "a"; jid = 1 };
        Tr.Job_created { jid = 2; parent = None; goal = None };
        Tr.Job_start { jid = 2 };
        Tr.Job_created { jid = 3; parent = Some 2; goal = Some "a" };
        Tr.Goal_absorbed { goal = "a"; parent = 2; child = 3; finished = false };
        Tr.Job_suspended { jid = 2; children = [] };
        Tr.Job_start { jid = 1 };
        Tr.Job_finished { jid = 1 };
      ]
  in
  let diags = San.analyze trace in
  Alcotest.(check bool) "lost waiter flagged" true
    (has_rule "sanitize/lost-waiter" (errors_of diags))

let test_synthetic_stuck_pending () =
  (* job 1 suspends on child 2; the child finishes but the parent is never
     re-enqueued: its pending count can never reach 0 again *)
  let trace =
    entries
      [
        Tr.Job_created { jid = 1; parent = None; goal = None };
        Tr.Job_start { jid = 1 };
        Tr.Job_created { jid = 2; parent = Some 1; goal = None };
        Tr.Job_suspended { jid = 1; children = [ 2 ] };
        Tr.Job_start { jid = 2 };
        Tr.Job_finished { jid = 2 };
      ]
  in
  let diags = San.analyze trace in
  Alcotest.(check bool) "stuck pending flagged" true
    (has_rule "sanitize/stuck-pending" (errors_of diags))

let test_clean_scheduler_trace_clean () =
  (* a healthy drained run produces zero findings end to end *)
  let sched = Sch.create () in
  let _, diags =
    San.check (fun () ->
        Sch.run sched
          (once_then
             (List.init 4 (fun _ ->
                  { Sch.run = leaf (fun () -> ()); goal = Some "shared" }))))
  in
  Alcotest.(check (list string)) "no findings at all" [] (rules diags)

(* --- the real optimizer under the sanitizer --- *)

let sanitized_config ?fuzz_seed ~workers () =
  let c =
    Orca.Orca_config.with_workers
      (Orca.Orca_config.with_segments Orca.Orca_config.default Fixtures.nsegs)
      workers
  in
  let c = Orca.Orca_config.with_sanitize c in
  match fuzz_seed with
  | None -> c
  | Some s -> Orca.Orca_config.with_fuzz_seed c s

let optimize_with config sql =
  let accessor = Fixtures.small_accessor () in
  let query = Sqlfront.Binder.bind_sql accessor sql in
  Orca.Optimizer.optimize ~config accessor query

let fixture_sql =
  "SELECT t1.a, count(*) AS c FROM t1, t2 WHERE t1.a = t2.b GROUP BY t1.a \
   ORDER BY c DESC, t1.a LIMIT 10"

let test_optimizer_sequential_clean () =
  let report = optimize_with (sanitized_config ~workers:1 ()) fixture_sql in
  Alcotest.(check (list string))
    "no error diagnostics" []
    (rules (errors_of report.Orca.Optimizer.diagnostics))

let test_optimizer_parallel_clean () =
  let report = optimize_with (sanitized_config ~workers:4 ()) fixture_sql in
  Alcotest.(check (list string))
    "no error diagnostics at workers=4" []
    (rules (errors_of report.Orca.Optimizer.diagnostics))

let plan_sig (r : Orca.Optimizer.report) =
  (Ir.Plan_ops.to_string r.Orca.Optimizer.plan,
   r.Orca.Optimizer.plan.Ir.Expr.pcost)

let test_fuzzed_schedules_reproduce_plan () =
  (* every fuzz seed permutes the costing schedule yet must produce exactly
     the sequential plan and cost (deterministic tie-breaking). A fuzzed run
     costs through scheduler jobs, not the plain run's direct walk, so it
     creates more jobs; equal counts would mean the fuzzer never ran. *)
  let plain =
    Orca.Orca_config.with_segments Orca.Orca_config.default Fixtures.nsegs
  in
  let plain_report = optimize_with plain fixture_sql in
  let baseline = plan_sig plain_report in
  for seed = 1 to 8 do
    let report =
      optimize_with (Orca.Orca_config.with_fuzz_seed plain seed) fixture_sql
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d ran costing jobs" seed)
      true
      (report.Orca.Optimizer.jobs_created
      > plain_report.Orca.Optimizer.jobs_created);
    let fuzzed = plan_sig report in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d matches sequential run" seed)
      []
      (rules
         (San.compare_runs
            ~label:(Printf.sprintf "seed %d" seed)
            ~baseline ~candidate:fuzzed))
  done

let test_parallel_reproduces_plan () =
  let plain =
    Orca.Orca_config.with_segments Orca.Orca_config.default Fixtures.nsegs
  in
  let baseline = plan_sig (optimize_with plain fixture_sql) in
  let par =
    plan_sig (optimize_with (Orca.Orca_config.with_workers plain 4) fixture_sql)
  in
  Alcotest.(check (list string))
    "workers=4 matches workers=1" []
    (rules (San.compare_runs ~label:"workers=4" ~baseline ~candidate:par))

let test_divergence_reported () =
  let d =
    San.compare_runs ~label:"fixture" ~baseline:("plan-a", 10.0)
      ~candidate:("plan-b", 11.0)
  in
  Alcotest.(check int) "plan and cost divergence" 2 (List.length d);
  Alcotest.(check bool) "rule id" true
    (has_rule "sanitize/schedule-divergence" d)

let suite =
  [
    Alcotest.test_case "spawn edge orders accesses" `Quick test_spawn_edge_no_race;
    Alcotest.test_case "join edge orders accesses" `Quick test_join_edge_no_race;
    Alcotest.test_case "sibling write race detected" `Quick test_sibling_write_race;
    Alcotest.test_case "common lock suppresses race" `Quick test_lock_suppresses_race;
    Alcotest.test_case "goal release orders accesses" `Quick test_goal_release_orders;
    Alcotest.test_case "lock inversion warning" `Quick test_lock_inversion_warning;
    Alcotest.test_case "synthetic goal cycle" `Quick test_synthetic_goal_cycle;
    Alcotest.test_case "synthetic lost waiter" `Quick test_synthetic_lost_waiter;
    Alcotest.test_case "synthetic stuck pending" `Quick test_synthetic_stuck_pending;
    Alcotest.test_case "clean trace has no findings" `Quick
      test_clean_scheduler_trace_clean;
    Alcotest.test_case "optimizer sequential clean" `Quick
      test_optimizer_sequential_clean;
    Alcotest.test_case "optimizer parallel clean" `Quick
      test_optimizer_parallel_clean;
    Alcotest.test_case "fuzzed schedules reproduce plan" `Quick
      test_fuzzed_schedules_reproduce_plan;
    Alcotest.test_case "parallel reproduces plan" `Quick
      test_parallel_reproduces_plan;
    Alcotest.test_case "divergence reported" `Quick test_divergence_reported;
  ]
