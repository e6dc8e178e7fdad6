(* Job scheduler (paper §4.2).

   Optimization is broken into small re-entrant jobs. A job is a closure over
   its own mutable state; running it either finishes or spawns child jobs and
   suspends. When every child has completed, the suspended job is re-run and —
   because its captured state advanced — proceeds to its next phase.

   Jobs may carry a goal key (e.g. "exp:g3"): while a job with some goal is
   running, other incoming jobs with the same goal are parked on the goal's
   queue instead of duplicating work, and are released when it completes
   (paper: group job queues).

   The scheduler runs jobs on [workers] domains. With [workers = 1] execution
   is sequential and deterministic, which is the default used by tests. The
   optional [fuzz] PRNG dequeues a random queued job instead of the oldest
   one; with [workers = 1] that deterministically permutes the schedule per
   seed, which is what the sanitizer's schedule fuzzer drives.

   Lock discipline: every field of [t] below the mutex is read and written
   with [t.mutex] held, except the statistics counters, which are [Atomic.t]
   so that [profile] can be read from any domain without synchronizing with the
   workers. Job bodies run with the mutex released.

   When [Trace] has a sink installed, every lifecycle transition is published
   for the offline race/deadlock analyses in [lib/sanitize]. *)

type outcome =
  | Finished
  | Wait_for of child list

and child = { run : unit -> outcome; goal : string option }

type job = {
  jid : int;
  body : unit -> outcome;
  jgoal : string option;
  mutable pending : int; (* children not yet completed *)
  mutable parent : job option;
}

type goal_state =
  | Goal_running of { holder : job; waiters : job list ref }
      (* [holder] runs the goal; [waiters] are parents parked on it *)
  | Goal_finished

type policy = Fifo | Lifo

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t; (* Fifo runnable jobs (also the fuzzer's pool) *)
  mutable stack : job list; (* Lifo runnable jobs *)
  mutable depth : int; (* length of [stack] *)
  policy : policy;
  goals : (string, goal_state) Hashtbl.t;
  live : int Atomic.t; (* jobs created and not yet completed *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  jobs_run : int Atomic.t; (* statistics: number of job (re-)executions *)
  jobs_created : int Atomic.t;
  goal_hits : int Atomic.t; (* children absorbed by an in-flight/finished goal *)
  jobs_suspended : int Atomic.t; (* executions that returned Wait_for *)
  max_queue_depth : int Atomic.t; (* high-water mark of the run queue *)
  per_worker_run : int Atomic.t array; (* job executions per worker domain *)
  fuzz : Prng.t option; (* schedule fuzzer: randomized dequeue order *)
  workers : int;
}

(* Job ids are globally unique (not per scheduler) so that traces covering
   several schedulers — the engine runs exploration and optimization on
   separate ones — never alias two jobs. *)
let next_jid = Atomic.make 0

let create ?(workers = 1) ?fuzz ?(policy = Fifo) () =
  if workers < 1 then invalid_arg "Scheduler.create: workers must be >= 1";
  (* the fuzzer picks uniformly over the whole pool, subsuming any policy *)
  let policy = if fuzz <> None then Fifo else policy in
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    stack = [];
    depth = 0;
    policy;
    goals = Hashtbl.create 64;
    live = Atomic.make 0;
    failure = None;
    jobs_run = Atomic.make 0;
    jobs_created = Atomic.make 0;
    goal_hits = Atomic.make 0;
    jobs_suspended = Atomic.make 0;
    max_queue_depth = Atomic.make 0;
    per_worker_run = Array.init workers (fun _ -> Atomic.make 0);
    fuzz;
    workers;
  }

(* Utilization snapshot: the one record of the scheduler's work counts,
   read by the observability report (lib/obs) and telemetry. *)
type profile = {
  p_workers : int;
  p_jobs_created : int;
  p_jobs_run : int;
  p_jobs_suspended : int;
  p_goal_hits : int;
  p_max_queue_depth : int;
  p_per_worker_run : int list;
}

let profile t =
  {
    p_workers = t.workers;
    p_jobs_created = Atomic.get t.jobs_created;
    p_jobs_run = Atomic.get t.jobs_run;
    p_jobs_suspended = Atomic.get t.jobs_suspended;
    p_goal_hits = Atomic.get t.goal_hits;
    p_max_queue_depth = Atomic.get t.max_queue_depth;
    p_per_worker_run =
      Array.to_list (Array.map Atomic.get t.per_worker_run);
  }

(* All bookkeeping below runs with [t.mutex] held. *)

let new_job t ?parent ?goal body =
  let jid = Atomic.fetch_and_add next_jid 1 in
  let j = { jid; body; jgoal = goal; pending = 0; parent } in
  Atomic.incr t.jobs_created;
  Atomic.incr t.live;
  if Trace.enabled () then
    Trace.emit
      (Trace.Job_created
         { jid; parent = Option.map (fun p -> p.jid) parent; goal });
  j

let enqueue t j =
  let d =
    match t.policy with
    | Fifo ->
        Queue.add j t.queue;
        Queue.length t.queue
    | Lifo ->
        (* depth-first: a spawned subtree completes before its siblings run,
           so goal results exist by the time later spawns ask for them *)
        t.stack <- j :: t.stack;
        t.depth <- t.depth + 1;
        t.depth
  in
  (* queue-depth high-water mark; runs with the mutex held *)
  if d > Atomic.get t.max_queue_depth then Atomic.set t.max_queue_depth d;
  Condition.signal t.cond

(* A child of [parent] became (or was already) complete. *)
let rec child_completed t parent =
  parent.pending <- parent.pending - 1;
  if parent.pending = 0 then enqueue t parent

(* Job [j] finished for good: release its goal and resume its parent. *)
and complete t j =
  Atomic.decr t.live;
  (match j.jgoal with
  | None -> ()
  | Some g -> (
      match Hashtbl.find_opt t.goals g with
      | Some (Goal_running { waiters; _ }) ->
          Hashtbl.replace t.goals g Goal_finished;
          if Trace.enabled () then
            Trace.emit
              (Trace.Goal_released
                 {
                   goal = g;
                   jid = j.jid;
                   waiters = List.map (fun p -> p.jid) !waiters;
                 });
          List.iter (fun p -> child_completed t p) !waiters
      | Some Goal_finished | None -> ()));
  (match j.parent with None -> () | Some p -> child_completed t p);
  if Atomic.get t.live = 0 then Condition.broadcast t.cond

(* Is [holder] equal to [j] or one of its ancestors? If a job spawns a child
   whose goal is held by itself or an ancestor, parking the job on the goal
   queue would deadlock: the goal cannot finish until the parked job's own
   subtree completes. *)
let rec held_by_ancestor holder j =
  holder == j
  || match j.parent with None -> false | Some p -> held_by_ancestor holder p

(* Register a spawned child under its goal queue. Returns [true] when the
   child must actually run, [false] when an equivalent job is in flight or
   done (the parent will be resumed through the goal queue instead). *)
let admit_child t parent (j : job) =
  match j.jgoal with
  | None -> true
  | Some g -> (
      match Hashtbl.find_opt t.goals g with
      | None ->
          Hashtbl.replace t.goals g
            (Goal_running { holder = j; waiters = ref [] });
          if Trace.enabled () then
            Trace.emit (Trace.Goal_acquired { goal = g; jid = j.jid });
          true
      | Some (Goal_running { holder; waiters }) ->
          Atomic.incr t.goal_hits;
          Atomic.decr t.live;
          if held_by_ancestor holder parent then begin
            (* The goal is held by the requesting job itself or an ancestor:
               parking would form a wait cycle (the goal finishes only after
               the parker's subtree does). The ancestor's own fixpoint covers
               the work, so resolve the child immediately. *)
            if Trace.enabled () then
              Trace.emit
                (Trace.Goal_absorbed
                   { goal = g; parent = parent.jid; child = j.jid;
                     finished = true });
            child_completed t parent
          end
          else begin
            if Trace.enabled () then
              Trace.emit
                (Trace.Goal_absorbed
                   { goal = g; parent = parent.jid; child = j.jid;
                     finished = false });
            waiters := parent :: !waiters
          end;
          false
      | Some Goal_finished ->
          Atomic.incr t.goal_hits;
          Atomic.decr t.live;
          if Trace.enabled () then
            Trace.emit
              (Trace.Goal_absorbed
                 { goal = g; parent = parent.jid; child = j.jid;
                   finished = true });
          child_completed t parent;
          false)

let spawn_children t parent children =
  parent.pending <- List.length children;
  let to_run =
    List.filter_map
      (fun { run; goal } ->
        let j = new_job t ~parent ?goal run in
        if admit_child t parent j then Some j else None)
      children
  in
  if Trace.enabled () then
    Trace.emit
      (Trace.Job_suspended
         { jid = parent.jid; children = List.map (fun j -> j.jid) to_run });
  (* Children absorbed by goal queues already decremented [pending]; if all
     were absorbed and resolved, the parent is re-enqueued by
     [child_completed]. Otherwise enqueue the remaining real jobs. *)
  List.iter (fun j -> enqueue t j) to_run

(* Preemption points. Threads of one domain take turns on its runtime lock,
   and one that never blocks keeps it until the runtime's 50 ms tick: a
   service session's cheap request, arriving while another session
   optimizes, would wait that long. So before every job (and at each step
   of a walk that stands in for jobs) the running thread hands the lock to
   a waiting one once it has held it for a slice of [slice_s]: a waiter
   waits about one slice, and an optimization is handed off at most once
   per slice, not at every job (each hand-off costs two thread switches).
   The slice's start is per domain, whichever of its threads holds the
   lock, and read from the system clock, not [Clock], so a test's
   deterministic clock sees no extra reads. [Thread.yield] returns at once
   when nobody waits. *)
let slice_s = 0.001
let slice_start = Domain.DLS.new_key (fun () -> ref 0.0)

let preempt () =
  let start = Domain.DLS.get slice_start in
  let now = Unix.gettimeofday () in
  (* a clock stepped back must not suspend preemption until it catches up *)
  if now -. !start >= slice_s || now < !start then begin
    start := now;
    Thread.yield ()
  end

let run_one t ~widx j =
  Atomic.incr t.jobs_run;
  if widx < Array.length t.per_worker_run then
    Atomic.incr t.per_worker_run.(widx);
  if Trace.enabled () then Trace.emit (Trace.Job_start { jid = j.jid });
  Mutex.unlock t.mutex;
  preempt ();
  Trace.set_running (Some j.jid);
  let result =
    try Ok (j.body ())
    with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  Trace.set_running None;
  Mutex.lock t.mutex;
  match result with
  | Ok Finished ->
      if Trace.enabled () then Trace.emit (Trace.Job_finished { jid = j.jid });
      complete t j
  | Ok (Wait_for []) ->
      (* nothing to wait for: re-run *)
      Atomic.incr t.jobs_suspended;
      if Trace.enabled () then
        Trace.emit (Trace.Job_suspended { jid = j.jid; children = [] });
      enqueue t j
  | Ok (Wait_for children) ->
      Atomic.incr t.jobs_suspended;
      spawn_children t j children
  | Error (e, bt) ->
      if Trace.enabled () then Trace.emit (Trace.Job_failed { jid = j.jid });
      if t.failure = None then t.failure <- Some (e, bt);
      complete t j

let worker_loop t ~widx =
  Mutex.lock t.mutex;
  let take () =
    match t.fuzz with
    | None -> (
        match t.policy with
        | Fifo -> Queue.take_opt t.queue
        | Lifo -> (
            match t.stack with
            | [] -> None
            | j :: rest ->
                t.stack <- rest;
                t.depth <- t.depth - 1;
                Some j))
    | Some rng ->
        (* randomized dequeue: rotate a PRNG-chosen prefix to the back, then
           take the front — a uniform pick over the queued jobs. Runs with
           the mutex held, so the PRNG needs no extra synchronization. *)
        let n = Queue.length t.queue in
        if n = 0 then None
        else begin
          for _ = 1 to Prng.int rng n do
            Queue.add (Queue.take t.queue) t.queue
          done;
          Queue.take_opt t.queue
        end
  in
  let rec loop () =
    if Atomic.get t.live = 0 || t.failure <> None then ()
    else
      match take () with
      | Some j ->
          run_one t ~widx j;
          loop ()
      | None ->
          Condition.wait t.cond t.mutex;
          loop ()
  in
  loop ();
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

(* Run [root] (and everything it spawns) to completion. Raises the first
   failure encountered by any job, preserving its backtrace. *)
let run t root =
  Mutex.lock t.mutex;
  t.failure <- None;
  (* Goal state never outlives a run: a later run reusing a goal key must not
     be absorbed by a stale entry (in particular one left by a failed run,
     whose waiters were abandoned — parking on it would wedge forever). *)
  Hashtbl.reset t.goals;
  let j = new_job t root in
  enqueue t j;
  Mutex.unlock t.mutex;
  if t.workers = 1 then worker_loop t ~widx:0
  else begin
    let domains =
      List.init (t.workers - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t ~widx:(i + 1)))
    in
    worker_loop t ~widx:0;
    List.iter Domain.join domains
  end;
  if Trace.enabled () then Trace.emit (Trace.Run_end { root = j.jid });
  match t.failure with
  | Some (e, bt) ->
      t.failure <- None;
      (* Residual suspended jobs are abandoned on failure; drop every trace
         of them so the scheduler is reusable. *)
      Mutex.lock t.mutex;
      Queue.clear t.queue;
      t.stack <- [];
      t.depth <- 0;
      Hashtbl.reset t.goals;
      Atomic.set t.live 0;
      Mutex.unlock t.mutex;
      Printexc.raise_with_backtrace e bt
  | None -> ()

(* Convenience: run a one-shot computation structured as jobs and return its
   result through a ref cell. *)
let run_root t f =
  let result = ref None in
  run t (fun () ->
      f (fun v -> result := Some v);
      Finished);
  !result
