(** Job scheduler for parallel query optimization (paper §4.2).

    Work is expressed as re-entrant jobs: a job either finishes, or spawns
    child jobs and suspends until all of them complete, at which point it is
    re-run (its captured mutable state makes it resume where it left off).
    Jobs may carry a goal key; concurrent jobs with the same goal are
    deduplicated through per-goal queues exactly as in the paper. *)

type outcome =
  | Finished
  | Wait_for of child list
      (** Spawn the children and re-run this job once they all complete. *)

and child = { run : unit -> outcome; goal : string option }

type t

type policy = Fifo | Lifo
(** Dequeue order. [Fifo] (the default) runs jobs oldest-first —
    breadth-first over the job graph. [Lifo] runs the most recently spawned
    job first — depth-first — so a goal's subtree completes before sibling
    jobs spawn, which lets result caches keyed on finished goals hit. Any
    policy must produce the same results: the schedule fuzzer exists to
    check exactly that. *)

val create : ?workers:int -> ?fuzz:Prng.t -> ?policy:policy -> unit -> t
(** [workers = 1] (default) gives deterministic sequential execution;
    [workers > 1] runs jobs on that many domains. When [fuzz] is given, the
    scheduler dequeues a PRNG-chosen queued job instead of following
    [policy]: with [workers = 1] this deterministically permutes the
    schedule per seed (the sanitizer's schedule fuzzer). *)

val run : t -> (unit -> outcome) -> unit
(** Run the root job and everything it transitively spawns to completion.
    Re-raises the first exception raised by any job, preserving its
    backtrace. Goal state never survives across runs (in particular a failed
    run cannot wedge a later one), and when {!Trace} has a sink installed,
    every lifecycle transition is published to it. *)

val preempt : unit -> unit
(** A preemption point: once the running thread has held its domain's
    runtime lock for a 1 ms slice, hand the lock to a thread of the domain
    waiting for it (rather than at the runtime's next 50 ms tick). {!run}
    calls it before every job, and a walk that stands in for jobs calls it
    where a job would start. Costs a clock read when nobody waits. *)

type profile = {
  p_workers : int;
  p_jobs_created : int;
  p_jobs_run : int;
  p_jobs_suspended : int;  (** executions that returned [Wait_for] *)
  p_goal_hits : int;
  p_max_queue_depth : int; (** high-water mark of the run queue *)
  p_per_worker_run : int list;  (** job executions per worker domain *)
}
(** Utilization snapshot: the one record of the scheduler's work counts,
    read by the observability report (lib/obs) and telemetry. *)

val profile : t -> profile
