(** TAQO — Testing the Accuracy of the Query Optimizer (paper §6.2).

    Samples plans uniformly from the Memo's optimization-context linkage (the
    counting method of Waas & Galindo-Legaria), costs each with the
    optimizer's estimates, executes each for an actual runtime, and scores
    the cost model's ability to order any two plans correctly. The score
    weights pairs by importance (misordering good plans hurts more) and by
    distance (plans with nearly equal actual runtimes are not scored). *)

type point = {
  plan : Ir.Expr.plan;
  estimated : float;  (** the optimizer's cost estimate *)
  actual : float;     (** measured (simulated) execution seconds *)
}

type outcome = {
  points : point list;     (** the sampled plans, chosen plan first *)
  score : float;           (** weighted pair-ordering correlation in [-1, 1] *)
  plans_in_space : float;  (** size of the costed plan space *)
  best_rank : int;         (** actual-runtime rank of the optimizer's choice *)
}

val sample_plans :
  ?seed:int -> n:int -> Optimizer.report -> Ir.Expr.plan list
(** Up to [n] structurally distinct plans sampled uniformly from the report's
    Memo, always including the optimizer's chosen plan (first). *)

val correlation_score : point list -> float
(** The importance/distance-weighted pair-ordering score on its own. *)

val run :
  ?seed:int ->
  ?n:int ->
  Optimizer.report ->
  execute:(Ir.Expr.plan -> float) ->
  outcome
(** Sample, execute (through the supplied runner) and score one optimized
    query. *)
