(* TAQO (paper §6.2): Testing the Accuracy of the Query Optimizer.

   Measures the cost model's ability to order any two plans correctly: plans
   are sampled uniformly from the Memo's optimization-request linkage (the
   counting method of Waas & Galindo-Legaria), costed by the optimizer, and
   executed to obtain actual runtimes. The score is a weighted pair-ordering
   correlation: misordering *good* plans is penalized more (importance), and
   pairs whose actual runtimes are close are not penalized at all
   (distance). *)

type point = {
  plan : Ir.Expr.plan;
  estimated : float; (* optimizer cost *)
  actual : float;    (* simulated-execution seconds *)
}

type outcome = {
  points : point list;
  score : float;          (* weighted pair-ordering correlation, [-1, 1] *)
  plans_in_space : float; (* size of the sampled plan space *)
  best_rank : int;        (* actual-runtime rank of the optimizer's choice *)
}

(* Sample [n] distinct plans (by structure) from the optimization report's
   Memo, always including the optimizer's chosen plan. *)
let sample_plans ?(seed = 7) ~(n : int) (report : Optimizer.report) :
    Ir.Expr.plan list =
  let rng = Gpos.Prng.create seed in
  let memo = report.Optimizer.memo in
  let root = Memolib.Memo.root memo in
  let req = report.Optimizer.root_req in
  let seen = Hashtbl.create 16 in
  let plans = ref [] in
  let consider plan =
    let key = Hashtbl.hash (Ir.Plan_ops.to_string ~show_cost:false plan) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      plans := plan :: !plans
    end
  in
  consider (Memolib.Extract.best_plan memo root req);
  (* sampling is with replacement; draw extra candidates to approach n
     distinct plans *)
  let attempts = max (4 * n) 32 in
  let draw = Memolib.Extract.sampler memo root req in
  for _ = 1 to attempts do
    if List.length !plans < n then consider (draw rng)
  done;
  List.rev !plans

(* Importance- and distance-weighted pair ordering score (Fig. 11): for each
   plan pair whose actual runtimes differ materially, score +w if estimated
   and actual orders agree, -w otherwise, with w emphasizing pairs involving
   fast plans. *)
let correlation_score (points : point list) : float =
  let arr = Array.of_list points in
  let n = Array.length arr in
  if n < 2 then 1.0
  else begin
    (* ranks by actual runtime: importance weighting *)
    let by_actual = Array.copy arr in
    Array.sort (fun a b -> Float.compare a.actual b.actual) by_actual;
    let rank p =
      let rec go i = if by_actual.(i) == p then i else go (i + 1) in
      go 0
    in
    let total = ref 0.0 and agree = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let a = arr.(i) and b = arr.(j) in
        let d =
          Float.abs (a.actual -. b.actual) /. Float.max 1e-12 (Float.max a.actual b.actual)
        in
        (* ignore pairs that are practically equal in actual cost *)
        if d > 0.05 then begin
          let importance =
            1.0 /. float_of_int (1 + min (rank a) (rank b))
          in
          let w = importance *. d in
          let concordant =
            (a.estimated -. b.estimated) *. (a.actual -. b.actual) > 0.0
          in
          total := !total +. w;
          agree := !agree +. (if concordant then w else -.w)
        end
      done
    done;
    if !total <= 0.0 then 1.0 else !agree /. !total
  end

(* Run TAQO for one optimized query: sample plans, execute each on the
   cluster, and score the cost model's ordering. *)
let run ?(seed = 7) ?(n = 16) (report : Optimizer.report)
    ~(execute : Ir.Expr.plan -> float) : outcome =
  let memo = report.Optimizer.memo in
  let root = Memolib.Memo.root memo in
  let req = report.Optimizer.root_req in
  let plans = sample_plans ~seed ~n report in
  let points =
    List.map
      (fun plan ->
        { plan; estimated = plan.Ir.Expr.pcost; actual = execute plan })
      plans
  in
  let best = List.hd points in
  let better_than_best =
    List.length (List.filter (fun p -> p.actual < best.actual) points)
  in
  {
    points;
    score = correlation_score points;
    plans_in_space = Memolib.Extract.count_plans memo root req;
    best_rank = better_than_best + 1;
  }
