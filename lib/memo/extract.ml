open Ir

(* Plan extraction from the Memo using the optimization-request linkage
   structure (paper §4.1, Fig. 6), plus uniform plan-space enumeration and
   sampling used by TAQO (paper §6.2, based on Waas & Galindo-Legaria). *)

let group_rows memo gid =
  match Memo.stats memo gid with
  | Some s -> Stats.Relstats.rows s
  | None -> 1000.0

let context_exn memo gid req =
  match Memo.find_context memo gid req with
  | Some ctx -> ctx
  | None ->
      Gpos.Gpos_error.internal "no optimization context for group %d req %s"
        (Memo.find memo gid) (Props.req_to_string req)

(* Materialize one alternative into a plan subtree. [pick] chooses the child
   alternative for (group, request); [assumed] is what the parent's costing
   assumed that child delivered (None at the root, or when the linkage
   predates the assumption recording) — substitutes must cover it, or claims
   recorded upstream (e.g. "already co-located, no motion needed") break in
   the materialized plan. *)
let rec plan_of_alternative memo gid (alt : Memo.alternative)
    ~(pick : int -> Props.req -> assumed:Props.derived option -> Memo.alternative)
    : Expr.plan =
  let ge = alt.Memo.a_gexpr in
  let assumed_of i = List.nth_opt alt.Memo.a_child_derived i in
  let children =
    List.mapi
      (fun i (child_gid, child_req) ->
        let child_alt = pick child_gid child_req ~assumed:(assumed_of i) in
        plan_of_alternative memo child_gid child_alt ~pick)
      (List.combine ge.Memo.ge_children alt.Memo.a_child_reqs)
  in
  let op =
    match ge.Memo.ge_op with
    | Expr.Physical p -> p
    | Expr.Logical l ->
        Gpos.Gpos_error.internal "extracting logical operator %s"
          (Logical_ops.to_string l)
  in
  let est_rows = group_rows memo gid in
  (* roll costs up from the children actually materialized: sampled plans may
     pick non-best child alternatives, so the recorded total would be wrong *)
  let children_cost =
    List.fold_left (fun a (c : Expr.plan) -> a +. c.Expr.pcost) 0.0 children
  in
  let base_cost = alt.Memo.a_local_cost +. children_cost in
  let node = Plan_ops.node op children ~est_rows ~cost:base_cost in
  (* stack the enforcers bottom-up, accumulating their recorded costs *)
  let plan, _ =
    List.fold_left2
      (fun (p, cost_acc) enf enf_cost ->
        let cost_acc = cost_acc +. enf_cost in
        let pop =
          match enf with
          | Props.E_sort spec -> Expr.P_sort spec
          | Props.E_motion m -> Expr.P_motion m
        in
        let rows =
          match enf with
          | Props.E_motion Expr.Broadcast -> p.Expr.pest_rows
          | _ -> p.Expr.pest_rows
        in
        (Plan_ops.node pop [ p ] ~est_rows:rows ~cost:cost_acc, cost_acc))
      (node, base_cost) alt.Memo.a_enforcers alt.Memo.a_enf_costs
  in
  plan

(* Extract the least-cost plan satisfying [req] at group [gid]. *)
let best_plan memo gid req : Expr.plan =
  let pick gid req ~assumed:_ =
    let ctx = context_exn memo gid req in
    match ctx.Memo.cx_best with
    | Some alt -> alt
    | None ->
        Gpos.Gpos_error.internal
          "no plan found for group %d under request %s" (Memo.find memo gid)
          (Props.req_to_string req)
  in
  let alt = pick gid req ~assumed:None in
  plan_of_alternative memo gid alt ~pick

(* --- plan counting and uniform sampling (TAQO substrate) --- *)

(* Number of distinct physical plans costed for (group, request). Counted
   over the alternatives of each optimization context ([Memo.alternatives]);
   floats guard against overflow in large spaces. *)
let count_plans memo gid req : float =
  let memo_table : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let rec count gid req =
    let gid = Memo.find memo gid in
    let key = (gid, Props.req_fingerprint req) in
    match Hashtbl.find_opt memo_table key with
    | Some c -> c
    | None ->
        (* guard against pathological cycles *)
        Hashtbl.replace memo_table key 0.0;
        let ctx = context_exn memo gid req in
        let total =
          List.fold_left
            (fun acc (alt : Memo.alternative) ->
              let sub =
                List.fold_left2
                  (fun p cg cr -> p *. count cg cr)
                  1.0 alt.Memo.a_gexpr.Memo.ge_children alt.Memo.a_child_reqs
              in
              acc +. sub)
            0.0
            (Memo.alternatives memo gid ctx)
        in
        Hashtbl.replace memo_table key total;
        total
  in
  count gid req

(* Sample plans uniformly from the costed plan space: alternatives are
   chosen with probability proportional to the number of complete plans in
   their subtrees. Subtree counts and each context's alternatives are
   computed once and shared by every draw. *)
let sampler memo gid req : Gpos.Prng.t -> Expr.plan =
  let memo_table : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let alts_table : (int, Memo.alternative list) Hashtbl.t = Hashtbl.create 64 in
  let alternatives gid (ctx : Memo.context) =
    match Hashtbl.find_opt alts_table ctx.Memo.cx_id with
    | Some alts -> alts
    | None ->
        let alts = Memo.alternatives memo gid ctx in
        Hashtbl.replace alts_table ctx.Memo.cx_id alts;
        alts
  in
  let rec count gid req =
    let gid = Memo.find memo gid in
    let key = (gid, Props.req_fingerprint req) in
    match Hashtbl.find_opt memo_table key with
    | Some c -> c
    | None ->
        Hashtbl.replace memo_table key 0.0;
        let ctx = context_exn memo gid req in
        let total =
          List.fold_left
            (fun acc (alt : Memo.alternative) ->
              acc +. subtree_count alt)
            0.0 (alternatives gid ctx)
        in
        Hashtbl.replace memo_table key total;
        total
  and subtree_count (alt : Memo.alternative) =
    List.fold_left2
      (fun p cg cr -> p *. count cg cr)
      1.0 alt.Memo.a_gexpr.Memo.ge_children alt.Memo.a_child_reqs
  in
  fun rng ->
    let pick gid req ~assumed =
      let ctx = context_exn memo gid req in
      (* only alternatives covering what the parent's costing assumed this
         child delivered are sound substitutes *)
      let candidates =
        match assumed with
        | None -> alternatives gid ctx
        | Some d ->
            List.filter
              (fun (a : Memo.alternative) ->
                Props.derived_covers ~assumed:d ~actual:a.Memo.a_derived)
              (alternatives gid ctx)
      in
      let fallback () =
        match ctx.Memo.cx_best with
        | Some alt -> alt
        | None -> Gpos.Gpos_error.internal "sampler: empty context"
      in
      let total =
        List.fold_left (fun acc a -> acc +. subtree_count a) 0.0 candidates
      in
      if total <= 0.0 then fallback ()
      else begin
        let target = Gpos.Prng.float rng *. total in
        let rec scan acc = function
          | [] -> fallback ()
          | alt :: rest ->
              let acc = acc +. subtree_count alt in
              if acc >= target then alt else scan acc rest
        in
        scan 0.0 candidates
      end
    in
    let alt = pick gid req ~assumed:None in
    plan_of_alternative memo gid alt ~pick
