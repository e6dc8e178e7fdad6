open Ir
open Memolib

(* Plan provenance (the "why this plan" half of lib/prov): for every node of
   the extracted plan, the rule lineage that produced its group expression,
   the losing alternatives in its optimization context with their cost
   deltas, and — for enforcer nodes — the required property that forced
   them.

   [annotate] re-walks the Memo's winner linkage in exactly the order
   [Extract.plan_of_alternative] materializes nodes (enforcers outermost
   first, then the operator, then children left to right), and zips that
   against [Plan_ops.number] of the extracted plan. The zip is checked op by
   op, so a plan/Memo mismatch is an internal error rather than silently
   misattributed provenance. *)

type lineage_step = {
  ls_rule : string;    (* xform that produced the expression *)
  ls_stage : string;
  ls_promise : int;
  ls_result_op : string; (* the operator the application produced *)
}

(* A losing alternative in the winner's optimization context. *)
type loser = {
  lo_op : string;
  lo_rule : string option; (* rule that produced its gexpr; None = copy-in *)
  lo_cost : float;
  lo_delta : float;        (* lo_cost - winner cost, >= 0 *)
  lo_enforcers : int;      (* enforcers stacked on the alternative *)
}

type origin_info = {
  oi_group : int;               (* canonical group id *)
  oi_lineage : lineage_step list; (* newest first; [] = direct copy-in *)
  oi_losers : loser list;       (* sorted by cost, cheapest first *)
  oi_alts : int;                (* alternatives costed in the context *)
}

type kind =
  | K_operator of origin_info
  | K_enforcer of string (* why the enforcer was added *)
  | K_synthetic of string (* added outside the Memo (output projection) *)

type node_prov = {
  np_id : int;     (* stable preorder id (Plan_ops.number) *)
  np_path : string;
  np_op : string;
  np_est_rows : float;
  np_cost : float;
  np_kind : kind;
}

type t = {
  p_stage : string; (* stage whose Memo the plan was extracted from *)
  p_nodes : node_prov list; (* preorder, aligned with Plan_ops.number *)
}

let op_to_string (op : Expr.op) =
  match op with
  | Expr.Physical p -> Physical_ops.to_string p
  | Expr.Logical l -> Logical_ops.to_string l

(* Follow origin records back to the copy-in expression. Source ids always
   refer to earlier insertions, so cycles are impossible in a well-formed
   Memo; the visited set turns a corrupted one into a truncated lineage
   (lib/verify reports the corruption itself). *)
let lineage_of memo (ge : Memo.gexpr) : lineage_step list =
  let rec go acc visited (ge : Memo.gexpr) =
    match ge.Memo.ge_origin with
    | None -> List.rev acc
    | Some o ->
        let step =
          {
            ls_rule = o.Memo.o_rule;
            ls_stage = o.Memo.o_stage;
            ls_promise = o.Memo.o_promise;
            ls_result_op = op_to_string ge.Memo.ge_op;
          }
        in
        if List.mem o.Memo.o_source visited then List.rev (step :: acc)
        else begin
          match Memo.gexpr_by_id memo o.Memo.o_source with
          | None -> List.rev (step :: acc)
          | Some src -> go (step :: acc) (o.Memo.o_source :: visited) src
        end
  in
  go [] [ ge.Memo.ge_id ] ge

(* [alts] is the context's rebuilt alternative list ([Memo.alternatives]):
   it holds a copy of the winner, not the winner itself, so the winner is
   recognized by what it is — the same gexpr, child requests and
   enforcers — and only its first copy is dropped. *)
let losers_of (alts : Memo.alternative list) (best : Memo.alternative) :
    loser list =
  let is_best (a : Memo.alternative) =
    a.Memo.a_gexpr == best.Memo.a_gexpr
    && a.Memo.a_child_reqs = best.Memo.a_child_reqs
    && a.Memo.a_enforcers = best.Memo.a_enforcers
  in
  let rec drop_best = function
    | [] -> []
    | a :: rest -> if is_best a then rest else a :: drop_best rest
  in
  List.map
    (fun (alt : Memo.alternative) ->
      let ge = alt.Memo.a_gexpr in
      {
        lo_op = op_to_string ge.Memo.ge_op;
        lo_rule = Option.map (fun o -> o.Memo.o_rule) ge.Memo.ge_origin;
        lo_cost = alt.Memo.a_cost;
        lo_delta = alt.Memo.a_cost -. best.Memo.a_cost;
        lo_enforcers = List.length alt.Memo.a_enforcers;
      })
    (drop_best alts)
  |> List.sort (fun a b -> Float.compare a.lo_cost b.lo_cost)

let enforcer_reason (enf : Props.enforcer) (req : Props.req) : string =
  match enf with
  | Props.E_sort spec ->
      Printf.sprintf "enforces required order [%s] the child does not deliver"
        (Sortspec.to_string spec)
  | Props.E_motion m ->
      Printf.sprintf
        "enforces required distribution %s via %s (child delivers elsewhere)"
        (Props.dist_req_to_string req.Props.rdist)
        (Physical_ops.motion_to_string m)

(* What the Memo walk expects at each preorder position. *)
type expect =
  | E_op of int * Memo.context * Memo.alternative (* canonical gid *)
  | E_enf of Props.enforcer * Props.req

let context_exn memo gid req =
  match Memo.find_context memo gid req with
  | Some ctx -> ctx
  | None ->
      Gpos.Gpos_error.internal "prov: no optimization context for group %d"
        (Memo.find memo gid)

let annotate memo ~(req : Props.req) ~(stage : string) (plan : Expr.plan) : t
    =
  let expected = ref [] in
  let rec walk gid req =
    let gid = Memo.find memo gid in
    let ctx = context_exn memo gid req in
    let alt =
      match ctx.Memo.cx_best with
      | Some alt -> alt
      | None ->
          Gpos.Gpos_error.internal "prov: context without winner in group %d"
            gid
    in
    (* enforcers are stacked bottom-up at extraction, so the LAST one is the
       outermost plan node: preorder visits them in reverse *)
    List.iter
      (fun enf -> expected := E_enf (enf, ctx.Memo.cx_req) :: !expected)
      (List.rev alt.Memo.a_enforcers);
    expected := E_op (gid, ctx, alt) :: !expected;
    List.iter2
      (fun child_gid child_req -> walk child_gid child_req)
      alt.Memo.a_gexpr.Memo.ge_children alt.Memo.a_child_reqs
  in
  walk (Memo.root memo) req;
  let expected = List.rev !expected in
  let numbered = Plan_ops.number plan in
  (* the optimizer may wrap the extracted plan in one output projection that
     never lived in the Memo: synthesize its provenance *)
  let synthetic_root =
    List.length numbered = List.length expected + 1
    &&
    match plan.Expr.pop with Expr.P_project _ -> true | _ -> false
  in
  let expected =
    if synthetic_root then None :: List.map Option.some expected
    else if List.length numbered = List.length expected then
      List.map Option.some expected
    else
      Gpos.Gpos_error.internal
        "prov: plan has %d nodes but the Memo walk yields %d"
        (List.length numbered) (List.length expected)
  in
  let nodes =
    List.map2
      (fun (id, path, (node : Expr.plan)) exp ->
        let op_str = Physical_ops.to_string node.Expr.pop in
        let kind =
          match exp with
          | None ->
              K_synthetic
                "output projection added after extraction (query output \
                 column order)"
          | Some (E_enf (enf, req)) ->
              (match node.Expr.pop with
              | Expr.P_sort _ | Expr.P_motion _ -> ()
              | _ ->
                  Gpos.Gpos_error.internal
                    "prov: expected an enforcer at %s, plan has %s" path
                    op_str);
              K_enforcer (enforcer_reason enf req)
          | Some (E_op (gid, ctx, alt)) ->
              let ge = alt.Memo.a_gexpr in
              if op_to_string ge.Memo.ge_op <> op_str then
                Gpos.Gpos_error.internal
                  "prov: Memo walk has %s at %s, plan has %s"
                  (op_to_string ge.Memo.ge_op)
                  path op_str;
              let alts = Memo.alternatives memo gid ctx in
              K_operator
                {
                  oi_group = gid;
                  oi_lineage = lineage_of memo ge;
                  oi_losers = losers_of alts alt;
                  oi_alts = List.length alts;
                }
        in
        {
          np_id = id;
          np_path = path;
          np_op = op_str;
          np_est_rows = node.Expr.pest_rows;
          np_cost = node.Expr.pcost;
          np_kind = kind;
        })
      numbered expected
  in
  { p_stage = stage; p_nodes = nodes }

let find_node t ~path =
  List.find_opt (fun np -> np.np_path = path) t.p_nodes

(* --- rendering (explain --why) --- *)

let depth_of_path path =
  String.fold_left (fun n c -> if c = '.' then n + 1 else n) 0 path

let lineage_to_string (steps : lineage_step list) =
  match steps with
  | [] -> "copy-in (original query expression)"
  | steps ->
      String.concat " <- "
        (List.map
           (fun s ->
             Printf.sprintf "%s(stage %s, promise %d)" s.ls_rule s.ls_stage
               s.ls_promise)
           steps)
      ^ " <- copy-in"

let why_to_string ?(max_losers = 4) (t : t) : string =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "plan provenance (stage %s):\n" t.p_stage;
  List.iter
    (fun np ->
      let indent = String.make (2 * depth_of_path np.np_path) ' ' in
      pf "%s-> %s  (rows=%.0f cost=%.2f)\n" indent np.np_op np.np_est_rows
        np.np_cost;
      let ann = indent ^ "     " in
      match np.np_kind with
      | K_synthetic why -> pf "%s[synthetic] %s\n" ann why
      | K_enforcer why -> pf "%s[enforcer] %s\n" ann why
      | K_operator oi ->
          pf "%slineage: %s\n" ann (lineage_to_string oi.oi_lineage);
          let shown =
            List.filteri (fun i _ -> i < max_losers) oi.oi_losers
          in
          if oi.oi_losers = [] then
            pf "%sonly costed alternative in group %d\n" ann oi.oi_group
          else begin
            pf "%sbeat %d alternative%s in group %d:\n" ann
              (List.length oi.oi_losers)
              (if List.length oi.oi_losers = 1 then "" else "s")
              oi.oi_group;
            List.iter
              (fun lo ->
                pf "%s  %s cost=%.2f (+%.2f)%s%s\n" ann lo.lo_op lo.lo_cost
                  lo.lo_delta
                  (match lo.lo_rule with
                  | Some r -> " via " ^ r
                  | None -> " via copy-in")
                  (if lo.lo_enforcers > 0 then
                     Printf.sprintf " +%d enforcer%s" lo.lo_enforcers
                       (if lo.lo_enforcers = 1 then "" else "s")
                   else ""))
              shown;
            if List.length oi.oi_losers > max_losers then
              pf "%s  ... and %d more\n" ann
                (List.length oi.oi_losers - max_losers)
          end)
    t.p_nodes;
  Buffer.contents buf
