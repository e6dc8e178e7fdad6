(* Static analysis of the Memo after optimization (paper §4.1, Fig. 6): the
   winner linkage structure that plan extraction follows must be internally
   consistent — no dangling group references, every winner's child requests
   resolved to child winners, winner costs minimal among each context's
   alternatives, and the best-plan linkage acyclic. Accumulates diagnostics
   lint-style. *)

open Ir
module Memo = Memolib.Memo

let rule_dangling = "memo/dangling-group"
let rule_ownership = "memo/gexpr-ownership"
let rule_missing_winner = "memo/missing-winner"
let rule_linkage_arity = "memo/linkage-arity"
let rule_non_minimal = "memo/non-minimal-winner"
let rule_unsatisfied = "memo/winner-violates-request"
let rule_cycle = "memo/cyclic-linkage"

let group_path gid = Printf.sprintf "group %d" gid

let ctx_path gid (req : Props.req) =
  Printf.sprintf "group %d %s" gid (Props.req_to_string req)

let op_name (op : Expr.op) =
  match op with
  | Expr.Logical l -> Logical_ops.to_string l
  | Expr.Physical p -> Physical_ops.to_string p

(* Winner costs are sums of floats accumulated in different orders by the
   search; allow for rounding noise when comparing them. *)
let cost_epsilon best = 1e-6 +. (1e-9 *. Float.abs best)

let check (memo : Memo.t) : Diagnostic.t list =
  let sink = Diagnostic.sink () in
  let emit ~rule ~severity ~path ~node fmt =
    Printf.ksprintf
      (fun message ->
        Diagnostic.emit sink
          (Diagnostic.make ~rule ~severity ~path ~node "%s" message))
      fmt
  in
  let ngroups = Memo.ngroups memo in
  let live = Memo.group_ids memo in
  (* --- structural integrity of groups and expressions --- *)
  List.iter
    (fun gid ->
      let g = Memo.group memo gid in
      List.iter
        (fun (ge : Memo.gexpr) ->
          let node = Memo.gexpr_to_string memo ge in
          List.iter
            (fun child ->
              if child < 0 || child >= ngroups then
                emit ~rule:rule_dangling ~severity:Diagnostic.Error
                  ~path:(group_path gid) ~node
                  "child group %d does not exist (memo has %d groups)" child
                  ngroups)
            ge.Memo.ge_children;
          let owner = Memo.find memo ge.Memo.ge_group in
          if owner <> gid then
            emit ~rule:rule_ownership ~severity:Diagnostic.Error
              ~path:(group_path gid) ~node
              "expression claims group %d but lives in group %d" owner gid)
        g.Memo.g_exprs)
    live;
  (* --- winner linkage: child requests resolve to child winners, winner
     cost is minimal, derived properties satisfy the request --- *)
  List.iter
    (fun gid ->
      List.iter
        (fun (cx : Memo.context) ->
          match cx.Memo.cx_best with
          | None -> ()
          | Some best ->
              let path = ctx_path gid cx.Memo.cx_req in
              let node = op_name best.Memo.a_gexpr.Memo.ge_op in
              let children = best.Memo.a_gexpr.Memo.ge_children in
              if List.length children <> List.length best.Memo.a_child_reqs
              then
                emit ~rule:rule_linkage_arity ~severity:Diagnostic.Error ~path
                  ~node "winner records %d child requests for %d children"
                  (List.length best.Memo.a_child_reqs)
                  (List.length children)
              else
                List.iter2
                  (fun child creq ->
                    if child >= 0 && child < ngroups then
                      let cgid = Memo.find memo child in
                      match Memo.find_context memo cgid creq with
                      | Some { Memo.cx_best = Some _; _ } -> ()
                      | Some { Memo.cx_best = None; _ } ->
                          emit ~rule:rule_missing_winner
                            ~severity:Diagnostic.Error ~path ~node
                            "child group %d has a context for %s but no \
                             winner — extraction would fail"
                            cgid
                            (Props.req_to_string creq)
                      | None ->
                          emit ~rule:rule_missing_winner
                            ~severity:Diagnostic.Error ~path ~node
                            "child group %d has no context for request %s — \
                             extraction would fail"
                            cgid
                            (Props.req_to_string creq))
                  children best.Memo.a_child_reqs;
              (* cost monotonicity: the winner is the cheapest recorded
                 alternative *)
              List.iter
                (fun (alt : Memo.alternative) ->
                  if
                    alt.Memo.a_cost
                    < best.Memo.a_cost -. cost_epsilon best.Memo.a_cost
                  then
                    emit ~rule:rule_non_minimal ~severity:Diagnostic.Error
                      ~path ~node
                      "winner costs %.4f but alternative %s costs %.4f"
                      best.Memo.a_cost
                      (op_name alt.Memo.a_gexpr.Memo.ge_op)
                      alt.Memo.a_cost)
                (Memo.alternatives memo gid cx);
              if not (Props.satisfies best.Memo.a_derived cx.Memo.cx_req) then
                emit ~rule:rule_unsatisfied ~severity:Diagnostic.Error ~path
                  ~node "winner delivers %s, which does not satisfy %s"
                  (Props.derived_to_string best.Memo.a_derived)
                  (Props.req_to_string cx.Memo.cx_req))
        (Memo.contexts_of_group memo gid))
    live;
  (* --- the best-plan linkage is acyclic (plan extraction terminates) ---
     keyed by (canonical group id, request fingerprint) *)
  let state : (int * int, [ `On_stack | `Done ]) Hashtbl.t =
    Hashtbl.create 64
  in
  let rec visit gid (req : Props.req) (trail : string list) =
    let gid = Memo.find memo gid in
    let key = (gid, Props.req_fingerprint req) in
    match Hashtbl.find_opt state key with
    | Some `Done -> ()
    | Some `On_stack ->
        emit ~rule:rule_cycle ~severity:Diagnostic.Error
          ~path:(ctx_path gid req) ~node:"winner linkage"
          "best-plan linkage is cyclic: %s"
          (String.concat " -> " (List.rev (ctx_path gid req :: trail)))
    | None -> (
        Hashtbl.replace state key `On_stack;
        (match Memo.find_context memo gid req with
        | Some { Memo.cx_best = Some best; _ } ->
            let children = best.Memo.a_gexpr.Memo.ge_children in
            if List.length children = List.length best.Memo.a_child_reqs then
              List.iter2
                (fun child creq ->
                  if child >= 0 && child < ngroups then
                    visit child creq (ctx_path gid req :: trail))
                children best.Memo.a_child_reqs
        | _ -> ());
        Hashtbl.replace state key `Done)
  in
  List.iter
    (fun gid ->
      List.iter
        (fun (cx : Memo.context) ->
          if cx.Memo.cx_best <> None then visit gid cx.Memo.cx_req [])
        (Memo.contexts_of_group memo gid))
    live;
  Diagnostic.drain sink
