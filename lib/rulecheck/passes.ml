open Ir
module Memo = Memolib.Memo
module Rule = Xform.Rule
module Diagnostic = Verify.Diagnostic

(* The analysis passes. Each rule is applied to every logical expression of
   every generator case on a scratch Memo, and each produced alternative is
   checked for: Memo purity (checksum around [apply]), shape-mask soundness
   (the engine-skip contract behind the prefilter bitmap), output-column
   preservation, bag equivalence against the Exec.Naive oracle, and
   reachability of required properties for physical alternatives. *)

type stats = { mutable applications : int; mutable alternatives : int }

let stats () = { applications = 0; alternatives = 0 }

(* Case aborted because the Memo is no longer trustworthy. *)
exception Abort_case

let emit sink ~id ~severity ~case ~node fmt =
  Printf.ksprintf
    (fun msg ->
      Diagnostic.emit sink
        (Diagnostic.make ~rule:id ~severity ~path:case ~node "%s" msg))
    fmt

(* --- bag equality --- *)

let row_key (row : Datum.t array) =
  String.concat "\x1f" (List.map Datum.serialize (Array.to_list row))

let bag_diff (a : string list) (b : string list) =
  let count tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let ta = Hashtbl.create 64 in
  List.iter (count ta) a;
  List.iter
    (fun k ->
      match Hashtbl.find_opt ta k with
      | Some 1 -> Hashtbl.remove ta k
      | Some n -> Hashtbl.replace ta k (n - 1)
      | None -> count ta ("extra:" ^ k))
    b;
  Hashtbl.length ta

(* --- property reachability for physical alternatives --- *)

(* The weakest delivery consistent with a child request: what the child is
   guaranteed to provide if it merely satisfies the request. *)
let derived_of_req (r : Props.req) : Props.derived =
  let ddist =
    match r.Props.rdist with
    | Props.Any_dist | Props.Req_non_singleton -> Props.D_random
    | Props.Req_singleton -> Props.D_singleton
    | Props.Req_hashed cols -> Props.D_hashed cols
    | Props.Req_replicated -> Props.D_replicated
  in
  { Props.ddist; dorder = r.Props.rorder }

let canonical_reqs (out_cols : Colref.t list) : Props.req list =
  let base =
    [
      Props.any_req;
      Props.req_dist Props.Req_singleton;
      Props.req_dist Props.Req_non_singleton;
    ]
  in
  match out_cols with
  | [] -> base
  | c0 :: _ ->
      base
      @ [
          Props.req_dist (Props.Req_hashed [ c0 ]);
          { Props.rdist = Props.Any_dist; rorder = [ Sortspec.asc c0 ] };
        ]

(* An implementation alternative must be able to deliver every canonical
   request: some child-request vector, combined with the operator's derived
   properties and the enforcer framework, has to reach the requirement —
   otherwise the engine can never complete an optimization goal through this
   expression. *)
let check_promise sink ~case ~rule_name (pop : Expr.physical)
    ~(child_out_cols : Colref.t list list) ~(out_cols : Colref.t list) =
  List.iter
    (fun req ->
      match Search.Requests.alternatives pop ~req ~child_out_cols with
      | exception exn ->
          emit sink ~id:"rule/props-unreachable" ~severity:Diagnostic.Error
            ~case ~node:(Physical_ops.to_string pop)
            "%s: child-request derivation raised %s under %s" rule_name
            (Printexc.to_string exn) (Props.req_to_string req)
      | vectors ->
          let reachable =
            List.exists
              (fun vec ->
                match Physical_ops.derive pop (List.map derived_of_req vec) with
                | exception _ -> false
                | delivered ->
                    Props.enforcement_alternatives ~delivered ~required:req
                    <> [])
              vectors
          in
          if not reachable then
            emit sink ~id:"rule/props-unreachable" ~severity:Diagnostic.Error
              ~case ~node:(Physical_ops.to_string pop)
              "%s: no child-request vector (%d proposed) reaches %s" rule_name
              (List.length vectors) (Props.req_to_string req))
    (canonical_reqs out_cols)

(* --- per-alternative checks --- *)

let check_alternative sink ~st ~(world : Model.t) ~cte0 ~rep_of ~group_cols
    ~case ~rule_name (ge : Memo.gexpr) (op : Expr.logical)
    (result : Memolib.Mexpr.t) =
  let node = Logical_ops.to_string op in
  let case = Printf.sprintf "%s.gexpr%d" case ge.Memo.ge_id in
  match Denote.of_mexpr ~rep:rep_of result with
  | exception Denote.Not_denotable msg ->
      emit sink ~id:"rule/not-denotable" ~severity:Diagnostic.Warning ~case
        ~node "%s: alternative has no logical denotation (%s); oracle skipped"
        rule_name msg
  | exception exn ->
      emit sink ~id:"rule/malformed-alternative" ~severity:Diagnostic.Error
        ~case ~node "%s: alternative failed to build: %s" rule_name
        (Printexc.to_string exn)
  | alt -> (
      st.alternatives <- st.alternatives + 1;
      let orig = Ltree.make op (List.map rep_of ge.Memo.ge_children) in
      let orig_valid = try Ltree.validate orig; true with _ -> false in
      let alt_valid =
        match Ltree.validate alt with
        | () -> true
        | exception exn ->
            if orig_valid then
              emit sink ~id:"rule/malformed-alternative"
                ~severity:Diagnostic.Error ~case ~node
                "%s: alternative fails column-visibility validation: %s"
                rule_name (Printexc.to_string exn);
            false
      in
      ignore alt_valid;
      let ocols = Ltree.output_cols orig and acols = Ltree.output_cols alt in
      if not (Colref.Set.equal (Colref.Set.of_list ocols) (Colref.Set.of_list acols))
      then
        emit sink ~id:"rule/cols-not-preserved" ~severity:Diagnostic.Error
          ~case ~node "%s: output columns changed: [%s] -> [%s]" rule_name
          (String.concat "," (List.map Colref.to_string ocols))
          (String.concat "," (List.map Colref.to_string acols))
      else begin
        (* the differential oracle: same params, same pre-materialized CTEs *)
        let eval t =
          Exec.Naive.eval world.Model.cluster ~params:world.Model.params
            ~cte:(Hashtbl.copy cte0) t
        in
        (match eval orig with
        | exception _ -> () (* not evaluable standalone; no oracle *)
        | orows -> (
            match eval alt with
            | exception exn ->
                emit sink ~id:"rule/eval-failure" ~severity:Diagnostic.Error
                  ~case ~node
                  "%s: original evaluates but the alternative raises %s"
                  rule_name (Printexc.to_string exn)
            | arows ->
                (* project the alternative into the original column order *)
                let positions = List.map (Colref.position_exn acols) ocols in
                let arows =
                  List.map
                    (fun r ->
                      Array.of_list (List.map (fun p -> r.(p)) positions))
                    arows
                in
                let ka = List.sort compare (List.map row_key orows) in
                let kb = List.sort compare (List.map row_key arows) in
                if ka <> kb then
                  emit sink ~id:"rule/equiv-mismatch" ~severity:Diagnostic.Error
                    ~case ~node
                    "%s: alternative is not bag-equal to the original (%d vs \
                     %d rows, %d rows differ)"
                    rule_name (List.length orows) (List.length arows)
                    (bag_diff ka kb)));
        match result.Memolib.Mexpr.op with
        | Expr.Physical pop -> (
            match
              Denote.child_output_cols ~rep:rep_of ~group_cols result
            with
            | exception _ -> ()
            | child_out_cols ->
                check_promise sink ~case ~rule_name pop ~child_out_cols
                  ~out_cols:ocols)
        | Expr.Logical _ -> ()
      end)

(* --- one (rule, case) run --- *)

let check_rule_on_case sink ~st ~(world : Model.t) ~(fired : int ref)
    (rule : Rule.t) ((case_name, tree) : string * Ltree.t) =
  let memo = Memo.create () in
  let rep : (int, Ltree.t) Hashtbl.t = Hashtbl.create 32 in
  let rec ins (t : Ltree.t) : int =
    let cids = List.map ins t.Ltree.children in
    let ge = Memo.insert_gexpr memo (Expr.Logical t.Ltree.op) cids in
    let gid = Memo.find memo ge.Memo.ge_group in
    if not (Hashtbl.mem rep gid) then Hashtbl.add rep gid t;
    gid
  in
  let root = ins tree in
  Memo.set_root memo root;
  let rep_of gid =
    match Hashtbl.find_opt rep (Memo.find memo gid) with
    | Some t -> t
    | None -> (
        match Hashtbl.find_opt rep gid with
        | Some t -> t
        | None -> Denote.not_denotable "group %d has no representative" gid)
  in
  let group_cols gid = Memo.output_cols memo (Memo.find memo gid) in
  (* materialize CTEs once per case so producer-less subtrees (the consumer
     side of an anchor) evaluate standalone *)
  let cte0 : (int, Datum.t array list) Hashtbl.t = Hashtbl.create 4 in
  ignore
    (Exec.Naive.eval world.Model.cluster ~params:world.Model.params ~cte:cte0
       tree);
  let rctx = { Rule.factory = Colref.Factory.create ~start:1000 () } in
  try
    List.iter
      (fun gid ->
        let g = Memo.group memo gid in
        List.iter
          (fun ((ge : Memo.gexpr), op) ->
            let tag = Logical_ops.tag op in
            let before = Memo.checksum memo in
            let results = rule.Rule.apply rctx memo ge in
            st.applications <- st.applications + 1;
            if Memo.checksum memo <> before then begin
              emit sink ~id:"rule/memo-mutation" ~severity:Diagnostic.Error
                ~case:(Printf.sprintf "%s.gexpr%d" case_name ge.Memo.ge_id)
                ~node:(Logical_ops.to_string op)
                "%s: apply mutated the Memo (checksum changed); apply must \
                 only return alternatives"
                rule.Rule.name;
              raise Abort_case
            end;
            if results <> [] then
              if not (Rule.applicable_tag rule tag) then
                emit sink ~id:"rule/shape-escape" ~severity:Diagnostic.Error
                  ~case:(Printf.sprintf "%s.gexpr%d" case_name ge.Memo.ge_id)
                  ~node:(Logical_ops.to_string op)
                  "%s: produced %d alternative(s) on undeclared shape %s — \
                   the engine's prefilter would silently skip them"
                  rule.Rule.name (List.length results)
                  (Logical_ops.shape_to_string (Logical_ops.shape_of op))
              else begin
                fired := !fired lor (1 lsl tag);
                List.iter
                  (check_alternative sink ~st ~world ~cte0 ~rep_of ~group_cols
                     ~case:case_name ~rule_name:rule.Rule.name ge op)
                  results
              end)
          (Memo.logical_exprs g))
      (Memo.group_ids memo)
  with Abort_case -> ()

(* After every case and seed: declared shapes the rule never fired on.
   A full mask ([all_shapes_mask]) means "prefiltering disabled" and is not a
   declaration, so it is exempt. *)
let check_dead_shapes sink (rule : Rule.t) ~(fired : int) =
  if rule.Rule.mask <> Logical_ops.all_shapes_mask then
    List.iter
      (fun shape ->
        let bit = 1 lsl Logical_ops.shape_tag shape in
        if rule.Rule.mask land bit <> 0 && fired land bit = 0 then
          emit sink ~id:"rule/shape-dead" ~severity:Diagnostic.Warning
            ~case:"(all cases)" ~node:rule.Rule.name
            "%s declares shape %s but never fired on it across the generator \
             corpus — dead declaration or missing generator case"
            rule.Rule.name
            (Logical_ops.shape_to_string shape))
      Logical_ops.all_shapes

(* --- cost-model lints --- *)

let monotone_tolerance prev cur = cur >= (prev *. (1. -. 1e-9)) -. 1e-9

let cost_lints ?(label = "cost-model") (model : Cost.Cost_model.t) :
    Diagnostic.t list =
  let sink = Diagnostic.sink () in
  let a = Model.col_a in
  let width = 16.0 in
  let dist = Props.D_hashed [ a ] in
  let lt_pred = Expr.Cmp (Expr.Lt, Expr.Col a, Expr.Const (Datum.Int 5)) in
  let idx = { Table_desc.idx_name = "rc_it_k"; idx_col = Model.col_k } in
  let some_aggs =
    [
      {
        Expr.agg_kind = Expr.Sum;
        agg_arg = Some (Expr.Col Model.col_b);
        agg_distinct = false;
        agg_out = Model.col_s1;
      };
    ]
  in
  (* representative operator per cost-model branch; children scale with the
     sweep factor *)
  let ops : (string * Expr.physical * int) list =
    [
      ("table-scan", Expr.P_table_scan (Model.t1, None, Some lt_pred), 0);
      ( "index-scan",
        Expr.P_index_scan
          (Model.it, idx, Expr.Eq, Expr.Const (Datum.Int 5), None),
        0 );
      ("filter", Expr.P_filter lt_pred, 1);
      ( "project",
        Expr.P_project
          [
            {
              Expr.proj_expr = Expr.Arith (Expr.Add, Expr.Col a, Expr.Col a);
              proj_out = Model.col_pr1;
            };
          ],
        1 );
      ( "hash-join",
        Expr.P_hash_join
          (Expr.Inner, [ (Expr.Col a, Expr.Col Model.col_d) ], None),
        2 );
      ( "merge-join",
        Expr.P_merge_join (Expr.Inner, [ (a, Model.col_d) ], None),
        2 );
      ( "nl-join",
        Expr.P_nl_join (Expr.Inner, Expr.Cmp (Expr.Lt, Expr.Col a, Expr.Col Model.col_d)),
        2 );
      ("hash-agg", Expr.P_hash_agg (Expr.One_phase, [ a ], some_aggs), 1);
      ("stream-agg", Expr.P_stream_agg (Expr.One_phase, [ a ], some_aggs), 1);
      ( "window",
        Expr.P_window
          ( [ a ],
            [ Sortspec.asc a ],
            [ { Expr.wf_kind = Expr.W_row_number; wf_arg = None; wf_out = Model.col_w1 } ] ),
        1 );
      ("sort", Expr.P_sort [ Sortspec.asc a ], 1);
      ("limit", Expr.P_limit ([ Sortspec.asc a ], 0, Some 10, Expr.no_limit_slots), 1);
      ("cte-producer", Expr.P_cte_producer 7, 1);
      ("cte-consumer", Expr.P_cte_consumer (7, [ a ]), 0);
      ("set-union", Expr.P_set (Expr.Union_all, [ a ]), 2);
      ("set-distinct", Expr.P_set (Expr.Union_distinct, [ a ]), 2);
    ]
  in
  let factors = [ 0.; 1.; 10.; 1000.; 100000.; 1000000. ] in
  List.iter
    (fun (opname, op, nchildren) ->
      let cost r =
        let inputs =
          List.init nchildren (fun _ ->
              Cost.Cost_model.input ~rows:r ~width ~dist ())
        in
        Cost.Cost_model.op_cost model op ~rows_out:r ~width_out:width ~inputs
          ~scan_rows:(Float.max r 1.0) ~out_dist:dist
      in
      let prev = ref None in
      List.iter
        (fun r ->
          let c = cost r in
          if not (Float.is_finite c && c >= 0.0) then
            emit sink ~id:"cost/negative" ~severity:Diagnostic.Error
              ~case:label ~node:opname
              "op_cost(%s) = %g at %g rows: costs must be finite and \
               non-negative"
              opname c r;
          (match !prev with
          | Some (r0, c0) when not (monotone_tolerance c0 c) ->
              emit sink ~id:"cost/non-monotone" ~severity:Diagnostic.Error
                ~case:label ~node:opname
                "op_cost(%s) decreases with input size: %g rows -> %g, %g \
                 rows -> %g"
                opname r0 c0 r c
          | _ -> ());
          prev := Some (r, c))
        factors)
    ops;
  let enforcers =
    [
      ("sort", Props.E_sort [ Sortspec.asc a ]);
      ("gather", Props.E_motion Expr.Gather);
      ("gather-merge", Props.E_motion (Expr.Gather_merge [ Sortspec.asc a ]));
      ("redistribute", Props.E_motion (Expr.Redistribute [ Expr.Col a ]));
      ("broadcast", Props.E_motion Expr.Broadcast);
    ]
  in
  List.iter
    (fun (ename, enf) ->
      let prev = ref None in
      List.iter
        (fun rows ->
          let c =
            Cost.Cost_model.enforcer_cost model enf ~rows ~width
              ~dist:Props.D_random ~skew:1.0
          in
          if not (Float.is_finite c && c > 0.0) then
            emit sink ~id:"cost/enforcer-nonpositive" ~severity:Diagnostic.Error
              ~case:label ~node:ename
              "enforcer_cost(%s) = %g at %g rows: enforcers must cost more \
               than nothing or the search stacks them freely"
              ename c rows;
          (match !prev with
          | Some (r0, c0) when not (monotone_tolerance c0 c) ->
              emit sink ~id:"cost/non-monotone" ~severity:Diagnostic.Error
                ~case:label ~node:ename
                "enforcer_cost(%s) decreases with input size: %g rows -> %g, \
                 %g rows -> %g"
                ename r0 c0 rows c
          | _ -> ());
          prev := Some (rows, c))
        [ 1.; 10.; 1000.; 100000. ])
    enforcers;
  Diagnostic.drain sink
