(* Semantic static analysis of extracted physical plans (paper §4.1, Fig. 7):
   re-derive the properties every subtree delivers, bottom-up, and check at
   each node that the distribution and sort order its operator needs from its
   inputs actually hold — a missing Motion or Sort enforcer surfaces here as a
   diagnostic naming the offending node, and a Motion that moves already-
   aligned data surfaces as a redundancy warning. Scalar payloads are
   type-checked against [Dtype] and column references are resolved against
   the visible schemas. Everything is accumulated lint-style; nothing
   raises. *)

open Ir

let rule_missing = "plan/missing-enforcer"
let rule_redundant = "plan/redundant-motion"
let rule_motion_on_motion = "plan/motion-on-motion"
let rule_root = "plan/root-requirement"
let rule_arity = "plan/arity"
let rule_schema = "plan/schema-mismatch"
let rule_unbound = "plan/unbound-column"
let rule_type = "plan/type-mismatch"
let rule_estimate = "plan/suspicious-estimate"

let cols_subset xs ys =
  List.for_all (fun x -> List.exists (Colref.equal x) ys) xs

let cols_cover xs ys =
  (* same column set, directions/order ignored *)
  List.length xs = List.length ys && cols_subset xs ys && cols_subset ys xs

type ctx = { sink : Diagnostic.sink }

let emit ctx ~rule ~severity ~ridx ~(node : Expr.plan) fmt =
  Printf.ksprintf
    (fun message ->
      Diagnostic.emit ctx.sink
        (Diagnostic.make ~rule ~severity
           ~path:(Diagnostic.plan_path ridx)
           ~node:(Physical_ops.to_string node.Expr.pop)
           "%s" message))
    fmt

(* --- scalar type checking --- *)

let numeric = function Some (Dtype.Int | Dtype.Float) -> true | _ -> false

(* Types a comparison may relate: identical, or both numeric. [None] (an
   untyped Null literal, or a subexpression that already failed) compares
   with anything. *)
let comparable a b =
  match (a, b) with
  | None, _ | _, None -> true
  | Some x, Some y -> Dtype.equal x y || (numeric a && numeric b)

let rec typecheck ctx ~ridx ~node (s : Expr.scalar) : Dtype.t option =
  let err fmt = emit ctx ~rule:rule_type ~severity:Diagnostic.Error ~ridx ~node fmt in
  let recur e = typecheck ctx ~ridx ~node e in
  let expect_bool what e =
    match recur e with
    | Some t when not (Dtype.equal t Dtype.Bool) ->
        err "%s operand %s has type %s, expected Bool" what
          (Scalar_ops.to_string e) (Dtype.to_string t)
    | _ -> ()
  in
  match s with
  | Expr.Col c -> Some (Colref.ty c)
  | Expr.Const d | Expr.Slot (_, d) -> Datum.type_of d
  | Expr.Cmp (op, a, b) ->
      let ta = recur a and tb = recur b in
      if not (comparable ta tb) then
        err "comparison %s relates %s and %s"
          (Scalar_ops.to_string (Expr.Cmp (op, a, b)))
          (Dtype.to_string (Option.get ta))
          (Dtype.to_string (Option.get tb));
      Some Dtype.Bool
  | Expr.And cs | Expr.Or cs ->
      List.iter (expect_bool "boolean connective") cs;
      Some Dtype.Bool
  | Expr.Not c ->
      expect_bool "NOT" c;
      Some Dtype.Bool
  | Expr.Arith (op, a, b) ->
      let ta = recur a and tb = recur b in
      List.iter
        (fun (t, e) ->
          match t with
          | Some ty when not (numeric t) ->
              err "arithmetic operand %s has non-numeric type %s"
                (Scalar_ops.to_string e) (Dtype.to_string ty)
          | _ -> ())
        [ (ta, a); (tb, b) ];
      if op = Expr.Div then Some Dtype.Float
      else if ta = Some Dtype.Float || tb = Some Dtype.Float then
        Some Dtype.Float
      else ta
  | Expr.Is_null c ->
      ignore (recur c);
      Some Dtype.Bool
  | Expr.Case (whens, els) ->
      List.iter (fun (c, _) -> expect_bool "CASE condition" c) whens;
      let branch_types =
        List.map (fun (_, v) -> recur v) whens @ Option.to_list (Option.map recur els)
      in
      let result =
        List.fold_left
          (fun acc t ->
            (match (acc, t) with
            | Some _, Some _ when not (comparable acc t) ->
                err "CASE branches mix %s and %s"
                  (Dtype.to_string (Option.get acc))
                  (Dtype.to_string (Option.get t))
            | _ -> ());
            if acc = None then t else acc)
          None branch_types
      in
      result
  | Expr.In_list (e, ds) ->
      let te = recur e in
      List.iter
        (fun d ->
          if not (comparable te (Datum.type_of d)) then
            err "IN list value %s does not match %s" (Datum.to_string d)
              (Scalar_ops.to_string e))
        ds;
      Some Dtype.Bool
  | Expr.Like (e, _) ->
      (match recur e with
      | Some t when not (Dtype.equal t Dtype.String) ->
          err "LIKE over non-string %s (%s)" (Scalar_ops.to_string e)
            (Dtype.to_string t)
      | _ -> ());
      Some Dtype.Bool
  | Expr.Coalesce cs ->
      let ts = List.map recur cs in
      let result =
        List.fold_left
          (fun acc t ->
            (match (acc, t) with
            | Some _, Some _ when not (comparable acc t) ->
                err "COALESCE mixes %s and %s"
                  (Dtype.to_string (Option.get acc))
                  (Dtype.to_string (Option.get t))
            | _ -> ());
            if acc = None then t else acc)
          None ts
      in
      result
  | Expr.Cast (e, ty) ->
      ignore (recur e);
      Some ty
  | Expr.Subplan sp -> (
      (match sp.Expr.sp_kind with
      | Expr.Sp_in e | Expr.Sp_not_in e -> (
          let te = recur e in
          match sp.Expr.sp_plan.Expr.pschema with
          | [ c ] ->
              if not (comparable te (Some (Colref.ty c))) then
                err "IN-subplan column %s does not match %s"
                  (Colref.to_string c) (Scalar_ops.to_string e)
          | _ -> ())
      | _ -> ());
      match sp.Expr.sp_kind with
      | Expr.Sp_scalar -> (
          match sp.Expr.sp_plan.Expr.pschema with
          | [ c ] -> Some (Colref.ty c)
          | _ -> None)
      | _ -> Some Dtype.Bool)

let check_agg_arg ctx ~ridx ~node (a : Expr.agg) =
  match (a.Expr.agg_kind, a.Expr.agg_arg) with
  | Expr.Count_star, _ | Expr.Count, _ -> ()
  | Expr.Sum, Some arg -> (
      match typecheck ctx ~ridx ~node arg with
      | Some t when not (Dtype.is_numeric t) ->
          emit ctx ~rule:rule_type ~severity:Diagnostic.Error ~ridx ~node
            "sum over non-numeric argument %s (%s)"
            (Scalar_ops.to_string arg) (Dtype.to_string t)
      | _ -> ())
  | _, Some arg -> ignore (typecheck ctx ~ridx ~node arg)
  | _, None -> ()

(* --- column visibility --- *)

let visible_cols ~params (node : Expr.plan) =
  let from_children =
    List.fold_left
      (fun acc (c : Expr.plan) ->
        Colref.Set.union acc (Colref.Set.of_list c.Expr.pschema))
      params node.Expr.pchildren
  in
  match node.Expr.pop with
  | Expr.P_table_scan (td, _, _) | Expr.P_index_scan (td, _, _, _, _) ->
      Colref.Set.union from_children (Colref.Set.of_list td.Table_desc.cols)
  | Expr.P_cte_consumer (_, cols)
  | Expr.P_const_table (cols, _)
  | Expr.P_set (_, cols) ->
      Colref.Set.union from_children (Colref.Set.of_list cols)
  | _ -> from_children

let check_bound ctx ~ridx ~node ~visible (s : Expr.scalar) =
  let free = Scalar_ops.free_cols s in
  if not (Colref.Set.subset free visible) then
    emit ctx ~rule:rule_unbound ~severity:Diagnostic.Error ~ridx ~node
      "unbound columns %s in %s"
      (Colref.Set.to_string (Colref.Set.diff free visible))
      (Scalar_ops.to_string s)

(* Scalar payloads of an operator, for binding and typing checks. *)
let payload_scalars = Physical_ops.scalars

(* Predicates whose type must be boolean. *)
let boolean_payloads (op : Expr.physical) : Expr.scalar list =
  match op with
  | Expr.P_table_scan (_, _, Some f) -> [ f ]
  | Expr.P_index_scan (_, _, _, _, Some f) -> [ f ]
  | Expr.P_filter pred -> [ pred ]
  | Expr.P_hash_join (_, _, Some r) -> [ r ]
  | Expr.P_merge_join (_, _, Some r) -> [ r ]
  | Expr.P_nl_join (_, cond) -> [ cond ]
  | _ -> []

let collect_subplans (op : Expr.physical) : Expr.subplan list =
  let acc = ref [] in
  let rec go s =
    (match s with Expr.Subplan sp -> acc := sp :: !acc | _ -> ());
    Scalar_ops.iter_children go s
  in
  List.iter go (payload_scalars op);
  !acc

(* --- distribution pairing of binary joins (paper Fig. 7) --- *)

(* Column-level join keys: Col=Col pairs usable for co-location. *)
let col_key_pairs (keys : (Expr.scalar * Expr.scalar) list) :
    (Colref.t * Colref.t) list =
  List.filter_map
    (fun (a, b) ->
      match (a, b) with Expr.Col x, Expr.Col y -> Some (x, y) | _ -> None)
    keys

(* Are hashed sides co-located: both sides hashed on positionally-paired
   join-key columns (a subset of the key pairs, in the same order)? *)
let colocated ~(key_pairs : (Colref.t * Colref.t) list) (oh : Colref.t list)
    (ih : Colref.t list) =
  oh <> []
  && List.length oh = List.length ih
  && List.for_all2
       (fun o i ->
         List.exists
           (fun (ko, ki) -> Colref.equal ko o && Colref.equal ki i)
           key_pairs)
       oh ih

let join_inputs_ok (kind : Expr.join_kind)
    ~(key_pairs : (Colref.t * Colref.t) list) (o : Props.dist)
    (i : Props.dist) =
  let broadcast_inner_ok =
    match kind with
    | Expr.Inner | Expr.Left_outer | Expr.Semi | Expr.Anti_semi -> true
    | Expr.Full_outer -> false
  in
  match (o, i) with
  | _, Props.D_replicated when broadcast_inner_ok -> true
  | Props.D_replicated, _ when kind = Expr.Inner -> true
  | Props.D_singleton, Props.D_singleton -> true
  | Props.D_hashed oh, Props.D_hashed ih -> colocated ~key_pairs oh ih
  | _ -> false

(* --- per-operator input requirements --- *)

let dist_name (d : Props.dist) = Props.dist_to_string d

let check_join_dist ctx ~ridx ~node kind ~key_pairs (o : Props.derived)
    (i : Props.derived) =
  if not (join_inputs_ok kind ~key_pairs o.Props.ddist i.Props.ddist) then
    emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
      "%s join inputs are not co-located: outer %s, inner %s — a Motion \
       enforcer is missing or misplaced"
      (Expr.join_kind_to_string kind)
      (dist_name o.Props.ddist) (dist_name i.Props.ddist)

(* Grouped execution needs rows of one group on one segment: singleton, or
   hashed on a (nonempty) subset of the grouping keys. Replicated input is
   correct but each segment redoes the whole aggregate — flag it. *)
let check_grouping_dist ctx ~ridx ~node ~what (keys : Colref.t list)
    (child : Props.derived) =
  match (keys, child.Props.ddist) with
  | _, Props.D_singleton -> ()
  | _, Props.D_replicated ->
      emit ctx ~rule:rule_missing ~severity:Diagnostic.Warning ~ridx ~node
        "%s over replicated input: every segment redoes the whole computation"
        what
  | [], d ->
      emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
        "global %s over %s input needs a Gather enforcer below it" what
        (dist_name d)
  | keys, Props.D_hashed hs when hs <> [] && cols_subset hs keys -> ()
  | keys, d ->
      emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
        "%s on keys [%s] over %s input: groups span segments — a Redistribute \
         enforcer is missing"
        what
        (String.concat "," (List.map Colref.to_string keys))
        (dist_name d)

(* Delivered order must start with the grouping keys (any directions), with
   [tail_req] satisfied by what follows. *)
let check_key_prefix_order ctx ~ridx ~node ~what (keys : Colref.t list)
    ?(tail_req = Sortspec.empty) (child : Props.derived) =
  let n = List.length keys in
  let order = child.Props.dorder in
  if List.length order < n then
    emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
      "%s needs input sorted on [%s] but it delivers %s — a Sort enforcer is \
       missing"
      what
      (String.concat "," (List.map Colref.to_string keys))
      (if Sortspec.is_empty order then "no order" else Sortspec.to_string order)
  else
    let prefix = List.filteri (fun idx _ -> idx < n) order in
    let rest = List.filteri (fun idx _ -> idx >= n) order in
    if not (cols_cover (Sortspec.cols prefix) keys) then
      emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
        "%s needs input grouped on [%s] but the delivered order is %s" what
        (String.concat "," (List.map Colref.to_string keys))
        (Sortspec.to_string order)
    else if
      not
        (Sortspec.satisfies ~delivered:rest ~required:tail_req
        || Sortspec.satisfies ~delivered:order ~required:tail_req)
    then
      emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
        "%s needs order %s after the keys but the input delivers %s" what
        (Sortspec.to_string tail_req)
        (Sortspec.to_string order)

let check_motion ctx ~ridx ~node (m : Expr.motion) (child : Expr.plan)
    (cd : Props.derived) =
  (match child.Expr.pop with
  | Expr.P_motion _ ->
      emit ctx ~rule:rule_motion_on_motion ~severity:Diagnostic.Warning ~ridx
        ~node
        "motion stacked directly on another motion: the lower one's work is \
         thrown away"
  | _ -> ());
  match m with
  | Expr.Gather ->
      if cd.Props.ddist = Props.D_singleton then
        emit ctx ~rule:rule_redundant ~severity:Diagnostic.Warning ~ridx ~node
          "Gather of an already-singleton input"
  | Expr.Gather_merge s ->
      if cd.Props.ddist = Props.D_singleton then
        emit ctx ~rule:rule_redundant ~severity:Diagnostic.Warning ~ridx ~node
          "GatherMerge of an already-singleton input";
      if not (Sortspec.satisfies ~delivered:cd.Props.dorder ~required:s) then
        emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
          "GatherMerge%s over streams that are not sorted that way (input \
           delivers %s) — the merge cannot preserve order"
          (Sortspec.to_string s)
          (if Sortspec.is_empty cd.Props.dorder then "no order"
           else Sortspec.to_string cd.Props.dorder)
  | Expr.Broadcast ->
      if cd.Props.ddist = Props.D_replicated then
        emit ctx ~rule:rule_redundant ~severity:Diagnostic.Warning ~ridx ~node
          "Broadcast of an already-replicated input"
  | Expr.Redistribute [] ->
      (match cd.Props.ddist with
      | Props.D_singleton -> ()
      | d ->
          emit ctx ~rule:rule_redundant ~severity:Diagnostic.Warning ~ridx
            ~node "round-robin Redistribute of already-parallel (%s) input"
            (dist_name d))
  | Expr.Redistribute es -> (
      let cols =
        List.filter_map (function Expr.Col c -> Some c | _ -> None) es
      in
      match cd.Props.ddist with
      | Props.D_hashed hs
        when List.length cols = List.length es
             && List.length hs = List.length cols
             && List.for_all2 Colref.equal hs cols ->
          emit ctx ~rule:rule_redundant ~severity:Diagnostic.Warning ~ridx
            ~node "Redistribute on already-aligned hashed input (%s)"
            (dist_name cd.Props.ddist)
      | _ -> ())

let check_setop ctx ~ridx ~node (kind : Expr.set_kind)
    (children : Expr.plan list) (cds : Props.derived list) =
  match kind with
  | Expr.Union_all -> ()
  | Expr.Union_distinct | Expr.Intersect | Expr.Except ->
      let dists = List.map (fun (d : Props.derived) -> d.Props.ddist) cds in
      let all_singleton =
        List.for_all (fun d -> d = Props.D_singleton) dists
      in
      let all_replicated =
        List.for_all (fun d -> d = Props.D_replicated) dists
      in
      (* hashed children must hash positionally-matching columns *)
      let hashed_positions =
        List.map2
          (fun (c : Expr.plan) d ->
            match d with
            | Props.D_hashed hs ->
                let positions =
                  List.map (Colref.position_in c.Expr.pschema) hs
                in
                if List.for_all Option.is_some positions then
                  Some (List.map Option.get positions)
                else None
            | _ -> None)
          children dists
      in
      let all_aligned =
        match hashed_positions with
        | Some first :: rest ->
            List.for_all (function Some p -> p = first | None -> false) rest
        | _ -> false
      in
      if not (all_singleton || all_replicated || all_aligned) then
        emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
          "distinct %s over misaligned inputs (%s): duplicates can span \
           segments — Motion enforcers are missing"
          (Expr.set_kind_to_string kind)
          (String.concat ", " (List.map dist_name dists))

(* --- the walk --- *)

let fallback_derived = { Props.ddist = Props.D_random; dorder = Sortspec.empty }

let rec check_node ctx ~params ~ridx (p : Expr.plan) : Props.derived =
  let node = p in
  (* children first: bottom-up property derivation *)
  let child_derived =
    List.mapi
      (fun i c -> check_node ctx ~params ~ridx:(i :: ridx) c)
      p.Expr.pchildren
  in
  let arity_ok = List.length p.Expr.pchildren = Physical_ops.arity p.Expr.pop in
  if not arity_ok then
    emit ctx ~rule:rule_arity ~severity:Diagnostic.Error ~ridx ~node
      "%d children, operator wants %d"
      (List.length p.Expr.pchildren)
      (Physical_ops.arity p.Expr.pop);
  (* schema consistency (structural, but cheap and load-bearing for the
     column checks below) *)
  if arity_ok then begin
    let derived_schema =
      try
        Some
          (Physical_ops.output_cols p.Expr.pop
             (List.map (fun (c : Expr.plan) -> c.Expr.pschema) p.Expr.pchildren))
      with _ -> None
    in
    match derived_schema with
    | Some cols
      when not
             (List.length cols = List.length p.Expr.pschema
             && List.for_all2 Colref.equal cols p.Expr.pschema) ->
        emit ctx ~rule:rule_schema ~severity:Diagnostic.Error ~ridx ~node
          "stored schema [%s] differs from the derived one [%s]"
          (String.concat "," (List.map Colref.to_string p.Expr.pschema))
          (String.concat "," (List.map Colref.to_string cols))
    | _ -> ()
  end;
  (* cardinality / cost sanity *)
  if
    Float.is_nan p.Expr.pest_rows
    || p.Expr.pest_rows < 0.0
    || Float.is_nan p.Expr.pcost
    || p.Expr.pcost < 0.0
  then
    emit ctx ~rule:rule_estimate ~severity:Diagnostic.Warning ~ridx ~node
      "suspicious estimates: rows=%g cost=%g" p.Expr.pest_rows p.Expr.pcost;
  (* scalar payloads: column binding and types *)
  let visible = visible_cols ~params p in
  List.iter (check_bound ctx ~ridx ~node ~visible) (payload_scalars p.Expr.pop);
  List.iter
    (fun s -> ignore (typecheck ctx ~ridx ~node s))
    (payload_scalars p.Expr.pop);
  List.iter
    (fun s ->
      match typecheck ctx ~ridx ~node s with
      | Some t when not (Dtype.equal t Dtype.Bool) ->
          emit ctx ~rule:rule_type ~severity:Diagnostic.Error ~ridx ~node
            "predicate %s has type %s, expected Bool" (Scalar_ops.to_string s)
            (Dtype.to_string t)
      | _ -> ())
    (boolean_payloads p.Expr.pop);
  (match p.Expr.pop with
  | Expr.P_hash_agg (_, _, aggs) | Expr.P_stream_agg (_, _, aggs) ->
      List.iter (check_agg_arg ctx ~ridx ~node) aggs
  | _ -> ());
  (* subplans are whole plans hiding inside scalars: analyze them too, with
     their correlation parameters visible *)
  List.iter
    (fun (sp : Expr.subplan) ->
      let param_cols = Colref.Set.of_list (List.map snd sp.Expr.sp_params) in
      ignore
        (check_node ctx
           ~params:(Colref.Set.union params param_cols)
           ~ridx:(0 :: ridx) sp.Expr.sp_plan))
    (collect_subplans p.Expr.pop);
  (* the semantic core: does each input deliver what the operator needs? *)
  let child n = List.nth_opt child_derived n in
  if arity_ok then begin
    match (p.Expr.pop, child_derived) with
    | Expr.P_hash_join (kind, keys, _), [ o; i ] ->
        check_join_dist ctx ~ridx ~node kind
          ~key_pairs:(col_key_pairs keys) o i
    | Expr.P_merge_join (kind, keys, _), [ o; i ] ->
        check_join_dist ctx ~ridx ~node kind ~key_pairs:keys o i;
        let outer_req = List.map (fun (a, _) -> Sortspec.asc a) keys in
        let inner_req = List.map (fun (_, b) -> Sortspec.asc b) keys in
        List.iter
          (fun (side, d, req) ->
            if not (Sortspec.satisfies ~delivered:d.Props.dorder ~required:req)
            then
              emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx
                ~node
                "merge join %s input must be sorted %s but delivers %s — a \
                 Sort enforcer is missing"
                side
                (Sortspec.to_string req)
                (if Sortspec.is_empty d.Props.dorder then "no order"
                 else Sortspec.to_string d.Props.dorder))
          [ ("outer", o, outer_req); ("inner", i, inner_req) ]
    | Expr.P_nl_join (kind, _), [ o; i ] ->
        check_join_dist ctx ~ridx ~node kind ~key_pairs:[] o i
    | Expr.P_hash_agg (phase, keys, _), [ c ] ->
        if phase <> Expr.Partial then
          check_grouping_dist ctx ~ridx ~node ~what:"hash aggregate" keys c
    | Expr.P_stream_agg (phase, keys, _), [ c ] ->
        if phase <> Expr.Partial then
          check_grouping_dist ctx ~ridx ~node ~what:"stream aggregate" keys c;
        if keys <> [] then
          check_key_prefix_order ctx ~ridx ~node ~what:"stream aggregate" keys c
    | Expr.P_window (partition, worder, _), [ c ] ->
        check_grouping_dist ctx ~ridx ~node ~what:"window" partition c;
        check_key_prefix_order ctx ~ridx ~node ~what:"window" partition
          ~tail_req:worder c
    | Expr.P_limit (sort, _, _, _), [ c ] ->
        (match c.Props.ddist with
        | Props.D_singleton -> ()
        | Props.D_replicated ->
            emit ctx ~rule:rule_missing ~severity:Diagnostic.Warning ~ridx
              ~node "limit over replicated input: correct but repeated per \
                     segment"
        | d ->
            emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
              "global limit over %s input truncates per segment — a Gather \
               enforcer is missing"
              (dist_name d));
        if
          (not (Sortspec.is_empty sort))
          && not (Sortspec.satisfies ~delivered:c.Props.dorder ~required:sort)
        then
          emit ctx ~rule:rule_missing ~severity:Diagnostic.Error ~ridx ~node
            "limit requires order %s but its input delivers %s — a Sort \
             enforcer is missing"
            (Sortspec.to_string sort)
            (if Sortspec.is_empty c.Props.dorder then "no order"
             else Sortspec.to_string c.Props.dorder)
    | Expr.P_motion m, [ _ ] -> (
        match (child 0, p.Expr.pchildren) with
        | Some cd, [ c ] -> check_motion ctx ~ridx ~node m c cd
        | _ -> ())
    | Expr.P_set (kind, _), cds when List.length cds >= 2 ->
        check_setop ctx ~ridx ~node kind p.Expr.pchildren cds
    | _ -> ()
  end;
  if arity_ok then
    try Physical_ops.derive p.Expr.pop child_derived
    with _ -> fallback_derived
  else fallback_derived

(* Analyze a plan; [req] is the root requirement the plan must deliver (the
   query's requested distribution and order). *)
let check ?(req = Props.any_req) (p : Expr.plan) : Diagnostic.t list =
  let ctx = { sink = Diagnostic.sink () } in
  let derived = check_node ctx ~params:Colref.Set.empty ~ridx:[] p in
  if not (Props.satisfies derived req) then
    emit ctx ~rule:rule_root ~severity:Diagnostic.Error ~ridx:[] ~node:p
      "the root delivers %s but the query requires %s%s"
      (Props.derived_to_string derived)
      (Props.req_to_string req)
      (match (req.Props.rdist, derived.Props.ddist) with
      | Props.Req_singleton, d when d <> Props.D_singleton ->
          " — the result is not gathered to the master"
      | _ -> "");
  Diagnostic.drain ctx.sink

(* Derived properties of a plan tree, for callers that want the root's
   delivered properties without diagnostics (EXPLAIN-style displays). *)
let derive_plan (p : Expr.plan) : Props.derived =
  let ctx = { sink = Diagnostic.sink () } in
  check_node ctx ~params:Colref.Set.empty ~ridx:[] p
