(* DXL round-trip check: serialize the plan to a DXL plan message, re-parse
   it, and diff the result against the original tree. The serializer prints
   estimates with fixed precision, so cardinality and cost compare within the
   printed tolerance; everything else must match exactly. *)

open Ir

let rule_failed = "dxl/round-trip-failed"
let rule_diff = "dxl/round-trip-diff"
let rule_skipped = "dxl/subplan-not-serializable"

(* Printed as %.2f / %.4f by the serializer. *)
let rows_close a b = Float.abs (a -. b) <= 0.011 +. (1e-9 *. Float.abs a)
let cost_close a b = Float.abs (a -. b) <= 0.0011 +. (1e-9 *. Float.abs a)

let plan_has_subplan (p : Expr.plan) =
  Plan_ops.contains
    (fun n ->
      List.exists Scalar_ops.contains_subplan (Physical_ops.scalars n.Expr.pop))
    p

(* DXL carries no parameter slots: compare an operator as its round trip
   can rebuild it. *)
let unslotted (op : Expr.physical) =
  match Physical_ops.map_scalars Scalar_ops.erase_slots op with
  | Expr.P_limit (sort, offset, count, _) ->
      Expr.P_limit (sort, offset, count, Expr.no_limit_slots)
  | op -> op

let rec diff sink ~ridx (a : Expr.plan) (b : Expr.plan) =
  let path = Diagnostic.plan_path ridx in
  let node = Physical_ops.to_string a.Expr.pop in
  let emit fmt =
    Printf.ksprintf
      (fun message ->
        Diagnostic.emit sink
          (Diagnostic.make ~rule:rule_diff ~severity:Diagnostic.Error ~path
             ~node "%s" message))
      fmt
  in
  if not (Physical_ops.equal (unslotted a.Expr.pop) b.Expr.pop) then
    emit "operator changed across the round trip: %s became %s"
      (Physical_ops.to_string a.Expr.pop)
      (Physical_ops.to_string b.Expr.pop)
  else begin
    if
      not
        (List.length a.Expr.pschema = List.length b.Expr.pschema
        && List.for_all2 Colref.equal a.Expr.pschema b.Expr.pschema)
    then
      emit "schema changed across the round trip: [%s] became [%s]"
        (String.concat "," (List.map Colref.to_string a.Expr.pschema))
        (String.concat "," (List.map Colref.to_string b.Expr.pschema));
    if not (rows_close a.Expr.pest_rows b.Expr.pest_rows) then
      emit "row estimate changed across the round trip: %g became %g"
        a.Expr.pest_rows b.Expr.pest_rows;
    if not (cost_close a.Expr.pcost b.Expr.pcost) then
      emit "cost changed across the round trip: %g became %g" a.Expr.pcost
        b.Expr.pcost;
    if List.length a.Expr.pchildren <> List.length b.Expr.pchildren then
      emit "child count changed across the round trip: %d became %d"
        (List.length a.Expr.pchildren)
        (List.length b.Expr.pchildren)
    else
      List.iteri
        (fun i (ca, cb) -> diff sink ~ridx:(i :: ridx) ca cb)
        (List.combine a.Expr.pchildren b.Expr.pchildren)
  end

let check (p : Expr.plan) : Diagnostic.t list =
  let sink = Diagnostic.sink () in
  if plan_has_subplan p then
    Diagnostic.emit sink
      (Diagnostic.make ~rule:rule_skipped ~severity:Diagnostic.Info
         ~path:"root" ~node:(Physical_ops.to_string p.Expr.pop)
         "plan carries SubPlan scalars, which cannot cross DXL; round-trip \
          check skipped")
  else begin
    match Dxl.Dxl_plan.of_string (Dxl.Dxl_plan.to_string p) with
    | reparsed -> diff sink ~ridx:[] p reparsed
    | exception exn ->
        Diagnostic.emit sink
          (Diagnostic.make ~rule:rule_failed ~severity:Diagnostic.Error
             ~path:"root" ~node:(Physical_ops.to_string p.Expr.pop)
             "serialize/parse failed: %s" (Gpos.Gpos_error.to_string exn))
  end;
  Diagnostic.drain sink
