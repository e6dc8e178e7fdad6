(* Utilities over extracted physical plans. *)

open Expr

let make op children ~schema ~est_rows ~cost =
  { pop = op; pchildren = children; pschema = schema; pest_rows = est_rows; pcost = cost }

(* Build a plan node deriving the schema from the children. *)
let node op children ~est_rows ~cost =
  let schema =
    Physical_ops.output_cols op (List.map (fun c -> c.pschema) children)
  in
  make op children ~schema ~est_rows ~cost

let rec iter f (p : plan) =
  f p;
  List.iter (iter f) p.pchildren

let rec fold f acc (p : plan) =
  let acc = f acc p in
  List.fold_left (fold f) acc p.pchildren

let node_count p = fold (fun n _ -> n + 1) 0 p

(* Stable plan-node ids: preorder position in the tree, root = 0. The
   executor keys its per-node actual row counts on these ids and the
   accuracy join (lib/prov) re-derives the same numbering from the plan, so
   both sides agree without sharing state. The path is the child-index chain
   ("root.0.1"), matching the node paths used by the plan diff. *)
let number (p : plan) : (int * string * plan) list =
  let acc = ref [] in
  let next = ref 0 in
  let rec go path node =
    let id = !next in
    incr next;
    acc := (id, path, node) :: !acc;
    List.iteri
      (fun i child -> go (Printf.sprintf "%s.%d" path i) child)
      node.pchildren
  in
  go "root" p;
  List.rev !acc

let contains pred p = fold (fun found n -> found || pred n) false p

let count_motions p =
  fold
    (fun n node -> match node.pop with P_motion _ -> n + 1 | _ -> n)
    0 p

(* Re-derive the properties a subtree delivers, bottom-up. *)
let rec derive_props (p : plan) : Props.derived =
  Physical_ops.derive p.pop (List.map derive_props p.pchildren)

(* EXPLAIN-style rendering. [show_props] re-derives and prints the
   distribution and sort order each node delivers, so EXPLAIN output and the
   lint diagnostics of [Verify.Plan_check] share one renderer. *)
let to_string ?(show_cost = true) ?(show_props = false) (p : plan) =
  let buf = Buffer.create 256 in
  let rec go indent node =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_string buf "-> ";
    Buffer.add_string buf (Physical_ops.to_string node.pop);
    if show_cost then
      Buffer.add_string buf
        (Printf.sprintf "  (rows=%.0f cost=%.2f)" node.pest_rows node.pcost);
    let derived =
      if show_props then
        try Some (derive_props node) with _ -> None
      else None
    in
    (match derived with
    | Some d -> Buffer.add_string buf ("  " ^ Props.derived_to_string d)
    | None -> ());
    Buffer.add_char buf '\n';
    List.iter (go (indent + 1)) node.pchildren
  in
  go 0 p;
  Buffer.contents buf

(* Structural validation: arities match, every column referenced by an
   operator's payload is visible in its children (or is a correlation
   parameter), and the stored schema matches the derived one. Raises on the
   first violation; returns the number of nodes checked. *)
let validate (p : plan) =
  let checked = ref 0 in
  let rec go ~params node =
    incr checked;
    let expected_arity = Physical_ops.arity node.pop in
    if List.length node.pchildren <> expected_arity then
      Gpos.Gpos_error.internal "plan node %s: arity %d, expected %d"
        (Physical_ops.to_string node.pop)
        (List.length node.pchildren)
        expected_arity;
    let child_schemas = List.map (fun c -> c.pschema) node.pchildren in
    let derived = Physical_ops.output_cols node.pop child_schemas in
    if
      not
        (List.length derived = List.length node.pschema
        && List.for_all2 Colref.equal derived node.pschema)
    then
      Gpos.Gpos_error.internal "plan node %s: schema mismatch"
        (Physical_ops.to_string node.pop);
    let visible =
      List.fold_left
        (fun acc s -> Colref.Set.union acc (Colref.Set.of_list s))
        params child_schemas
    in
    let visible =
      match node.pop with
      | P_table_scan (td, _, _) | P_index_scan (td, _, _, _, _) ->
          Colref.Set.union visible (Colref.Set.of_list td.Table_desc.cols)
      | P_cte_consumer (_, cols) | P_const_table (cols, _) | P_set (_, cols) ->
          Colref.Set.union visible (Colref.Set.of_list cols)
      | _ -> visible
    in
    let check_scalar s =
      let free = Scalar_ops.free_cols s in
      if not (Colref.Set.subset free visible) then
        Gpos.Gpos_error.internal "plan node %s: unbound columns %s"
          (Physical_ops.to_string node.pop)
          (Colref.Set.to_string (Colref.Set.diff free visible))
    in
    let scalars = Physical_ops.scalars node.pop in
    List.iter check_scalar scalars;
    (* Subplans inside scalars are validated with their parameters visible. *)
    let subplans = ref [] in
    let rec collect s =
      (match s with Subplan sp -> subplans := sp :: !subplans | _ -> ());
      Scalar_ops.iter_children collect s
    in
    List.iter collect scalars;
    List.iter
      (fun sp ->
        let param_cols =
          Colref.Set.of_list (List.map snd sp.sp_params)
        in
        go ~params:(Colref.Set.union params param_cols) sp.sp_plan)
      !subplans;
    List.iter (go ~params) node.pchildren
  in
  go ~params:Colref.Set.empty p;
  !checked

(* Total plan cost as recorded by the optimizer. *)
let total_cost (p : plan) = p.pcost

let est_rows (p : plan) = p.pest_rows
