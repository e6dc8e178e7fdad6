open Ir

(* DXL physical plan messages: the optimizer's output, consumed by the
   database system's DXL2Plan translator (here, the execution simulator). *)

let rec to_xml (p : Expr.plan) : Xml.element =
  let children = List.map (fun c -> Xml.Element (to_xml c)) p.Expr.pchildren in
  let scalar_child label s =
    Xml.Element
      (Xml.element label ~children:[ Xml.Element (Dxl_scalar.to_xml s) ])
  in
  let schema =
    Xml.Element
      (Xml.element "dxl:OutputColumns"
         ~children:
           (List.map
              (fun c -> Xml.Element (Dxl_scalar.colref_to_xml c))
              p.Expr.pschema))
  in
  let base_attrs =
    [
      ("EstRows", Printf.sprintf "%.2f" p.Expr.pest_rows);
      ("Cost", Printf.sprintf "%.4f" p.Expr.pcost);
    ]
  in
  let elem tag ?(attrs = []) ?(extra = []) () =
    Xml.element tag ~attrs:(attrs @ base_attrs)
      ~children:((schema :: extra) @ children)
  in
  match p.Expr.pop with
  | Expr.P_table_scan (td, parts, filter) ->
      let attrs =
        match parts with
        | None -> []
        | Some ids ->
            [ ("Partitions", String.concat "," (List.map string_of_int ids)) ]
      in
      let extra =
        [ Xml.Element (Dxl_scalar.table_desc_to_xml td) ]
        @
        match filter with
        | None -> []
        | Some f -> [ scalar_child "dxl:Filter" f ]
      in
      elem "dxl:TableScan" ~attrs ~extra ()
  | Expr.P_index_scan (td, idx, cmp, key, residual) ->
      let extra =
        [
          Xml.Element (Dxl_scalar.table_desc_to_xml td);
          scalar_child "dxl:IndexCond" key;
        ]
        @
        match residual with
        | None -> []
        | Some f -> [ scalar_child "dxl:Filter" f ]
      in
      elem "dxl:IndexScan"
        ~attrs:
          [
            ("Index", idx.Table_desc.idx_name);
            ("Operator", Expr.cmp_to_string cmp);
          ]
        ~extra ()
  | Expr.P_filter pred -> elem "dxl:Result" ~extra:[ scalar_child "dxl:Filter" pred ] ()
  | Expr.P_project projs ->
      elem "dxl:ComputeScalar"
        ~extra:(List.map (fun pr -> Xml.Element (Dxl_scalar.proj_to_xml pr)) projs)
        ()
  | Expr.P_hash_join (kind, keys, residual) ->
      let key_elems =
        List.map
          (fun (a, b) ->
            Xml.Element
              (Xml.element "dxl:HashCond"
                 ~children:
                   [
                     Xml.Element (Dxl_scalar.to_xml a);
                     Xml.Element (Dxl_scalar.to_xml b);
                   ]))
          keys
      in
      let extra =
        key_elems
        @
        match residual with
        | None -> []
        | Some f -> [ scalar_child "dxl:JoinFilter" f ]
      in
      elem "dxl:HashJoin"
        ~attrs:[ ("JoinType", Expr.join_kind_to_string kind) ]
        ~extra ()
  | Expr.P_merge_join (kind, keys, residual) ->
      let key_elems =
        List.map
          (fun (a, b) ->
            Xml.Element
              (Xml.element "dxl:MergeCond"
                 ~children:
                   [
                     Xml.Element (Dxl_scalar.colref_to_xml a);
                     Xml.Element (Dxl_scalar.colref_to_xml b);
                   ]))
          keys
      in
      let extra =
        key_elems
        @
        match residual with
        | None -> []
        | Some f -> [ scalar_child "dxl:JoinFilter" f ]
      in
      elem "dxl:MergeJoin"
        ~attrs:[ ("JoinType", Expr.join_kind_to_string kind) ]
        ~extra ()
  | Expr.P_nl_join (kind, cond) ->
      elem "dxl:NestedLoopJoin"
        ~attrs:[ ("JoinType", Expr.join_kind_to_string kind) ]
        ~extra:[ scalar_child "dxl:JoinFilter" cond ]
        ()
  | Expr.P_hash_agg (phase, keys, aggs) | Expr.P_stream_agg (phase, keys, aggs)
    ->
      let tag =
        match p.Expr.pop with
        | Expr.P_hash_agg _ -> "dxl:HashAggregate"
        | _ -> "dxl:StreamAggregate"
      in
      elem tag
        ~attrs:[ ("Phase", Expr.agg_phase_to_string phase) ]
        ~extra:
          (Xml.Element
             (Xml.element "dxl:GroupingKeys"
                ~children:
                  (List.map
                     (fun c -> Xml.Element (Dxl_scalar.colref_to_xml c))
                     keys))
          :: List.map (fun a -> Xml.Element (Dxl_scalar.agg_to_xml a)) aggs)
        ()
  | Expr.P_window (partition, order, wfuncs) ->
      elem "dxl:Window"
        ~extra:(Dxl_scalar.window_payload_to_children partition order wfuncs)
        ()
  | Expr.P_sort spec ->
      elem "dxl:Sort" ~extra:[ Xml.Element (Dxl_scalar.sortspec_to_xml spec) ] ()
  | Expr.P_limit (sort, offset, count, _) ->
      elem "dxl:Limit"
        ~attrs:
          ([ ("Offset", string_of_int offset) ]
          @ match count with None -> [] | Some c -> [ ("Count", string_of_int c) ])
        ~extra:[ Xml.Element (Dxl_scalar.sortspec_to_xml sort) ]
        ()
  | Expr.P_motion m -> (
      match m with
      | Expr.Gather -> elem "dxl:GatherMotion" ()
      | Expr.Gather_merge spec ->
          elem "dxl:GatherMergeMotion"
            ~extra:[ Xml.Element (Dxl_scalar.sortspec_to_xml spec) ]
            ()
      | Expr.Redistribute es ->
          elem "dxl:RedistributeMotion"
            ~extra:
              (List.map
                 (fun e ->
                   Xml.Element
                     (Xml.element "dxl:HashExpr"
                        ~children:[ Xml.Element (Dxl_scalar.to_xml e) ]))
                 es)
            ()
      | Expr.Broadcast -> elem "dxl:BroadcastMotion" ())
  | Expr.P_cte_producer id ->
      elem "dxl:CTEProducer" ~attrs:[ ("CTEId", string_of_int id) ] ()
  | Expr.P_cte_consumer (id, _) ->
      elem "dxl:CTEConsumer" ~attrs:[ ("CTEId", string_of_int id) ] ()
  | Expr.P_sequence id ->
      elem "dxl:Sequence" ~attrs:[ ("CTEId", string_of_int id) ] ()
  | Expr.P_set (kind, _) ->
      elem "dxl:SetOp" ~attrs:[ ("Kind", Expr.set_kind_to_string kind) ] ()
  | Expr.P_const_table (_, rows) ->
      elem "dxl:ConstTable"
        ~extra:
          (List.map
             (fun row ->
               Xml.Element
                 (Xml.element "dxl:Row"
                    ~attrs:
                      [
                        ("Values", String.concat "|" (List.map Datum.serialize row));
                      ]))
             rows)
        ()
  | Expr.P_partition_selector parts ->
      elem "dxl:PartitionSelector"
        ~attrs:[ ("Partitions", String.concat "," (List.map string_of_int parts)) ]
        ()

let message (p : Expr.plan) : Xml.element =
  Xml.element "dxl:DXLMessage"
    ~attrs:[ ("xmlns:dxl", "http://greenplum.com/dxl/v1") ]
    ~children:
      [ Xml.Element (Xml.element "dxl:Plan" ~children:[ Xml.Element (to_xml p) ]) ]

(* --- parsing --- *)

let schema_of e =
  Xml.child_elements (Xml.find_child_exn e "dxl:OutputColumns")
  |> List.map Dxl_scalar.colref_of_xml

let scalar_of e label =
  match Xml.child_elements (Xml.find_child_exn e label) with
  | [ x ] -> Dxl_scalar.of_xml x
  | _ ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "malformed <%s>"
        label

let opt_scalar_of e label =
  match Xml.find_child e label with
  | None -> None
  | Some c -> (
      match Xml.child_elements c with
      | [ x ] -> Some (Dxl_scalar.of_xml x)
      | _ -> None)

let plan_tags =
  [
    "dxl:TableScan"; "dxl:IndexScan"; "dxl:Result"; "dxl:ComputeScalar";
    "dxl:HashJoin"; "dxl:MergeJoin"; "dxl:NestedLoopJoin"; "dxl:HashAggregate";
    "dxl:Window";
    "dxl:StreamAggregate"; "dxl:Sort"; "dxl:Limit"; "dxl:GatherMotion";
    "dxl:GatherMergeMotion"; "dxl:RedistributeMotion"; "dxl:BroadcastMotion";
    "dxl:CTEProducer"; "dxl:CTEConsumer"; "dxl:Sequence"; "dxl:SetOp";
    "dxl:ConstTable"; "dxl:PartitionSelector";
  ]

let join_kind_of e =
  match Xml.attr_exn e "JoinType" with
  | "Inner" -> Expr.Inner
  | "LeftOuter" -> Expr.Left_outer
  | "FullOuter" -> Expr.Full_outer
  | "Semi" -> Expr.Semi
  | "AntiSemi" -> Expr.Anti_semi
  | k ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "bad join type %S" k

let agg_phase_of e =
  match Xml.attr_exn e "Phase" with
  | "" -> Expr.One_phase
  | "Partial" -> Expr.Partial
  | "Final" -> Expr.Final
  | p -> Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "bad phase %S" p

let rec of_xml (e : Xml.element) : Expr.plan =
  let children =
    Xml.child_elements e
    |> List.filter (fun (c : Xml.element) -> List.mem c.Xml.tag plan_tags)
    |> List.map of_xml
  in
  let schema = schema_of e in
  let est_rows = float_of_string (Xml.attr_exn e "EstRows") in
  let cost = float_of_string (Xml.attr_exn e "Cost") in
  let op =
    match e.Xml.tag with
    | "dxl:TableScan" ->
        let td =
          Dxl_scalar.table_desc_of_xml
            (Xml.find_child_exn e "dxl:TableDescriptor")
        in
        let parts =
          Option.map
            (fun s ->
              String.split_on_char ',' s
              |> List.filter (fun x -> x <> "")
              |> List.map int_of_string)
            (Xml.attr e "Partitions")
        in
        Expr.P_table_scan (td, parts, opt_scalar_of e "dxl:Filter")
    | "dxl:IndexScan" ->
        let td =
          Dxl_scalar.table_desc_of_xml
            (Xml.find_child_exn e "dxl:TableDescriptor")
        in
        let idx_name = Xml.attr_exn e "Index" in
        let idx =
          match
            List.find_opt
              (fun (i : Table_desc.index) -> i.Table_desc.idx_name = idx_name)
              td.Table_desc.indexes
          with
          | Some i -> i
          | None ->
              Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
                "unknown index %S" idx_name
        in
        Expr.P_index_scan
          ( td,
            idx,
            Dxl_scalar.cmp_of_string (Xml.attr_exn e "Operator"),
            scalar_of e "dxl:IndexCond",
            opt_scalar_of e "dxl:Filter" )
    | "dxl:Result" -> Expr.P_filter (scalar_of e "dxl:Filter")
    | "dxl:ComputeScalar" ->
        Expr.P_project
          (Xml.children_named e "dxl:ProjElem" |> List.map Dxl_scalar.proj_of_xml)
    | "dxl:HashJoin" ->
        let keys =
          Xml.children_named e "dxl:HashCond"
          |> List.map (fun c ->
                 match Xml.child_elements c with
                 | [ a; b ] -> (Dxl_scalar.of_xml a, Dxl_scalar.of_xml b)
                 | _ ->
                     Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
                       "malformed <dxl:HashCond>")
        in
        Expr.P_hash_join (join_kind_of e, keys, opt_scalar_of e "dxl:JoinFilter")
    | "dxl:MergeJoin" ->
        let keys =
          Xml.children_named e "dxl:MergeCond"
          |> List.map (fun c ->
                 match Xml.child_elements c with
                 | [ a; b ] ->
                     (Dxl_scalar.colref_of_xml a, Dxl_scalar.colref_of_xml b)
                 | _ ->
                     Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
                       "malformed <dxl:MergeCond>")
        in
        Expr.P_merge_join
          (join_kind_of e, keys, opt_scalar_of e "dxl:JoinFilter")
    | "dxl:NestedLoopJoin" ->
        Expr.P_nl_join (join_kind_of e, scalar_of e "dxl:JoinFilter")
    | "dxl:HashAggregate" | "dxl:StreamAggregate" ->
        let keys =
          Xml.child_elements (Xml.find_child_exn e "dxl:GroupingKeys")
          |> List.map Dxl_scalar.colref_of_xml
        in
        let aggs =
          Xml.children_named e "dxl:Aggregate" |> List.map Dxl_scalar.agg_of_xml
        in
        if e.Xml.tag = "dxl:HashAggregate" then
          Expr.P_hash_agg (agg_phase_of e, keys, aggs)
        else Expr.P_stream_agg (agg_phase_of e, keys, aggs)
    | "dxl:Window" ->
        let partition, order, wfuncs = Dxl_scalar.window_payload_of_xml e in
        Expr.P_window (partition, order, wfuncs)
    | "dxl:Sort" ->
        Expr.P_sort
          (Dxl_scalar.sortspec_of_xml
             (Xml.find_child_exn e "dxl:SortingColumnList"))
    | "dxl:Limit" ->
        let sort =
          match Xml.find_child e "dxl:SortingColumnList" with
          | Some s -> Dxl_scalar.sortspec_of_xml s
          | None -> Sortspec.empty
        in
        Expr.P_limit
          ( sort,
            int_of_string (Xml.attr_exn e "Offset"),
            Option.map int_of_string (Xml.attr e "Count"),
            Expr.no_limit_slots )
    | "dxl:GatherMotion" -> Expr.P_motion Expr.Gather
    | "dxl:GatherMergeMotion" ->
        Expr.P_motion
          (Expr.Gather_merge
             (Dxl_scalar.sortspec_of_xml
                (Xml.find_child_exn e "dxl:SortingColumnList")))
    | "dxl:RedistributeMotion" ->
        let es =
          Xml.children_named e "dxl:HashExpr"
          |> List.map (fun h ->
                 match Xml.child_elements h with
                 | [ x ] -> Dxl_scalar.of_xml x
                 | _ ->
                     Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
                       "malformed <dxl:HashExpr>")
        in
        Expr.P_motion (Expr.Redistribute es)
    | "dxl:BroadcastMotion" -> Expr.P_motion Expr.Broadcast
    | "dxl:CTEProducer" ->
        Expr.P_cte_producer (int_of_string (Xml.attr_exn e "CTEId"))
    | "dxl:CTEConsumer" ->
        Expr.P_cte_consumer (int_of_string (Xml.attr_exn e "CTEId"), schema)
    | "dxl:Sequence" -> Expr.P_sequence (int_of_string (Xml.attr_exn e "CTEId"))
    | "dxl:SetOp" ->
        let kind =
          match Xml.attr_exn e "Kind" with
          | "UnionAll" -> Expr.Union_all
          | "Union" -> Expr.Union_distinct
          | "Intersect" -> Expr.Intersect
          | "Except" -> Expr.Except
          | k ->
              Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
                "bad set kind %S" k
        in
        Expr.P_set (kind, schema)
    | "dxl:ConstTable" ->
        let rows =
          Xml.children_named e "dxl:Row"
          |> List.map (fun r ->
                 match Xml.attr_exn r "Values" with
                 | "" -> []
                 | s -> List.map Datum.deserialize (String.split_on_char '|' s))
        in
        Expr.P_const_table (schema, rows)
    | "dxl:PartitionSelector" ->
        Expr.P_partition_selector
          (Xml.attr_exn e "Partitions" |> String.split_on_char ','
          |> List.filter (fun x -> x <> "")
          |> List.map int_of_string)
    | tag ->
        Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
          "unknown plan element <%s>" tag
  in
  {
    Expr.pop = op;
    pchildren = children;
    pschema = schema;
    pest_rows = est_rows;
    pcost = cost;
  }

let of_message (root : Xml.element) : Expr.plan =
  let pe =
    if root.Xml.tag = "dxl:Plan" then root else Xml.find_child_exn root "dxl:Plan"
  in
  match Xml.child_elements pe with
  | [ p ] -> of_xml p
  | _ ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
        "plan message must contain exactly one root"

let to_string (p : Expr.plan) = Xml.to_string (message p)
let add_json_escaped buf (p : Expr.plan) = Xml.add_json_escaped buf (message p)

let of_string (s : string) : Expr.plan = of_message (Xml.of_string s)
