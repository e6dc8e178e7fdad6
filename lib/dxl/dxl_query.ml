open Ir

(* DXL query messages (paper Listing 1): required output columns, sorting
   columns, result distribution and the logical operator tree. A DXL query is
   the input to Orca; the database system's Query2DXL translator produces it. *)

type t = {
  output : Colref.t list;
  order : Sortspec.t;
  dist : Props.dist_req;
  tree : Ltree.t;
}

let dist_req_to_xml (d : Props.dist_req) : Xml.element =
  let attrs =
    match d with
    | Props.Any_dist -> [ ("Type", "Any") ]
    | Props.Req_singleton -> [ ("Type", "Singleton") ]
    | Props.Req_replicated -> [ ("Type", "Replicated") ]
    | Props.Req_non_singleton -> [ ("Type", "NonSingleton") ]
    | Props.Req_hashed cols ->
        [
          ("Type", "Hashed");
          ( "Columns",
            String.concat ","
              (List.map (fun c -> string_of_int (Colref.id c)) cols) );
        ]
  in
  Xml.element "dxl:Distribution" ~attrs

let dist_req_of_xml ~(resolve : int -> Colref.t) (e : Xml.element) :
    Props.dist_req =
  match Xml.attr_exn e "Type" with
  | "Any" -> Props.Any_dist
  | "Singleton" -> Props.Req_singleton
  | "Replicated" -> Props.Req_replicated
  | "NonSingleton" -> Props.Req_non_singleton
  | "Hashed" ->
      let ids =
        Xml.attr_exn e "Columns" |> String.split_on_char ','
        |> List.filter (fun s -> s <> "")
        |> List.map int_of_string
      in
      Props.Req_hashed (List.map resolve ids)
  | t ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
        "bad distribution type %S" t

(* --- logical operators --- *)

let apply_kind_to_xml (k : Expr.apply_kind) =
  match k with
  | Expr.Apply_scalar c ->
      ([ ("Kind", "Scalar") ], [ Xml.Element (Dxl_scalar.colref_to_xml ~tag:"dxl:Output" c) ])
  | Expr.Apply_exists -> ([ ("Kind", "Exists") ], [])
  | Expr.Apply_not_exists -> ([ ("Kind", "NotExists") ], [])
  | Expr.Apply_in (e, c) ->
      ( [ ("Kind", "In") ],
        [
          Xml.Element
            (Xml.element "dxl:Tested"
               ~children:[ Xml.Element (Dxl_scalar.to_xml e) ]);
          Xml.Element (Dxl_scalar.colref_to_xml ~tag:"dxl:Output" c);
        ] )
  | Expr.Apply_not_in (e, c) ->
      ( [ ("Kind", "NotIn") ],
        [
          Xml.Element
            (Xml.element "dxl:Tested"
               ~children:[ Xml.Element (Dxl_scalar.to_xml e) ]);
          Xml.Element (Dxl_scalar.colref_to_xml ~tag:"dxl:Output" c);
        ] )

let rec logical_to_xml (t : Ltree.t) : Xml.element =
  let children = List.map (fun c -> Xml.Element (logical_to_xml c)) t.Ltree.children in
  let scalar_child label s =
    Xml.Element
      (Xml.element label ~children:[ Xml.Element (Dxl_scalar.to_xml s) ])
  in
  match t.Ltree.op with
  | Expr.L_get td ->
      Xml.element "dxl:LogicalGet"
        ~children:[ Xml.Element (Dxl_scalar.table_desc_to_xml td) ]
  | Expr.L_select pred ->
      Xml.element "dxl:LogicalSelect"
        ~children:(scalar_child "dxl:Predicate" pred :: children)
  | Expr.L_project projs ->
      Xml.element "dxl:LogicalProject"
        ~children:
          (List.map (fun p -> Xml.Element (Dxl_scalar.proj_to_xml p)) projs
          @ children)
  | Expr.L_join (kind, cond) ->
      Xml.element "dxl:LogicalJoin"
        ~attrs:[ ("JoinType", Expr.join_kind_to_string kind) ]
        ~children:(children @ [ scalar_child "dxl:JoinCondition" cond ])
  | Expr.L_gb_agg (phase, keys, aggs) ->
      Xml.element "dxl:LogicalGbAgg"
        ~attrs:
          [
            ("Phase", Expr.agg_phase_to_string phase);
            ( "GroupingColumns",
              String.concat ","
                (List.map (fun c -> string_of_int (Colref.id c)) keys) );
          ]
        ~children:
          (Xml.Element
             (Xml.element "dxl:GroupingKeys"
                ~children:
                  (List.map
                     (fun c -> Xml.Element (Dxl_scalar.colref_to_xml c))
                     keys))
          :: List.map (fun a -> Xml.Element (Dxl_scalar.agg_to_xml a)) aggs
          @ children)
  | Expr.L_window (partition, order, wfuncs) ->
      Xml.element "dxl:LogicalWindow"
        ~children:
          (Dxl_scalar.window_payload_to_children partition order wfuncs
          @ children)
  | Expr.L_limit (sort, offset, count, _) ->
      Xml.element "dxl:LogicalLimit"
        ~attrs:
          ([ ("Offset", string_of_int offset) ]
          @ match count with None -> [] | Some c -> [ ("Count", string_of_int c) ])
        ~children:(Xml.Element (Dxl_scalar.sortspec_to_xml sort) :: children)
  | Expr.L_apply (kind, corr) ->
      let attrs, extra = apply_kind_to_xml kind in
      Xml.element "dxl:LogicalApply"
        ~attrs:
          (attrs
          @ [
              ( "CorrelatedColumns",
                String.concat ","
                  (List.map (fun c -> string_of_int (Colref.id c)) corr) );
            ])
        ~children:
          (extra
          @ Xml.Element
              (Xml.element "dxl:CorrelatedColumnRefs"
                 ~children:
                   (List.map
                      (fun c -> Xml.Element (Dxl_scalar.colref_to_xml c))
                      corr))
            :: children)
  | Expr.L_cte_producer id ->
      Xml.element "dxl:LogicalCTEProducer"
        ~attrs:[ ("CTEId", string_of_int id) ]
        ~children
  | Expr.L_cte_anchor id ->
      Xml.element "dxl:LogicalCTEAnchor"
        ~attrs:[ ("CTEId", string_of_int id) ]
        ~children
  | Expr.L_cte_consumer (id, cols) ->
      Xml.element "dxl:LogicalCTEConsumer"
        ~attrs:[ ("CTEId", string_of_int id) ]
        ~children:
          [
            Xml.Element
              (Xml.element "dxl:Columns"
                 ~children:
                   (List.map
                      (fun c -> Xml.Element (Dxl_scalar.colref_to_xml c))
                      cols));
          ]
  | Expr.L_set (kind, cols) ->
      Xml.element "dxl:LogicalSetOp"
        ~attrs:[ ("Kind", Expr.set_kind_to_string kind) ]
        ~children:
          (Xml.Element
             (Xml.element "dxl:Columns"
                ~children:
                  (List.map
                     (fun c -> Xml.Element (Dxl_scalar.colref_to_xml c))
                     cols))
          :: children)
  | Expr.L_const_table (cols, rows) ->
      Xml.element "dxl:LogicalConstTable"
        ~children:
          (Xml.Element
             (Xml.element "dxl:Columns"
                ~children:
                  (List.map
                     (fun c -> Xml.Element (Dxl_scalar.colref_to_xml c))
                     cols))
          :: List.map
               (fun row ->
                 Xml.Element
                   (Xml.element "dxl:Row"
                      ~attrs:
                        [
                          ( "Values",
                            String.concat "|" (List.map Datum.serialize row)
                          );
                        ]))
               rows)

let scalar_of_labeled (e : Xml.element) label =
  match Xml.child_elements (Xml.find_child_exn e label) with
  | [ x ] -> Dxl_scalar.of_xml x
  | _ ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "malformed <%s>"
        label

let cols_of_columns_child e =
  Xml.child_elements (Xml.find_child_exn e "dxl:Columns")
  |> List.map Dxl_scalar.colref_of_xml

let rec logical_of_xml (e : Xml.element) : Ltree.t =
  let op_children =
    Xml.child_elements e
    |> List.filter (fun (c : Xml.element) ->
           String.length c.Xml.tag >= 11
           && (String.sub c.Xml.tag 0 11 = "dxl:Logical"))
    |> List.map logical_of_xml
  in
  match e.Xml.tag with
  | "dxl:LogicalGet" ->
      Ltree.leaf
        (Expr.L_get
           (Dxl_scalar.table_desc_of_xml
              (Xml.find_child_exn e "dxl:TableDescriptor")))
  | "dxl:LogicalSelect" ->
      Ltree.make
        (Expr.L_select (scalar_of_labeled e "dxl:Predicate"))
        op_children
  | "dxl:LogicalProject" ->
      let projs =
        Xml.children_named e "dxl:ProjElem" |> List.map Dxl_scalar.proj_of_xml
      in
      Ltree.make (Expr.L_project projs) op_children
  | "dxl:LogicalJoin" ->
      let kind =
        match Xml.attr_exn e "JoinType" with
        | "Inner" -> Expr.Inner
        | "LeftOuter" -> Expr.Left_outer
        | "FullOuter" -> Expr.Full_outer
        | "Semi" -> Expr.Semi
        | "AntiSemi" -> Expr.Anti_semi
        | k ->
            Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
              "bad join type %S" k
      in
      Ltree.make
        (Expr.L_join (kind, scalar_of_labeled e "dxl:JoinCondition"))
        op_children
  | "dxl:LogicalGbAgg" ->
      let keys =
        Xml.child_elements (Xml.find_child_exn e "dxl:GroupingKeys")
        |> List.map Dxl_scalar.colref_of_xml
      in
      let aggs =
        Xml.children_named e "dxl:Aggregate" |> List.map Dxl_scalar.agg_of_xml
      in
      let phase =
        match Xml.attr_exn e "Phase" with
        | "" -> Expr.One_phase
        | "Partial" -> Expr.Partial
        | "Final" -> Expr.Final
        | p ->
            Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
              "bad agg phase %S" p
      in
      Ltree.make (Expr.L_gb_agg (phase, keys, aggs)) op_children
  | "dxl:LogicalWindow" ->
      let partition, order, wfuncs = Dxl_scalar.window_payload_of_xml e in
      Ltree.make (Expr.L_window (partition, order, wfuncs)) op_children
  | "dxl:LogicalLimit" ->
      let sort =
        match Xml.find_child e "dxl:SortingColumnList" with
        | Some s -> Dxl_scalar.sortspec_of_xml s
        | None -> Sortspec.empty
      in
      let offset = int_of_string (Xml.attr_exn e "Offset") in
      let count = Option.map int_of_string (Xml.attr e "Count") in
      Ltree.make (Expr.L_limit (sort, offset, count, Expr.no_limit_slots)) op_children
  | "dxl:LogicalApply" ->
      let corr =
        Xml.child_elements (Xml.find_child_exn e "dxl:CorrelatedColumnRefs")
        |> List.map Dxl_scalar.colref_of_xml
      in
      let output () =
        Dxl_scalar.colref_of_xml (Xml.find_child_exn e "dxl:Output")
      in
      let tested () = scalar_of_labeled e "dxl:Tested" in
      let kind =
        match Xml.attr_exn e "Kind" with
        | "Scalar" -> Expr.Apply_scalar (output ())
        | "Exists" -> Expr.Apply_exists
        | "NotExists" -> Expr.Apply_not_exists
        | "In" -> Expr.Apply_in (tested (), output ())
        | "NotIn" -> Expr.Apply_not_in (tested (), output ())
        | k ->
            Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
              "bad apply kind %S" k
      in
      Ltree.make (Expr.L_apply (kind, corr)) op_children
  | "dxl:LogicalCTEProducer" ->
      Ltree.make
        (Expr.L_cte_producer (int_of_string (Xml.attr_exn e "CTEId")))
        op_children
  | "dxl:LogicalCTEAnchor" ->
      Ltree.make
        (Expr.L_cte_anchor (int_of_string (Xml.attr_exn e "CTEId")))
        op_children
  | "dxl:LogicalCTEConsumer" ->
      Ltree.leaf
        (Expr.L_cte_consumer
           (int_of_string (Xml.attr_exn e "CTEId"), cols_of_columns_child e))
  | "dxl:LogicalSetOp" ->
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
      Ltree.make (Expr.L_set (kind, cols_of_columns_child e)) op_children
  | "dxl:LogicalConstTable" ->
      let cols = cols_of_columns_child e in
      let rows =
        Xml.children_named e "dxl:Row"
        |> List.map (fun r ->
               match Xml.attr_exn r "Values" with
               | "" -> []
               | s -> List.map Datum.deserialize (String.split_on_char '|' s))
      in
      Ltree.leaf (Expr.L_const_table (cols, rows))
  | tag ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
        "unknown logical element <%s>" tag

(* --- whole query messages --- *)

let to_xml (q : t) : Xml.element =
  Xml.element "dxl:DXLMessage"
    ~attrs:[ ("xmlns:dxl", "http://greenplum.com/dxl/v1") ]
    ~children:
      [
        Xml.Element
          (Xml.element "dxl:Query"
             ~children:
               [
                 Xml.Element
                   (Xml.element "dxl:OutputColumns"
                      ~children:
                        (List.map
                           (fun c -> Xml.Element (Dxl_scalar.colref_to_xml c))
                           q.output));
                 Xml.Element (Dxl_scalar.sortspec_to_xml q.order);
                 Xml.Element (dist_req_to_xml q.dist);
                 Xml.Element (logical_to_xml q.tree);
               ]);
      ]

let query_element (root : Xml.element) =
  if root.Xml.tag = "dxl:Query" then root
  else Xml.find_child_exn root "dxl:Query"

let of_xml (root : Xml.element) : t =
  let qe = query_element root in
  let output =
    Xml.child_elements (Xml.find_child_exn qe "dxl:OutputColumns")
    |> List.map Dxl_scalar.colref_of_xml
  in
  let order =
    Dxl_scalar.sortspec_of_xml (Xml.find_child_exn qe "dxl:SortingColumnList")
  in
  let tree =
    match
      Xml.child_elements qe
      |> List.find_opt (fun (c : Xml.element) ->
             String.length c.Xml.tag >= 11
             && String.sub c.Xml.tag 0 11 = "dxl:Logical")
    with
    | Some e -> logical_of_xml e
    | None ->
        Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
          "query message has no logical tree"
  in
  let all_cols = Ltree.output_cols tree @ output in
  let resolve id =
    match List.find_opt (fun c -> Colref.id c = id) all_cols with
    | Some c -> c
    | None -> Colref.make ~id ~name:(Printf.sprintf "c%d" id) ~ty:Dtype.Int
  in
  let dist =
    dist_req_of_xml ~resolve (Xml.find_child_exn qe "dxl:Distribution")
  in
  { output; order; dist; tree }

let to_string (q : t) = Xml.to_string (to_xml q)

let of_string (s : string) : t = of_xml (Xml.of_string s)

(* Highest column id mentioned anywhere in the query; the optimizer's colref
   factory starts past it. *)
let max_col_id (q : t) : int =
  let tree_max =
    Ltree.fold
      (fun acc node ->
        let cols =
          Colref.Set.elements (Logical_ops.used_cols node.Ltree.op)
          @ Logical_ops.output_cols node.Ltree.op
              (List.map Ltree.output_cols node.Ltree.children)
        in
        List.fold_left (fun m c -> max m (Colref.id c)) acc cols)
      0 q.tree
  in
  List.fold_left (fun m c -> max m (Colref.id c)) tree_max q.output
