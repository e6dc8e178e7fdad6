open Ir

(* DXL (de)serialization of scalar expressions, column references, sort
   specifications and projections. Subplans never cross DXL: they are
   internal to the legacy Planner's execution and are rejected here. *)

let colref_to_xml ?(tag = "dxl:Ident") (c : Colref.t) : Xml.element =
  Xml.element tag
    ~attrs:
      [
        ("ColId", string_of_int (Colref.id c));
        ("Name", Colref.name c);
        ("Type", Dtype.to_string (Colref.ty c));
      ]

let colref_of_xml (e : Xml.element) : Colref.t =
  Colref.make
    ~id:(int_of_string (Xml.attr_exn e "ColId"))
    ~name:(Xml.attr_exn e "Name")
    ~ty:(Dtype.of_string (Xml.attr_exn e "Type"))

let cmp_of_string s =
  match s with
  | "=" -> Expr.Eq
  | "<>" -> Expr.Neq
  | "<" -> Expr.Lt
  | "<=" -> Expr.Le
  | ">" -> Expr.Gt
  | ">=" -> Expr.Ge
  | _ -> Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "bad cmp %S" s

let arith_of_string s =
  match s with
  | "+" -> Expr.Add
  | "-" -> Expr.Sub
  | "*" -> Expr.Mul
  | "/" -> Expr.Div
  | "%" -> Expr.Mod
  | _ -> Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "bad arith %S" s

let rec to_xml (s : Expr.scalar) : Xml.element =
  match s with
  | Expr.Col c -> colref_to_xml c
  | Expr.Const d | Expr.Slot (_, d) ->
      Xml.element "dxl:Const" ~attrs:[ ("Value", Datum.serialize d) ]
  | Expr.Cmp (op, a, b) ->
      Xml.element "dxl:Comparison"
        ~attrs:[ ("Operator", Expr.cmp_to_string op) ]
        ~children:[ Xml.Element (to_xml a); Xml.Element (to_xml b) ]
  | Expr.And cs ->
      Xml.element "dxl:And"
        ~children:(List.map (fun c -> Xml.Element (to_xml c)) cs)
  | Expr.Or cs ->
      Xml.element "dxl:Or"
        ~children:(List.map (fun c -> Xml.Element (to_xml c)) cs)
  | Expr.Not c -> Xml.element "dxl:Not" ~children:[ Xml.Element (to_xml c) ]
  | Expr.Arith (op, a, b) ->
      Xml.element "dxl:Arith"
        ~attrs:[ ("Operator", Expr.arith_to_string op) ]
        ~children:[ Xml.Element (to_xml a); Xml.Element (to_xml b) ]
  | Expr.Is_null c ->
      Xml.element "dxl:IsNull" ~children:[ Xml.Element (to_xml c) ]
  | Expr.Case (whens, els) ->
      let when_elems =
        List.map
          (fun (c, v) ->
            Xml.Element
              (Xml.element "dxl:When"
                 ~children:[ Xml.Element (to_xml c); Xml.Element (to_xml v) ]))
          whens
      in
      let else_elems =
        match els with
        | None -> []
        | Some v ->
            [
              Xml.Element
                (Xml.element "dxl:Else" ~children:[ Xml.Element (to_xml v) ]);
            ]
      in
      Xml.element "dxl:Case" ~children:(when_elems @ else_elems)
  | Expr.In_list (c, ds) ->
      Xml.element "dxl:InList"
        ~attrs:
          [ ("Values", String.concat "|" (List.map Datum.serialize ds)) ]
        ~children:[ Xml.Element (to_xml c) ]
  | Expr.Like (c, pat) ->
      Xml.element "dxl:Like" ~attrs:[ ("Pattern", pat) ]
        ~children:[ Xml.Element (to_xml c) ]
  | Expr.Coalesce cs ->
      Xml.element "dxl:Coalesce"
        ~children:(List.map (fun c -> Xml.Element (to_xml c)) cs)
  | Expr.Cast (c, ty) ->
      Xml.element "dxl:Cast"
        ~attrs:[ ("Type", Dtype.to_string ty) ]
        ~children:[ Xml.Element (to_xml c) ]
  | Expr.Subplan _ ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
        "SubPlan scalars cannot be serialized to DXL"

let rec of_xml (e : Xml.element) : Expr.scalar =
  let kids () = List.map of_xml (Xml.child_elements e) in
  let kid n =
    match List.nth_opt (Xml.child_elements e) n with
    | Some c -> of_xml c
    | None ->
        Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
          "<%s>: missing operand %d" e.Xml.tag n
  in
  match e.Xml.tag with
  | "dxl:Ident" -> Expr.Col (colref_of_xml e)
  | "dxl:Const" -> Expr.Const (Datum.deserialize (Xml.attr_exn e "Value"))
  | "dxl:Comparison" ->
      Expr.Cmp (cmp_of_string (Xml.attr_exn e "Operator"), kid 0, kid 1)
  | "dxl:And" -> Expr.And (kids ())
  | "dxl:Or" -> Expr.Or (kids ())
  | "dxl:Not" -> Expr.Not (kid 0)
  | "dxl:Arith" ->
      Expr.Arith (arith_of_string (Xml.attr_exn e "Operator"), kid 0, kid 1)
  | "dxl:IsNull" -> Expr.Is_null (kid 0)
  | "dxl:Case" ->
      let whens =
        Xml.children_named e "dxl:When"
        |> List.map (fun w ->
               match Xml.child_elements w with
               | [ c; v ] -> (of_xml c, of_xml v)
               | _ ->
                   Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
                     "malformed <dxl:When>")
      in
      let els =
        match Xml.find_child e "dxl:Else" with
        | Some el -> (
            match Xml.child_elements el with
            | [ v ] -> Some (of_xml v)
            | _ -> None)
        | None -> None
      in
      Expr.Case (whens, els)
  | "dxl:InList" ->
      let values =
        match Xml.attr_exn e "Values" with
        | "" -> []
        | s -> List.map Datum.deserialize (String.split_on_char '|' s)
      in
      Expr.In_list (kid 0, values)
  | "dxl:Like" -> Expr.Like (kid 0, Xml.attr_exn e "Pattern")
  | "dxl:Coalesce" -> Expr.Coalesce (kids ())
  | "dxl:Cast" -> Expr.Cast (kid 0, Dtype.of_string (Xml.attr_exn e "Type"))
  | tag ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
        "unknown scalar element <%s>" tag

(* --- sort specifications --- *)

let sortspec_to_xml (spec : Sortspec.t) : Xml.element =
  Xml.element "dxl:SortingColumnList"
    ~children:
      (List.map
         (fun (i : Sortspec.item) ->
           Xml.Element
             (Xml.element "dxl:SortingColumn"
                ~attrs:
                  [
                    ("ColId", string_of_int (Colref.id i.Sortspec.col));
                    ("Name", Colref.name i.Sortspec.col);
                    ("Type", Dtype.to_string (Colref.ty i.Sortspec.col));
                    ("Dir", Sortspec.dir_to_string i.Sortspec.dir);
                  ]))
         spec)

let sortspec_of_xml (e : Xml.element) : Sortspec.t =
  Xml.children_named e "dxl:SortingColumn"
  |> List.map (fun c ->
         let col =
           Colref.make
             ~id:(int_of_string (Xml.attr_exn c "ColId"))
             ~name:(Xml.attr_exn c "Name")
             ~ty:(Dtype.of_string (Xml.attr_exn c "Type"))
         in
         match Xml.attr_exn c "Dir" with
         | "asc" -> Sortspec.asc col
         | "desc" -> Sortspec.desc col
         | d ->
             Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
               "bad sort direction %S" d)

(* --- aggregates and projections --- *)

let agg_to_xml (a : Expr.agg) : Xml.element =
  let attrs =
    [
      ("Kind", Expr.agg_kind_to_string a.Expr.agg_kind);
      ("Distinct", string_of_bool a.Expr.agg_distinct);
    ]
  in
  Xml.element "dxl:Aggregate" ~attrs
    ~children:
      ([ Xml.Element (colref_to_xml ~tag:"dxl:Output" a.Expr.agg_out) ]
      @
      match a.Expr.agg_arg with
      | None -> []
      | Some arg ->
          [
            Xml.Element
              (Xml.element "dxl:Arg" ~children:[ Xml.Element (to_xml arg) ]);
          ])

let agg_kind_of_string = function
  | "count(*)" -> Expr.Count_star
  | "count" -> Expr.Count
  | "sum" -> Expr.Sum
  | "min" -> Expr.Min
  | "max" -> Expr.Max
  | s ->
      Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error "bad agg kind %S" s

let agg_of_xml (e : Xml.element) : Expr.agg =
  let out = colref_of_xml (Xml.find_child_exn e "dxl:Output") in
  let arg =
    match Xml.find_child e "dxl:Arg" with
    | Some a -> (
        match Xml.child_elements a with [ x ] -> Some (of_xml x) | _ -> None)
    | None -> None
  in
  {
    Expr.agg_kind = agg_kind_of_string (Xml.attr_exn e "Kind");
    agg_arg = arg;
    agg_distinct = bool_of_string (Xml.attr_exn e "Distinct");
    agg_out = out;
  }

let wfunc_to_xml (w : Expr.wfunc) : Xml.element =
  Xml.element "dxl:WindowFunc"
    ~attrs:[ ("Kind", Expr.wkind_to_string w.Expr.wf_kind) ]
    ~children:
      ([ Xml.Element (colref_to_xml ~tag:"dxl:Output" w.Expr.wf_out) ]
      @
      match w.Expr.wf_arg with
      | None -> []
      | Some arg ->
          [
            Xml.Element
              (Xml.element "dxl:Arg" ~children:[ Xml.Element (to_xml arg) ]);
          ])

let wkind_of_string = function
  | "row_number" -> Expr.W_row_number
  | "rank" -> Expr.W_rank
  | "dense_rank" -> Expr.W_dense_rank
  | s -> Expr.W_agg (agg_kind_of_string s)

let wfunc_of_xml (e : Xml.element) : Expr.wfunc =
  let out = colref_of_xml (Xml.find_child_exn e "dxl:Output") in
  let arg =
    match Xml.find_child e "dxl:Arg" with
    | Some a -> (
        match Xml.child_elements a with [ x ] -> Some (of_xml x) | _ -> None)
    | None -> None
  in
  {
    Expr.wf_kind = wkind_of_string (Xml.attr_exn e "Kind");
    wf_arg = arg;
    wf_out = out;
  }

let window_payload_to_children partition order wfuncs =
  Xml.Element
    (Xml.element "dxl:PartitionColumns"
       ~children:
         (List.map (fun c -> Xml.Element (colref_to_xml c)) partition))
  :: Xml.Element (sortspec_to_xml order)
  :: List.map (fun w -> Xml.Element (wfunc_to_xml w)) wfuncs

let window_payload_of_xml (e : Xml.element) =
  let partition =
    Xml.child_elements (Xml.find_child_exn e "dxl:PartitionColumns")
    |> List.map colref_of_xml
  in
  let order = sortspec_of_xml (Xml.find_child_exn e "dxl:SortingColumnList") in
  let wfuncs = Xml.children_named e "dxl:WindowFunc" |> List.map wfunc_of_xml in
  (partition, order, wfuncs)

let proj_to_xml (p : Expr.proj) : Xml.element =
  Xml.element "dxl:ProjElem"
    ~children:
      [
        Xml.Element (colref_to_xml ~tag:"dxl:Output" p.Expr.proj_out);
        Xml.Element
          (Xml.element "dxl:Expr"
             ~children:[ Xml.Element (to_xml p.Expr.proj_expr) ]);
      ]

let proj_of_xml (e : Xml.element) : Expr.proj =
  let out = colref_of_xml (Xml.find_child_exn e "dxl:Output") in
  let expr =
    match Xml.child_elements (Xml.find_child_exn e "dxl:Expr") with
    | [ x ] -> of_xml x
    | _ ->
        Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
          "malformed <dxl:Expr>"
  in
  { Expr.proj_expr = expr; proj_out = out }

(* --- table descriptors --- *)

let table_desc_to_xml (td : Table_desc.t) : Xml.element =
  let cols =
    Xml.element "dxl:Columns"
      ~children:
        (List.map (fun c -> Xml.Element (colref_to_xml c)) td.Table_desc.cols)
  in
  let dist_attrs =
    match td.Table_desc.dist with
    | Table_desc.Dist_hash cols ->
        [
          ("DistributionPolicy", "Hash");
          ( "DistributionColumns",
            String.concat "," (List.map (fun c -> string_of_int (Colref.id c)) cols)
          );
        ]
    | Table_desc.Dist_random -> [ ("DistributionPolicy", "Random") ]
    | Table_desc.Dist_replicated -> [ ("DistributionPolicy", "Replicated") ]
  in
  let part_children =
    match td.Table_desc.part_col with
    | None -> []
    | Some pc ->
        [
          Xml.Element
            (Xml.element "dxl:Partitioning"
               ~attrs:[ ("ColId", string_of_int (Colref.id pc)) ]
               ~children:
                 (List.map
                    (fun (p : Table_desc.part) ->
                      Xml.Element
                        (Xml.element "dxl:Partition"
                           ~attrs:
                             [
                               ("Id", string_of_int p.Table_desc.part_id);
                               ("Lo", Datum.serialize p.Table_desc.lo);
                               ("Hi", Datum.serialize p.Table_desc.hi);
                             ]))
                    td.Table_desc.parts));
        ]
  in
  let index_children =
    List.map
      (fun (i : Table_desc.index) ->
        Xml.Element
          (Xml.element "dxl:Index"
             ~attrs:
               [
                 ("Name", i.Table_desc.idx_name);
                 ("ColId", string_of_int (Colref.id i.Table_desc.idx_col));
               ]))
      td.Table_desc.indexes
  in
  Xml.element "dxl:TableDescriptor"
    ~attrs:([ ("Mdid", td.Table_desc.mdid); ("Name", td.Table_desc.name) ] @ dist_attrs)
    ~children:([ Xml.Element cols ] @ part_children @ index_children)

let table_desc_of_xml (e : Xml.element) : Table_desc.t =
  let cols =
    Xml.child_elements (Xml.find_child_exn e "dxl:Columns")
    |> List.map colref_of_xml
  in
  let by_id id =
    match List.find_opt (fun c -> Colref.id c = id) cols with
    | Some c -> c
    | None ->
        Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
          "table descriptor references unknown column %d" id
  in
  let dist =
    match Xml.attr e "DistributionPolicy" with
    | Some "Hash" ->
        let col_ids =
          Xml.attr_exn e "DistributionColumns"
          |> String.split_on_char ','
          |> List.filter (fun s -> s <> "")
          |> List.map int_of_string
        in
        Table_desc.Dist_hash (List.map by_id col_ids)
    | Some "Replicated" -> Table_desc.Dist_replicated
    | Some "Random" | None -> Table_desc.Dist_random
    | Some p ->
        Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
          "bad distribution policy %S" p
  in
  let part_col, parts =
    match Xml.find_child e "dxl:Partitioning" with
    | None -> (None, [])
    | Some p ->
        let pc = by_id (int_of_string (Xml.attr_exn p "ColId")) in
        let parts =
          Xml.children_named p "dxl:Partition"
          |> List.map (fun pe ->
                 {
                   Table_desc.part_id = int_of_string (Xml.attr_exn pe "Id");
                   lo = Datum.deserialize (Xml.attr_exn pe "Lo");
                   hi = Datum.deserialize (Xml.attr_exn pe "Hi");
                 })
        in
        (Some pc, parts)
  in
  let indexes =
    Xml.children_named e "dxl:Index"
    |> List.map (fun ie ->
           {
             Table_desc.idx_name = Xml.attr_exn ie "Name";
             idx_col = by_id (int_of_string (Xml.attr_exn ie "ColId"));
           })
  in
  Table_desc.make ~dist ?part_col ~parts ~indexes
    ~mdid:(Xml.attr_exn e "Mdid") ~name:(Xml.attr_exn e "Name") cols
