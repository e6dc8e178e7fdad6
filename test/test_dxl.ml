open Ir

(* Tests for DXL: XML reader/writer, scalar/query/plan/metadata round-trips,
   the file-based provider, and parsing a Listing-1-shaped message. *)

let test_xml_roundtrip () =
  let e =
    Dxl.Xml.element "root"
      ~attrs:[ ("a", "1 < 2 & \"q\""); ("b", "x") ]
      ~children:
        [
          Dxl.Xml.Element (Dxl.Xml.element "child" ~attrs:[ ("k", "v'") ]);
          Dxl.Xml.Element
            (Dxl.Xml.element "other" ~children:[ Dxl.Xml.Text "some <text>" ]);
        ]
  in
  let s = Dxl.Xml.to_string e in
  let e' = Dxl.Xml.of_string s in
  Alcotest.(check string) "tag" "root" e'.Dxl.Xml.tag;
  Alcotest.(check (option string)) "escaped attr" (Some "1 < 2 & \"q\"")
    (Dxl.Xml.attr e' "a");
  let other = Dxl.Xml.find_child_exn e' "other" in
  Alcotest.(check string) "text content" "some <text>" (Dxl.Xml.text_content other)

let test_xml_comments_and_decl () =
  let s =
    "<?xml version=\"1.0\"?>\n<!-- a comment --><root><!-- inner --><x/></root>"
  in
  let e = Dxl.Xml.of_string s in
  Alcotest.(check int) "one child" 1 (List.length (Dxl.Xml.child_elements e))

let test_xml_malformed () =
  Alcotest.(check bool) "mismatched tags rejected" true
    (try
       ignore (Dxl.Xml.of_string "<a><b></a></b>");
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Dxl_error, _) -> true)

(* The exact bytes the printer writes: the five entities in an attribute
   and in text, two-space indentation, self-closed empty elements, text-only
   elements on one line, mixed children one per line, and the header. *)
let test_xml_printer_golden () =
  let open Dxl.Xml in
  let entities = "a<b>c&d\"e'f" in
  let escaped = "a&lt;b&gt;c&amp;d&quot;e&apos;f" in
  let leaf = element "leaf" ~attrs:[ ("v", entities) ] ~children:[ Text entities ] in
  Alcotest.(check string) "entities, with header"
    ("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<leaf v=\"" ^ escaped ^ "\">"
   ^ escaped ^ "</leaf>\n")
    (to_string leaf);
  Alcotest.(check string) "entities, without header"
    ("<leaf v=\"" ^ escaped ^ "\">" ^ escaped ^ "</leaf>\n")
    (to_string ~header:false leaf);
  let doc =
    element "doc"
      ~attrs:[ ("k", "v"); ("empty", "") ]
      ~children:
        [
          Element (element "none");
          Element
            (element "outer"
               ~children:
                 [
                   Element (element "inner" ~attrs:[ ("x", "1") ]);
                   Text "mid & end";
                   Element (element "p" ~children:[ Text "a<"; Text ">b" ]);
                 ]);
          Text "tail";
        ]
  in
  Alcotest.(check string) "nested, empty and mixed children"
    "<doc k=\"v\" empty=\"\">\n\
    \  <none/>\n\
    \  <outer>\n\
    \    <inner x=\"1\"/>\n\
    \    mid &amp; end\n\
    \    <p>a&lt;&gt;b</p>\n\
    \  </outer>\n\
    \  tail\n\
     </doc>\n"
    (to_string ~header:false doc)

(* Printing straight into a JSON string body gives the bytes of escaping the
   plain output, including the bytes JSON must escape (backslash, control
   bytes) inside values and text, and the markup's quotes and newlines. *)
let test_xml_json_escaped () =
  let open Dxl.Xml in
  let tricky = "q\"b\\s\tt\r\n\x01 caf\xc3\xa9 <&>'" in
  let doc =
    element "dxl:Root"
      ~attrs:[ ("v", tricky) ]
      ~children:
        [
          Element (element "leaf" ~children:[ Text tricky ]);
          Text tricky;
          Element (element "empty");
        ]
  in
  let expected = Buffer.create 256 in
  Gpos.Json.escape expected (to_string doc);
  let got = Buffer.create 16 in
  Buffer.add_string got "prefix:";
  add_json_escaped got doc;
  Alcotest.(check string) "escaped plain output, appended"
    ("prefix:" ^ Buffer.contents expected)
    (Buffer.contents got)

(* --- scalar round-trips, including a qcheck generator --- *)

let scalar_roundtrip s =
  let xml = Dxl.Dxl_scalar.to_xml s in
  let s' = Dxl.Dxl_scalar.of_xml (Dxl.Xml.of_string (Dxl.Xml.to_string xml)) in
  Scalar_ops.equal s s'

let test_scalar_examples () =
  let a = Fixtures.col 1 "a" and b = Fixtures.col 2 "b" in
  let cases =
    [
      Expr.Col a;
      Expr.Const (Datum.String "o'hara <&>");
      Expr.Cmp (Expr.Le, Expr.Col a, Expr.Const (Datum.Float 2.5));
      Expr.And [ Expr.Col a; Expr.Not (Expr.Col b) ];
      Expr.Case
        ( [ (Expr.Is_null (Expr.Col a), Expr.Const (Datum.Int 1)) ],
          Some (Expr.Col b) );
      Expr.In_list (Expr.Col a, [ Datum.Int 1; Datum.Null; Datum.String "x" ]);
      Expr.Like (Expr.Col b, "%abc_");
      Expr.Coalesce [ Expr.Col a; Expr.Const (Datum.Int 0) ];
      Expr.Cast (Expr.Col a, Dtype.Float);
      Expr.Arith (Expr.Mod, Expr.Col a, Expr.Const (Datum.Int 7));
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Scalar_ops.to_string s)
        true (scalar_roundtrip s))
    cases

let scalar_gen : Expr.scalar QCheck.Gen.t =
  let open QCheck.Gen in
  let col = map (fun i -> Expr.Col (Fixtures.col (i mod 8) "c")) small_nat in
  let const =
    oneof
      [
        map (fun n -> Expr.Const (Datum.Int n)) small_int;
        return (Expr.Const Datum.Null);
        map (fun b -> Expr.Const (Datum.Bool b)) bool;
        map (fun s -> Expr.Const (Datum.String s)) (string_size (int_bound 6));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then oneof [ col; const ]
      else
        frequency
          [
            (2, col);
            (2, const);
            ( 3,
              map2
                (fun a b -> Expr.Cmp (Expr.Eq, a, b))
                (self (depth - 1)) (self (depth - 1)) );
            ( 2,
              map2
                (fun a b -> Expr.Arith (Expr.Add, a, b))
                (self (depth - 1)) (self (depth - 1)) );
            (1, map (fun a -> Expr.Not a) (self (depth - 1)));
            ( 1,
              map2
                (fun a b -> Expr.And [ a; b ])
                (self (depth - 1)) (self (depth - 1)) );
            (1, map (fun a -> Expr.Is_null a) (self (depth - 1)));
            (1, map (fun a -> Expr.Coalesce [ a ]) (self (depth - 1)));
          ])
    3

let prop_scalar_roundtrip =
  QCheck.Test.make ~count:200 ~name:"random scalar DXL round-trip"
    (QCheck.make scalar_gen) scalar_roundtrip

(* --- query round-trip --- *)

let test_query_roundtrip () =
  let accessor = Fixtures.small_accessor () in
  let sql =
    "SELECT t1.a, count(*) AS c FROM t1, t2 WHERE t1.a = t2.b AND t2.a < 10 \
     GROUP BY t1.a ORDER BY t1.a DESC LIMIT 5"
  in
  let q = Sqlfront.Binder.bind_sql accessor sql in
  let s = Dxl.Dxl_query.to_string q in
  let q' = Dxl.Dxl_query.of_string s in
  Alcotest.(check string) "serialization is stable" s (Dxl.Dxl_query.to_string q');
  Alcotest.(check int) "output arity" (List.length q.Dxl.Dxl_query.output)
    (List.length q'.Dxl.Dxl_query.output);
  Alcotest.(check bool) "order preserved" true
    (Sortspec.equal q.Dxl.Dxl_query.order q'.Dxl.Dxl_query.order)

let test_query_with_apply_roundtrip () =
  let accessor = Fixtures.small_accessor () in
  let sql =
    "SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.b = t1.a)"
  in
  let q = Sqlfront.Binder.bind_sql accessor sql in
  let s = Dxl.Dxl_query.to_string q in
  let q' = Dxl.Dxl_query.of_string s in
  Alcotest.(check string) "stable" s (Dxl.Dxl_query.to_string q')

(* --- plan round-trip --- *)

let test_plan_roundtrip () =
  let _, report, _, _ =
    Fixtures.run_orca_sql
      "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY t1.a LIMIT 3"
  in
  let plan = report.Orca.Optimizer.plan in
  let s = Dxl.Dxl_plan.to_string plan in
  let plan' = Dxl.Dxl_plan.of_string s in
  Alcotest.(check int) "node count" (Plan_ops.node_count plan)
    (Plan_ops.node_count plan');
  Alcotest.(check string) "stable" s (Dxl.Dxl_plan.to_string plan');
  (* the round-tripped plan executes identically *)
  let s' = Lazy.force Fixtures.small in
  let rows, _ = Exec.Executor.run s'.Fixtures.cluster plan' in
  let rows0, _ = Exec.Executor.run s'.Fixtures.cluster plan in
  Alcotest.(check bool) "same results" true (Fixtures.rows_equal rows rows0)

(* --- metadata round-trip + file provider --- *)

let test_metadata_roundtrip () =
  let s = Lazy.force Fixtures.small in
  let recording, recorded = Catalog.Provider.recording s.Fixtures.provider in
  let cache = Catalog.Md_cache.create () in
  let acc = Catalog.Accessor.create ~provider:recording ~cache () in
  let td = Option.get (Catalog.Accessor.bind_table acc "t1") in
  ignore (Catalog.Accessor.base_stats acc td);
  let objs = recorded () in
  let text = Dxl.Dxl_metadata.to_string objs in
  let provider = Dxl.Dxl_metadata.file_provider_of_string text in
  let acc2 =
    Catalog.Accessor.create ~provider ~cache:(Catalog.Md_cache.create ()) ()
  in
  let td2 = Option.get (Catalog.Accessor.bind_table acc2 "t1") in
  let stats = Catalog.Accessor.base_stats acc2 td2 in
  Alcotest.(check bool) "row count survives" true
    (Stats.Relstats.rows stats = 500.0);
  let a = List.hd td2.Table_desc.cols in
  Alcotest.(check bool) "histograms survive" true
    (match Stats.Relstats.col_hist stats a with
    | Some h -> Stats.Histogram.total_rows h > 400.0
    | None -> false)

(* A histogram read from a document must keep the bucket invariant the
   histogram joins rely on: a built one round-trips, overlapping buckets
   are a DXL error. *)
let test_histogram_invariant_on_read () =
  let h = Stats.Histogram.build (List.init 200 (fun i -> Datum.Int (i mod 37))) in
  let back = Dxl.Dxl_metadata.(histogram_of_xml (histogram_to_xml h)) in
  Alcotest.(check int) "buckets survive"
    (List.length h.Stats.Histogram.buckets)
    (List.length back.Stats.Histogram.buckets);
  let bucket lo hi =
    { Stats.Histogram.lo = Datum.Int lo; hi = Datum.Int hi; rows = 5.0; ndv = 3.0 }
  in
  let overlapping =
    { Stats.Histogram.buckets = [ bucket 0 10; bucket 5 20 ]; null_rows = 0.0 }
  in
  Alcotest.(check bool) "overlapping buckets rejected" true
    (try
       ignore Dxl.Dxl_metadata.(histogram_of_xml (histogram_to_xml overlapping));
       false
     with Gpos.Gpos_error.Error (Gpos.Gpos_error.Dxl_error, _) -> true)

let test_listing1_shape () =
  (* a hand-written message in the shape of the paper's Listing 1 *)
  let text =
    {|<?xml version="1.0" encoding="UTF-8"?>
<dxl:DXLMessage xmlns:dxl="http://greenplum.com/dxl/v1">
 <dxl:Query>
  <dxl:OutputColumns>
   <dxl:Ident ColId="0" Name="a" Type="int"/>
  </dxl:OutputColumns>
  <dxl:SortingColumnList>
   <dxl:SortingColumn ColId="0" Name="a" Type="int" Dir="asc"/>
  </dxl:SortingColumnList>
  <dxl:Distribution Type="Singleton"/>
  <dxl:LogicalJoin JoinType="Inner">
   <dxl:LogicalGet>
    <dxl:TableDescriptor Mdid="0.1639448.1.1" Name="T1" DistributionPolicy="Hash" DistributionColumns="0">
     <dxl:Columns>
      <dxl:Ident ColId="0" Name="a" Type="int"/>
      <dxl:Ident ColId="1" Name="b" Type="int"/>
     </dxl:Columns>
    </dxl:TableDescriptor>
   </dxl:LogicalGet>
   <dxl:LogicalGet>
    <dxl:TableDescriptor Mdid="0.2868145.1.1" Name="T2" DistributionPolicy="Hash" DistributionColumns="2">
     <dxl:Columns>
      <dxl:Ident ColId="2" Name="a" Type="int"/>
      <dxl:Ident ColId="3" Name="b" Type="int"/>
     </dxl:Columns>
    </dxl:TableDescriptor>
   </dxl:LogicalGet>
   <dxl:JoinCondition>
    <dxl:Comparison Operator="=">
     <dxl:Ident ColId="0" Name="a" Type="int"/>
     <dxl:Ident ColId="3" Name="b" Type="int"/>
    </dxl:Comparison>
   </dxl:JoinCondition>
  </dxl:LogicalJoin>
 </dxl:Query>
</dxl:DXLMessage>|}
  in
  let q = Dxl.Dxl_query.of_string text in
  Alcotest.(check int) "one output column" 1 (List.length q.Dxl.Dxl_query.output);
  Alcotest.(check bool) "singleton distribution" true
    (q.Dxl.Dxl_query.dist = Props.Req_singleton);
  match q.Dxl.Dxl_query.tree.Ltree.op with
  | Expr.L_join (Expr.Inner, _) -> ()
  | _ -> Alcotest.fail "expected inner join root"

(* --- aggregate / window-function / sort-spec payload round-trips --- *)

let test_payload_roundtrips () =
  let a = Fixtures.col 1 "a" and b = Fixtures.col 2 "b" in
  let rt_xml to_xml of_xml v =
    of_xml (Dxl.Xml.of_string (Dxl.Xml.to_string (to_xml v)))
  in
  (* aggregates, including DISTINCT and count-star *)
  List.iter
    (fun (agg : Expr.agg) ->
      let agg' = rt_xml Dxl.Dxl_scalar.agg_to_xml Dxl.Dxl_scalar.agg_of_xml agg in
      Alcotest.(check bool)
        (Logical_ops.agg_to_string agg)
        true
        (agg.Expr.agg_kind = agg'.Expr.agg_kind
        && agg.Expr.agg_distinct = agg'.Expr.agg_distinct
        && Colref.equal agg.Expr.agg_out agg'.Expr.agg_out
        && Option.equal Scalar_ops.equal agg.Expr.agg_arg agg'.Expr.agg_arg))
    [
      { Expr.agg_kind = Expr.Count_star; agg_arg = None; agg_distinct = false;
        agg_out = a };
      { Expr.agg_kind = Expr.Sum; agg_arg = Some (Expr.Col b);
        agg_distinct = false; agg_out = a };
      { Expr.agg_kind = Expr.Count;
        agg_arg = Some (Expr.Arith (Expr.Add, Expr.Col a, Expr.Col b));
        agg_distinct = true; agg_out = b };
      { Expr.agg_kind = Expr.Min; agg_arg = Some (Expr.Col a);
        agg_distinct = false; agg_out = b };
    ];
  (* window functions *)
  List.iter
    (fun (w : Expr.wfunc) ->
      let w' = rt_xml Dxl.Dxl_scalar.wfunc_to_xml Dxl.Dxl_scalar.wfunc_of_xml w in
      Alcotest.(check bool)
        (Logical_ops.wfunc_to_string w)
        true
        (w.Expr.wf_kind = w'.Expr.wf_kind
        && Colref.equal w.Expr.wf_out w'.Expr.wf_out
        && Option.equal Scalar_ops.equal w.Expr.wf_arg w'.Expr.wf_arg))
    [
      { Expr.wf_kind = Expr.W_row_number; wf_arg = None; wf_out = a };
      { Expr.wf_kind = Expr.W_rank; wf_arg = None; wf_out = b };
      { Expr.wf_kind = Expr.W_dense_rank; wf_arg = None; wf_out = b };
      { Expr.wf_kind = Expr.W_agg Expr.Sum; wf_arg = Some (Expr.Col b);
        wf_out = a };
      { Expr.wf_kind = Expr.W_agg Expr.Count_star; wf_arg = None; wf_out = a };
    ];
  (* sort specs, and the full window payload triple *)
  let spec = [ Sortspec.asc a; Sortspec.desc b ] in
  Alcotest.(check bool)
    "sortspec roundtrip" true
    (Sortspec.equal spec
       (rt_xml Dxl.Dxl_scalar.sortspec_to_xml Dxl.Dxl_scalar.sortspec_of_xml
          spec));
  let wfuncs = [ { Expr.wf_kind = Expr.W_rank; wf_arg = None; wf_out = b } ] in
  let children =
    Dxl.Dxl_scalar.window_payload_to_children [ a ] spec wfuncs
  in
  let holder = Dxl.Xml.element "dxl:Window" ~children in
  let part', spec', wfuncs' =
    Dxl.Dxl_scalar.window_payload_of_xml
      (Dxl.Xml.of_string (Dxl.Xml.to_string holder))
  in
  Alcotest.(check bool)
    "window payload roundtrip" true
    (List.length part' = 1
    && Colref.equal (List.hd part') a
    && Sortspec.equal spec spec'
    && List.length wfuncs' = 1
    && (List.hd wfuncs').Expr.wf_kind = Expr.W_rank)

let suite =
  [
    Alcotest.test_case "xml roundtrip" `Quick test_xml_roundtrip;
    Alcotest.test_case "xml comments" `Quick test_xml_comments_and_decl;
    Alcotest.test_case "xml malformed" `Quick test_xml_malformed;
    Alcotest.test_case "scalar examples" `Quick test_scalar_examples;
    QCheck_alcotest.to_alcotest prop_scalar_roundtrip;
    Alcotest.test_case "query roundtrip" `Quick test_query_roundtrip;
    Alcotest.test_case "apply roundtrip" `Quick test_query_with_apply_roundtrip;
    Alcotest.test_case "plan roundtrip" `Quick test_plan_roundtrip;
    Alcotest.test_case "metadata + file provider" `Quick test_metadata_roundtrip;
    Alcotest.test_case "Listing 1 shape" `Quick test_listing1_shape;
    Alcotest.test_case "agg/wfunc/sortspec payloads" `Quick
      test_payload_roundtrips;
    Alcotest.test_case "xml printer golden" `Quick test_xml_printer_golden;
    Alcotest.test_case "xml printed JSON-escaped" `Quick test_xml_json_escaped;
    Alcotest.test_case "histogram invariant on read" `Quick
      test_histogram_invariant_on_read;
  ]
