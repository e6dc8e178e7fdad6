(* AMPERe (paper §6.1): Automatic capture of Minimal Portable Executable
   Repros. A dump packages everything needed to reproduce an optimization
   session away from the system that produced it: the input query, the
   optimizer configuration, the metadata acquired during optimization (the
   MD Cache working set) and, for failures, the exception stack trace.

   Replaying a dump builds a file-based MD Provider from the embedded
   metadata and invokes an identical optimization session (Fig. 10). Dumps
   double as regression test cases: replay compares the produced plan
   against the expected plan serialized in the dump. *)

type dump = {
  stacktrace : string option;
  traceflags : (string * string) list;
  metadata : Catalog.Metadata.obj list;
  query : Dxl.Dxl_query.t;
  expected_plan : Ir.Expr.plan option;
  profile : string option;     (* rendered Obs.Report summary *)
  trace_json : string option;  (* Chrome trace_event JSON of the session *)
  prov : Dxl.Xml.element option;  (* dxl:Provenance, as written or read *)
}

(* --- capture --- *)

let capture ?(stacktrace = None) ?(traceflags = []) ?expected_plan
    (accessor : Catalog.Accessor.t) (query : Dxl.Dxl_query.t) : dump =
  {
    stacktrace;
    traceflags;
    metadata = Catalog.Accessor.accessed_objects accessor;
    query;
    expected_plan;
    profile = None;
    trace_json = None;
    prov = None;
  }

(* The dxl:Provenance section, rendered straight from lib/prov's record:
   one dxl:NodeProv per plan node in preorder, with its rule lineage (or
   the enforcer/synthetic reason), cost, estimated rows, and the number of
   losing alternatives with the cheapest one's cost delta. *)
let prov_to_xml (p : Prov.Provenance.t) : Dxl.Xml.element =
  let open Prov.Provenance in
  let fixed = Printf.sprintf "%.6f" in
  let node np =
    let kind, lineage, losers, best_delta =
      match np.np_kind with
      | K_operator oi ->
          ( "operator",
            lineage_to_string oi.oi_lineage,
            List.length oi.oi_losers,
            match oi.oi_losers with lo :: _ -> lo.lo_delta | [] -> 0.0 )
      | K_enforcer why -> ("enforcer", why, 0, 0.0)
      | K_synthetic why -> ("synthetic", why, 0, 0.0)
    in
    Dxl.Xml.Element
      (Dxl.Xml.element "dxl:NodeProv"
         ~attrs:
           [
             ("Id", string_of_int np.np_id);
             ("Path", np.np_path);
             ("Op", np.np_op);
             ("Kind", kind);
             ("Lineage", lineage);
             ("Cost", fixed np.np_cost);
             ("EstRows", fixed np.np_est_rows);
             ("Losers", string_of_int losers);
             ("BestDelta", fixed best_delta);
           ])
  in
  Dxl.Xml.element "dxl:Provenance"
    ~attrs:[ ("Stage", p.p_stage) ]
    ~children:(List.map node p.p_nodes)

(* Embed the observability report of a completed optimization: the rendered
   summary plus the Perfetto-loadable trace, so a dump carries the profile of
   the session it reproduces. No-op when the report has none. *)
let embed_report (d : dump) (report : Optimizer.report) : dump =
  let d =
    (* provenance travels with the dump whenever it was collected *)
    match report.Optimizer.prov with
    | None -> d
    | Some p -> { d with prov = Some (prov_to_xml p) }
  in
  match report.Optimizer.obs with
  | None -> d
  | Some r ->
      (* trimmed so the strings survive the DXL round trip byte-for-byte
         (the XML parser strips leading/trailing whitespace in text nodes) *)
      {
        d with
        profile = Some (String.trim (Obs.Report.to_string r));
        trace_json =
          (match r.Obs.Report.spans with
          | [] -> d.trace_json
          | spans ->
              Some (String.trim (Obs.Trace_export.to_chrome_json spans)));
      }

(* Capture a dump for a failed optimization. *)
let capture_exn (accessor : Catalog.Accessor.t) (query : Dxl.Dxl_query.t)
    (exn : exn) (backtrace : string) : dump =
  capture
    ~stacktrace:(Some (Gpos.Gpos_error.to_string exn ^ "\n" ^ backtrace))
    accessor query

(* The paper's automatic failure capture: any exception escaping the
   optimizer is converted into a dump embedding the query, the metadata
   working set acquired so far and the stack trace, so the failure can be
   replayed away from the system that produced it. *)
let optimize_with_capture ?config (accessor : Catalog.Accessor.t)
    (query : Dxl.Dxl_query.t) :
    (Optimizer.report, dump) Stdlib.result =
  let cfg = Option.value ~default:Orca_config.default config in
  (* Own the span session so a failure dump can still embed the partial
     trace of the spans completed before the exception. *)
  let owned = cfg.Orca_config.obs && Obs.Span.begin_session () in
  try
    let report = Optimizer.optimize ?config accessor query in
    let report =
      if owned then
        let spans = Obs.Span.end_session () in
        {
          report with
          Optimizer.obs =
            Option.map
              (fun r -> Obs.Report.with_spans r spans)
              report.Optimizer.obs;
        }
      else report
    in
    Ok report
  with exn ->
    let bt = Printexc.get_backtrace () in
    let trace_json =
      if owned then
        match Obs.Span.end_session () with
        | [] -> None
        | spans -> Some (String.trim (Obs.Trace_export.to_chrome_json spans))
      else None
    in
    Error { (capture_exn accessor query exn bt) with trace_json }

(* --- serialization --- *)

let to_xml (d : dump) : Dxl.Xml.element =
  let children =
    (match d.stacktrace with
    | None -> []
    | Some st ->
        [
          Dxl.Xml.Element
            (Dxl.Xml.element "dxl:Stacktrace"
               ~children:[ Dxl.Xml.Text st ]);
        ])
    @ List.map
        (fun (k, v) ->
          Dxl.Xml.Element
            (Dxl.Xml.element "dxl:TraceFlags" ~attrs:[ ("Name", k); ("Value", v) ]))
        d.traceflags
    @ [ Dxl.Xml.Element (Dxl.Dxl_metadata.objects_to_xml d.metadata) ]
    @ [
        Dxl.Xml.Element
          (Dxl.Dxl_query.query_element (Dxl.Dxl_query.to_xml d.query));
      ]
    @ (match d.expected_plan with
      | None -> []
      | Some p ->
          [
            Dxl.Xml.Element
              (Dxl.Xml.element "dxl:Plan"
                 ~children:[ Dxl.Xml.Element (Dxl.Dxl_plan.to_xml p) ]);
          ])
    @ (match d.profile with
      | None -> []
      | Some p ->
          [
            Dxl.Xml.Element
              (Dxl.Xml.element "dxl:ObsProfile" ~children:[ Dxl.Xml.Text p ]);
          ])
    @ (match d.trace_json with
      | None -> []
      | Some t ->
          [
            Dxl.Xml.Element
              (Dxl.Xml.element "dxl:ObsTrace" ~children:[ Dxl.Xml.Text t ]);
          ])
    @ match d.prov with None -> [] | Some p -> [ Dxl.Xml.Element p ]
  in
  Dxl.Xml.element "dxl:DXLMessage"
    ~attrs:[ ("xmlns:dxl", "http://greenplum.com/dxl/v1") ]
    ~children:
      [ Dxl.Xml.Element (Dxl.Xml.element "dxl:Thread" ~attrs:[ ("Id", "0") ] ~children) ]

let to_string (d : dump) = Dxl.Xml.to_string (to_xml d)

let of_xml (root : Dxl.Xml.element) : dump =
  let thread = Dxl.Xml.find_child_exn root "dxl:Thread" in
  let stacktrace =
    Option.map Dxl.Xml.text_content (Dxl.Xml.find_child thread "dxl:Stacktrace")
  in
  let traceflags =
    Dxl.Xml.children_named thread "dxl:TraceFlags"
    |> List.map (fun e ->
           (Dxl.Xml.attr_exn e "Name", Dxl.Xml.attr_exn e "Value"))
  in
  let metadata =
    Dxl.Dxl_metadata.objects_of_xml (Dxl.Xml.find_child_exn thread "dxl:Metadata")
  in
  let query = Dxl.Dxl_query.of_xml thread in
  let expected_plan =
    Option.map Dxl.Dxl_plan.of_message (Dxl.Xml.find_child thread "dxl:Plan")
  in
  let profile =
    Option.map Dxl.Xml.text_content (Dxl.Xml.find_child thread "dxl:ObsProfile")
  in
  let trace_json =
    Option.map Dxl.Xml.text_content (Dxl.Xml.find_child thread "dxl:ObsTrace")
  in
  let prov = Dxl.Xml.find_child thread "dxl:Provenance" in
  {
    stacktrace;
    traceflags;
    metadata;
    query;
    expected_plan;
    profile;
    trace_json;
    prov;
  }

let of_string (s : string) : dump = of_xml (Dxl.Xml.of_string s)

let save (d : dump) (path : string) =
  let oc = open_out path in
  output_string oc (to_string d);
  close_out oc

let load (path : string) : dump =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

(* --- replay (Fig. 10) --- *)

(* Replay a dump in-process: a file-based provider serves the embedded
   metadata, a fresh cache and accessor are spun up, and the optimizer is
   invoked on the embedded query — no backend database needed. *)
let replay ?(config = Orca_config.default) (d : dump) : Optimizer.report =
  let provider = Catalog.Provider.of_objects ~name:"ampere" d.metadata in
  let cache = Catalog.Md_cache.create () in
  let accessor = Catalog.Accessor.create ~provider ~cache () in
  Optimizer.optimize ~config accessor d.query

type verdict = Replay_match | Replay_plan_diff of string | Replay_failed of string

(* Use a dump as a regression test: replay and compare against the expected
   plan (paper: "any bug with an accompanying AMPERe dump can be
   automatically turned into a self-contained test case"). *)
let verify ?(config = Orca_config.default) (d : dump) : verdict =
  match replay ~config d with
  | exception e -> Replay_failed (Gpos.Gpos_error.to_string e)
  | report -> (
      match d.expected_plan with
      | None -> Replay_match
      | Some expected ->
          let got = Dxl.Dxl_plan.to_string report.Optimizer.plan in
          let want = Dxl.Dxl_plan.to_string expected in
          if got = want then Replay_match
          else
            Replay_plan_diff
              (Printf.sprintf "expected %d plan nodes, produced %d"
                 (Ir.Plan_ops.node_count expected)
                 (Ir.Plan_ops.node_count report.Optimizer.plan)))
