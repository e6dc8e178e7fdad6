open Catalog

(* DXL serialization of metadata objects (paper §5): relations and relation
   statistics (including column histograms). Enables the file-based MD
   Provider used to replay AMPERe dumps with no live backend (Fig. 10). *)

let col_md_to_xml i (c : Metadata.col_md) : Xml.element =
  Xml.element "dxl:Column"
    ~attrs:
      [
        ("Name", c.Metadata.col_name);
        ("Attno", string_of_int i);
        ("Type", Ir.Dtype.to_string c.Metadata.col_type);
      ]

let col_md_of_xml (e : Xml.element) : int * Metadata.col_md =
  ( int_of_string (Xml.attr_exn e "Attno"),
    {
      Metadata.col_name = Xml.attr_exn e "Name";
      col_type = Ir.Dtype.of_string (Xml.attr_exn e "Type");
    } )

let rel_to_xml (r : Metadata.rel_md) : Xml.element =
  let dist_attrs =
    match r.Metadata.rel_dist with
    | Metadata.Hash_cols ps ->
        [
          ("DistributionPolicy", "Hash");
          ("DistributionColumns", String.concat "," (List.map string_of_int ps));
        ]
    | Metadata.Random_dist -> [ ("DistributionPolicy", "Random") ]
    | Metadata.Replicated_dist -> [ ("DistributionPolicy", "Replicated") ]
  in
  let part_attrs =
    match r.Metadata.rel_part_col with
    | None -> []
    | Some p -> [ ("PartitionColumn", string_of_int p) ]
  in
  let parts =
    List.map
      (fun (p : Metadata.part_md) ->
        Xml.Element
          (Xml.element "dxl:Partition"
             ~attrs:
               [
                 ("Id", string_of_int p.Metadata.pm_id);
                 ("Lo", Ir.Datum.serialize p.Metadata.pm_lo);
                 ("Hi", Ir.Datum.serialize p.Metadata.pm_hi);
               ]))
      r.Metadata.rel_parts
  in
  let indexes =
    List.map
      (fun (i : Metadata.index_md) ->
        Xml.Element
          (Xml.element "dxl:Index"
             ~attrs:
               [
                 ("Name", i.Metadata.im_name);
                 ("Column", string_of_int i.Metadata.im_col);
               ]))
      r.Metadata.rel_indexes
  in
  Xml.element "dxl:Relation"
    ~attrs:
      ([
         ("Mdid", Md_id.to_string r.Metadata.rel_mdid);
         ("Name", r.Metadata.rel_name);
       ]
      @ dist_attrs @ part_attrs)
    ~children:
      (Xml.Element
         (Xml.element "dxl:Columns"
            ~children:
              (List.mapi
                 (fun i c -> Xml.Element (col_md_to_xml i c))
                 r.Metadata.rel_cols))
      :: (parts @ indexes))

let rel_of_xml (e : Xml.element) : Metadata.rel_md =
  let cols =
    Xml.child_elements (Xml.find_child_exn e "dxl:Columns")
    |> List.map col_md_of_xml
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let dist =
    match Xml.attr e "DistributionPolicy" with
    | Some "Hash" ->
        Metadata.Hash_cols
          (Xml.attr_exn e "DistributionColumns"
          |> String.split_on_char ','
          |> List.filter (fun s -> s <> "")
          |> List.map int_of_string)
    | Some "Replicated" -> Metadata.Replicated_dist
    | _ -> Metadata.Random_dist
  in
  let parts =
    Xml.children_named e "dxl:Partition"
    |> List.map (fun p ->
           {
             Metadata.pm_id = int_of_string (Xml.attr_exn p "Id");
             pm_lo = Ir.Datum.deserialize (Xml.attr_exn p "Lo");
             pm_hi = Ir.Datum.deserialize (Xml.attr_exn p "Hi");
           })
  in
  let indexes =
    Xml.children_named e "dxl:Index"
    |> List.map (fun i ->
           {
             Metadata.im_name = Xml.attr_exn i "Name";
             im_col = int_of_string (Xml.attr_exn i "Column");
           })
  in
  {
    Metadata.rel_mdid = Md_id.of_string (Xml.attr_exn e "Mdid");
    rel_name = Xml.attr_exn e "Name";
    rel_cols = cols;
    rel_dist = dist;
    rel_part_col = Option.map int_of_string (Xml.attr e "PartitionColumn");
    rel_parts = parts;
    rel_indexes = indexes;
  }

(* --- histograms --- *)

let histogram_to_xml (h : Stats.Histogram.t) : Xml.element =
  Xml.element "dxl:Histogram"
    ~attrs:[ ("NullRows", Printf.sprintf "%.4f" h.Stats.Histogram.null_rows) ]
    ~children:
      (List.map
         (fun (b : Stats.Histogram.bucket) ->
           Xml.Element
             (Xml.element "dxl:Bucket"
                ~attrs:
                  [
                    ("Lo", Ir.Datum.serialize b.Stats.Histogram.lo);
                    ("Hi", Ir.Datum.serialize b.Stats.Histogram.hi);
                    ("Rows", Printf.sprintf "%.4f" b.Stats.Histogram.rows);
                    ("Ndv", Printf.sprintf "%.4f" b.Stats.Histogram.ndv);
                  ]))
         h.Stats.Histogram.buckets)

(* A read histogram must keep the bucket invariant the histogram joins
   rely on (Stats.Histogram); a document breaking it is rejected. *)
let histogram_of_xml (e : Xml.element) : Stats.Histogram.t =
  let h =
    {
      Stats.Histogram.null_rows = float_of_string (Xml.attr_exn e "NullRows");
      buckets =
        Xml.children_named e "dxl:Bucket"
        |> List.map (fun b ->
               {
                 Stats.Histogram.lo = Ir.Datum.deserialize (Xml.attr_exn b "Lo");
                 hi = Ir.Datum.deserialize (Xml.attr_exn b "Hi");
                 rows = float_of_string (Xml.attr_exn b "Rows");
                 ndv = float_of_string (Xml.attr_exn b "Ndv");
               });
    }
  in
  if not (Stats.Histogram.well_formed h) then
    Gpos.Gpos_error.raise_error Gpos.Gpos_error.Dxl_error
      "histogram buckets out of order or overlapping";
  h

let rel_stats_to_xml (s : Metadata.rel_stats_md) : Xml.element =
  Xml.element "dxl:RelStats"
    ~attrs:
      [
        ("Mdid", Md_id.to_string s.Metadata.st_mdid);
        ("Rows", Printf.sprintf "%.2f" s.Metadata.st_rows);
      ]
    ~children:
      (List.map
         (fun (pos, h) ->
           Xml.Element
             (Xml.element "dxl:ColStats"
                ~attrs:[ ("Column", string_of_int pos) ]
                ~children:[ Xml.Element (histogram_to_xml h) ]))
         s.Metadata.st_col_hists)

let rel_stats_of_xml (e : Xml.element) : Metadata.rel_stats_md =
  {
    Metadata.st_mdid = Md_id.of_string (Xml.attr_exn e "Mdid");
    st_rows = float_of_string (Xml.attr_exn e "Rows");
    st_col_hists =
      Xml.children_named e "dxl:ColStats"
      |> List.map (fun c ->
             ( int_of_string (Xml.attr_exn c "Column"),
               histogram_of_xml (Xml.find_child_exn c "dxl:Histogram") ));
  }

(* --- collections of metadata objects --- *)

let obj_to_xml = function
  | Metadata.Rel r -> rel_to_xml r
  | Metadata.Rel_stats s -> rel_stats_to_xml s

let obj_of_xml (e : Xml.element) : Metadata.obj option =
  match e.Xml.tag with
  | "dxl:Relation" -> Some (Metadata.Rel (rel_of_xml e))
  | "dxl:RelStats" -> Some (Metadata.Rel_stats (rel_stats_of_xml e))
  | _ -> None

let objects_to_xml (objs : Metadata.obj list) : Xml.element =
  Xml.element "dxl:Metadata"
    ~attrs:[ ("SystemIds", "0.GPDB") ]
    ~children:(List.map (fun o -> Xml.Element (obj_to_xml o)) objs)

let objects_of_xml (e : Xml.element) : Metadata.obj list =
  let me = if e.Xml.tag = "dxl:Metadata" then e else Xml.find_child_exn e "dxl:Metadata" in
  Xml.child_elements me |> List.filter_map obj_of_xml

(* File-based MD Provider (paper §5): serve metadata from a serialized DXL
   document instead of a live system. *)
let file_provider_of_string (s : string) : Provider.t =
  let objs = objects_of_xml (Xml.of_string s) in
  Provider.of_objects ~name:"file" objs

let file_provider (path : string) : Provider.t =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  file_provider_of_string s

let to_string (objs : Metadata.obj list) = Xml.to_string (objects_to_xml objs)
