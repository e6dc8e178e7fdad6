(* Span exporters.

   [to_chrome_json] emits the Chrome trace_event format (an object with a
   "traceEvents" array of "ph":"X" complete events), loadable in Perfetto or
   chrome://tracing. Timestamps and durations are microseconds, as the
   format requires. Written through Gpos.Json, so the subsystem stays
   zero-dependency.

   [flame_summary] aggregates spans by path into a plain-text flame view:
   call count, total and self time, indented by depth.

   [check_consistency] is the self-consistency gate used by the CI
   profile-suite job: for every span that has children, the summed duration
   of its direct children must not exceed its own duration — nested
   disjoint spans measured by one clock can only undershoot their parent, so
   an overshoot means spans were misattributed or the clock misbehaved. *)

module Json = Gpos.Json

(* %.1f keeps timestamps stable across platforms (no %g exponent noise). *)
let event_to_json (e : Span.event) =
  Json.to_string
    (Obj
       [
         ("name", Str e.Span.sp_name);
         ("cat", Str "orca");
         ("ph", Str "X");
         ("ts", Num (Json.fixed 1 e.Span.sp_start_us));
         ("dur", Num (Json.fixed 1 e.Span.sp_dur_us));
         ("pid", Json.int 1);
         ("tid", Json.int e.Span.sp_domain);
         ( "args",
           Obj
             (List.map
                (fun (k, v) -> (k, Json.Str v))
                (("path", e.Span.sp_path) :: e.Span.sp_attrs)) );
       ])

let to_chrome_json (events : Span.event list) : string =
  let body =
    Span.sort_events events |> List.map event_to_json |> String.concat ",\n"
  in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" ^ body ^ "\n]}\n"

(* --- aggregation by path --- *)

type agg = {
  ag_path : string;
  ag_depth : int;
  ag_count : int;
  ag_total_us : float;
  ag_child_us : float;  (* summed durations of direct children *)
}

let parent_path path =
  match String.rindex_opt path '/' with
  | None -> None
  | Some i -> Some (String.sub path 0 i)

let aggregate (events : Span.event list) : agg list =
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Span.event) ->
      let cur =
        match Hashtbl.find_opt tbl e.Span.sp_path with
        | Some a -> a
        | None ->
            {
              ag_path = e.Span.sp_path;
              ag_depth = e.Span.sp_depth;
              ag_count = 0;
              ag_total_us = 0.0;
              ag_child_us = 0.0;
            }
      in
      Hashtbl.replace tbl e.Span.sp_path
        {
          cur with
          ag_count = cur.ag_count + 1;
          ag_total_us = cur.ag_total_us +. e.Span.sp_dur_us;
        })
    events;
  (* charge each path's total to its parent's child sum *)
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
  |> List.iter (fun a ->
         match parent_path a.ag_path with
         | None -> ()
         | Some pp -> (
             match Hashtbl.find_opt tbl pp with
             | None -> ()
             | Some p ->
                 Hashtbl.replace tbl pp
                   { p with ag_child_us = p.ag_child_us +. a.ag_total_us }));
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
  |> List.sort (fun a b -> compare a.ag_path b.ag_path)

let flame_summary (events : Span.event list) : string =
  let aggs = aggregate events in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-52s %6s %12s %12s\n" "span" "count" "total(ms)"
       "self(ms)");
  List.iter
    (fun a ->
      let name =
        match String.rindex_opt a.ag_path '/' with
        | None -> a.ag_path
        | Some i -> String.sub a.ag_path (i + 1) (String.length a.ag_path - i - 1)
      in
      let indent = String.make (2 * a.ag_depth) ' ' in
      Buffer.add_string buf
        (Printf.sprintf "%-52s %6d %12.3f %12.3f\n"
           (indent ^ name) a.ag_count (a.ag_total_us /. 1000.0)
           ((a.ag_total_us -. a.ag_child_us) /. 1000.0)))
    aggs;
  Buffer.contents buf

type violation = {
  v_path : string;  (* the parent span whose accounting is off *)
  v_total_us : float;
  v_children_us : float;
}

(* clock granularity a span's children may overrun it by *)
let slack_us = 200.0

(* Children of a span must sum to at most the span's own duration (plus
   [slack_us]). Returns the violating parents. *)
let check_consistency (events : Span.event list) : violation list =
  aggregate events
  |> List.filter_map (fun a ->
         if a.ag_child_us > a.ag_total_us +. slack_us then
           Some
             {
               v_path = a.ag_path;
               v_total_us = a.ag_total_us;
               v_children_us = a.ag_child_us;
             }
         else None)

let violation_to_string v =
  Printf.sprintf
    "span %s: children sum to %.3f ms but the span itself took %.3f ms"
    v.v_path (v.v_children_us /. 1000.0) (v.v_total_us /. 1000.0)
