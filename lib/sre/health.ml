(* Readiness policy for the service endpoints. Pure: numbers in, verdict
   out, so thresholds are unit-testable without sockets or servers. *)

type input = {
  h_uptime_s : float;
  h_sessions_open : int;
  h_sessions_total : int;
  h_requests : int;
  h_errors : int;
  h_snapshot_age_s : float;
  h_catalog_version : int;
  h_stats_version : int;
  h_cache_entries : int;
  h_cache_capacity : int;
  h_slo : Slo.report option;
}

type check = { c_name : string; c_ok : bool; c_detail : string }

type verdict = { ready : bool; checks : check list }

(* Readiness thresholds: at most 10% of requests may have failed, and the
   cache must be under 95% full. *)
let max_error_rate = 0.10
let max_occupancy = 0.95

let evaluate (i : input) : verdict =
  let error_rate =
    if i.h_requests = 0 then 0.0
    else float_of_int i.h_errors /. float_of_int i.h_requests
  in
  let occupancy =
    if i.h_cache_capacity <= 0 then 0.0
    else float_of_int i.h_cache_entries /. float_of_int i.h_cache_capacity
  in
  let checks =
    [
      {
        c_name = "error-rate";
        c_ok = error_rate <= max_error_rate;
        c_detail =
          Printf.sprintf "%.4f (max %.4f over %d requests)" error_rate
            max_error_rate i.h_requests;
      };
      {
        c_name = "cache-occupancy";
        c_ok = occupancy < max_occupancy;
        c_detail =
          Printf.sprintf "%d/%d entries (%.2f, max %.2f)" i.h_cache_entries
            i.h_cache_capacity occupancy max_occupancy;
      };
    ]
    @
    match i.h_slo with
    | None -> []
    | Some r ->
        [
          {
            c_name = "slo-latency";
            c_ok = r.Slo.r_latency_ok;
            c_detail =
              Printf.sprintf "attainment %.4f (target %.4f)" r.Slo.r_attainment
                r.Slo.r_objectives.Slo.slo_latency_target;
          };
          {
            c_name = "slo-availability";
            c_ok = r.Slo.r_availability_ok;
            c_detail =
              Printf.sprintf "availability %.4f (target %.4f)"
                r.Slo.r_availability
                r.Slo.r_objectives.Slo.slo_availability_target;
          };
        ]
  in
  { ready = List.for_all (fun c -> c.c_ok) checks; checks }

let fields (i : input) (v : verdict) =
  let f3 x = Gpos.Json.Num (Gpos.Json.fixed 3 x) and n = Gpos.Json.int in
  [
    ("status", Gpos.Json.Str (if v.ready then "ready" else "degraded"));
    ("uptime_s", f3 i.h_uptime_s);
    ("sessions_open", n i.h_sessions_open);
    ("sessions_total", n i.h_sessions_total);
    ("requests", n i.h_requests);
    ("errors", n i.h_errors);
    ("snapshot_age_s", f3 i.h_snapshot_age_s);
    ("catalog_version", n i.h_catalog_version);
    ("stats_version", n i.h_stats_version);
    ("cache_entries", n i.h_cache_entries);
    ("cache_capacity", n i.h_cache_capacity);
    ( "checks",
      Gpos.Json.Arr
        (List.map
           (fun c ->
             Gpos.Json.Obj
               [
                 ("name", Gpos.Json.Str c.c_name);
                 ("ok", Gpos.Json.Bool c.c_ok);
                 ("detail", Gpos.Json.Str c.c_detail);
               ])
           v.checks) );
  ]

let to_json i v = Gpos.Json.to_string (Gpos.Json.Obj (fields i v))
