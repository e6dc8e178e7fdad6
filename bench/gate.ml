(* Regression gate for the committed baselines and telemetry snapshots (CI
   `perf-gate`, `serve-gate`, `accuracy-gate` and `metrics` jobs).

   Default mode compares a freshly produced opt-speed JSON report against the
   committed baseline (BENCH_opt.json) and exits nonzero when a metric
   regresses. With --accuracy it instead compares per-operator-class Q-error
   reports (BENCH_accuracy.json, from `orca_cli accuracy --suite --json`);
   with --serve it compares the optimizer-service reports of `bench serve`
   (BENCH_serve.json): deterministic request/cache counters both ways,
   hit_rate and qps from below, latency quantiles from above. With
   --metrics it compares two telemetry snapshots (`orca_cli metrics --json`)
   series by series: the one regression gate for the always-on registry.

   Two metric classes:
   - search-shape counters (memo sizes, rule firings, cache hit counts):
     deterministic per code version, gated in BOTH directions with a
     per-metric tolerance — an unexplained swing means the search changed
     and the baseline must be regenerated deliberately;
   - speedup_geomean: timing-derived, gated from below only (running
     faster than the baseline is never a regression). Raw wall-times
     (on_ms_total/off_ms_total) are reported but never gated: they measure
     the CI machine, not the code.
   - p50_ms/p95_ms/p99_ms: on-config latency quantiles from the telemetry
     histogram, gated from above only with their own --q-tolerance
     (default 1.0, i.e. 2x; CI passes a larger value since quantiles mix
     machine speed with search shape). Missing quantile fields in either
     report are fatal: regenerate the baseline with the current bench.

   identity_violations must be 0 in the fresh report, full stop.

   A metric's tolerance can be overridden per key with repeatable
   --override NAME=TOL arguments (e.g. --override misses=0.5), taking
   precedence over --tolerance for that metric (with --metrics, NAME is a
   metric family such as orca_opt_ms). Missing
   fields are always fatal: a baseline lacking a gated field predates the
   current bench and must be regenerated deliberately.

   Reports are read with the shared strict parser (Gpos.Json). *)

module Json = Gpos.Json

let num_field obj name =
  match Option.bind (Json.member name obj) Json.to_float with
  | Some f -> f
  | None -> failwith (Printf.sprintf "missing numeric field %S in summary" name)

let read path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  match Json.of_string s with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok report -> report

let summary path report =
  match Json.member "summary" report with
  | Some summary -> summary
  | None -> failwith (Printf.sprintf "%s: no \"summary\" object" path)

(* --- checks, shared by every mode --- *)

let failures = ref 0

let check name ~base ~got ~ok reason =
  let status = if ok then "ok  " else "FAIL" in
  if not ok then incr failures;
  Printf.printf "%s  %-28s baseline=%-12g fresh=%-12g %s\n" status name base
    got reason

(* Gated both ways: a swing out of [lo, hi] either way fails. *)
let band name ~lo ~hi ~base ~got =
  check name ~base ~got
    ~ok:(got >= lo && got <= hi)
    (Printf.sprintf "(allowed %.6g..%.6g)" lo hi)

(* Gated from above only: lower is never a regression. *)
let at_most name ~limit ~base ~got =
  check name ~base ~got ~ok:(got <= limit)
    (Printf.sprintf "(must stay <= %.4g; lower is fine)" limit)

(* Gated from below only: higher is never a regression. *)
let at_least name ~limit ~base ~got =
  check name ~base ~got ~ok:(got >= limit)
    (Printf.sprintf "(must stay >= %.4g; higher is fine)" limit)

(* [names] of two summaries, each within its relative tolerance both ways. *)
let bands ~tol baseline fresh names =
  List.iter
    (fun name ->
      let base = num_field baseline name and got = num_field fresh name in
      let t = tol name in
      band name ~lo:(base *. (1.0 -. t)) ~hi:(base *. (1.0 +. t)) ~base ~got)
    names

(* Latency quantiles: at most [1 + q_tolerance] times the baseline. A
   report lacking them predates the telemetry histogram and must be
   regenerated, so [num_field] raising is the point. *)
let quantile_ceilings ~q_tolerance baseline fresh =
  List.iter
    (fun name ->
      let base = num_field baseline name and got = num_field fresh name in
      at_most name ~limit:(base *. (1.0 +. q_tolerance)) ~base ~got)
    [ "p50_ms"; "p95_ms"; "p99_ms" ]

let identity baseline fresh =
  let iv = num_field fresh "identity_violations" in
  check "identity_violations"
    ~base:(num_field baseline "identity_violations")
    ~got:iv ~ok:(iv = 0.0) "(must be 0)"

(* Counters gated both ways: a swing beyond tolerance in either direction
   means the search shape changed and the committed baseline is stale. *)
let shape_metrics =
  [
    "queries";
    "groups";
    "gexprs";
    "rule_fired";
    "rule_prefiltered";
    "base_reuses";
    "winner_skips";
    "ops_interned";
    "intern_hits";
  ]

(* --- the serve gate (--serve) ---

   `bench serve` runs a fixed-seed request mix, so every request/cache
   counter is deterministic per code version: gated in both directions like
   the opt-speed shape metrics. hit_rate and qps must not drop (from below;
   qps with the generous --q-tolerance since it measures the machine);
   p50/p95/p99 must not blow up (from above, --q-tolerance). A nonzero
   identity_violations — a cache hit that was not byte-identical to a cold
   optimization of the same request — is an unconditional failure. *)

let serve_shape_metrics =
  [
    "requests";
    "shapes";
    "errors";
    "hits";
    "rebinds";
    "misses";
    "evictions";
    "collisions";
    "identity_checks";
  ]

let serve_gate ~tol ~q_tolerance baseline fresh =
  identity baseline fresh;
  bands ~tol baseline fresh serve_shape_metrics;
  let base_hr = num_field baseline "hit_rate"
  and got_hr = num_field fresh "hit_rate" in
  at_least "hit_rate" ~limit:(base_hr *. (1.0 -. tol "hit_rate")) ~base:base_hr
    ~got:got_hr;
  let base_qps = num_field baseline "qps" and got_qps = num_field fresh "qps" in
  at_least "qps" ~limit:(base_qps /. (1.0 +. q_tolerance)) ~base:base_qps
    ~got:got_qps;
  quantile_ceilings ~q_tolerance baseline fresh;
  (* the SLO block (bench serve's rolling-window report): attainment and
     availability from below; burn rates from above, except that a run
     still inside its error budget (burn <= 1.0) never fails — a 0-burn
     baseline would otherwise make any nonzero burn fatal on a slow
     runner. A summary without the block is a stale baseline. *)
  (match (Json.member "slo" baseline, Json.member "slo" fresh) with
  | Some b, Some f ->
      List.iter
        (fun name ->
          let base = num_field b name and got = num_field f name in
          at_least ("slo." ^ name) ~limit:(base *. (1.0 -. q_tolerance)) ~base
            ~got)
        [ "availability"; "attainment" ];
      List.iter
        (fun name ->
          let base = num_field b name and got = num_field f name in
          let ceiling = Float.max (base *. (1.0 +. q_tolerance)) 1.0 in
          check ("slo." ^ name) ~base ~got ~ok:(got <= ceiling)
            (Printf.sprintf "(must stay <= %.4g; within budget is fine)"
               ceiling))
        [ "latency_burn"; "availability_burn" ]
  | None, _ ->
      failwith
        "baseline summary has no \"slo\" block: regenerate BENCH_serve.json"
  | _, None -> failwith "fresh summary has no \"slo\" block");
  Printf.printf
    "(wall times: wall_ms %.1f -> %.1f; informational only)\n"
    (num_field baseline "wall_ms") (num_field fresh "wall_ms")

(* --- the accuracy gate (--accuracy) ---

   Classes are matched by name between the baseline and the fresh report.
   The geomean Q-error is gated from above only — estimating *better* than
   the baseline is never a regression — while observed node counts are a
   deterministic shape metric gated in both directions. A class present on
   one side only means the plan shapes changed: the baseline is stale and
   must be regenerated deliberately. *)

let str_field obj name =
  match Json.member name obj with
  | Some (Json.Str s) -> s
  | _ -> failwith (Printf.sprintf "missing string field %S in class entry" name)

let acc_classes summary =
  match Json.member "classes" summary with
  | Some (Json.Arr cs) -> List.map (fun c -> (str_field c "class", c)) cs
  | _ -> failwith "accuracy report: no \"classes\" array in summary"

let accuracy_gate ~tolerance baseline fresh =
  let bclasses = acc_classes baseline and fclasses = acc_classes fresh in
  let bq = num_field baseline "queries" and fq = num_field fresh "queries" in
  check "queries" ~base:bq ~got:fq ~ok:(bq = fq) "(must match exactly)";
  List.iter
    (fun (name, bc) ->
      match List.assoc_opt name fclasses with
      | None ->
          check (name ^ ".geomean") ~base:(num_field bc "geomean") ~got:nan
            ~ok:false "(class missing from fresh report)"
      | Some fc ->
          let bg = num_field bc "geomean" and fg = num_field fc "geomean" in
          at_most (name ^ ".geomean") ~limit:(bg *. (1.0 +. tolerance))
            ~base:bg ~got:fg;
          let bn = num_field bc "nodes" and fn = num_field fc "nodes" in
          band (name ^ ".nodes") ~lo:(bn *. (1.0 -. tolerance))
            ~hi:(bn *. (1.0 +. tolerance)) ~base:bn ~got:fn)
    bclasses;
  List.iter
    (fun (name, fc) ->
      if not (List.mem_assoc name bclasses) then
        check (name ^ ".geomean") ~base:nan ~got:(num_field fc "geomean")
          ~ok:false "(class not in baseline; regenerate it)")
    fclasses

(* --- the opt-speed gate (default) --- *)

let opt_gate ~tol ~q_tolerance baseline fresh =
  identity baseline fresh;
  bands ~tol baseline fresh shape_metrics;
  let base_g = num_field baseline "speedup_geomean"
  and got_g = num_field fresh "speedup_geomean" in
  at_least "speedup_geomean"
    ~limit:(base_g *. (1.0 -. tol "speedup_geomean"))
    ~base:base_g ~got:got_g;
  quantile_ceilings ~q_tolerance baseline fresh;
  Printf.printf "(wall times: on_ms_total %.1f -> %.1f, off_ms_total %.1f -> %.1f; informational only)\n"
    (num_field baseline "on_ms_total") (num_field fresh "on_ms_total")
    (num_field baseline "off_ms_total") (num_field fresh "off_ms_total")

(* --- the telemetry gate (--metrics) ---

   Two `orca_cli metrics --json` snapshots, matched series by series on
   name and sorted labels. Counter and gauge values and histogram counts
   are work counts, gated both ways; histogram sums and quantiles are
   latencies, gated from above only. The slack is the tolerance times the
   baseline value, but never less than the tolerance times 10, so a
   near-zero baseline is not a zero-tolerance gate. Wall-time families
   measure the machine as much as the optimizer: they get at least 4.0. A
   series or field of the baseline missing from the fresh snapshot fails;
   series only in the fresh snapshot are new and pass. *)

let timing_families =
  [
    "orca_opt_ms";
    "orca_phase_ms";
    "orca_exec_sim_ms";
    "orca_peak_heap_mb";
    "orca_queue_depth_max";
  ]

(* (key, family, fields) per series; key = name{k="v",...}, labels sorted. *)
let snapshot_series path snapshot =
  let str = function Json.Str s -> Some s | _ -> None in
  match Json.member "metrics" snapshot with
  | Some (Json.Arr ms) ->
      List.filter_map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) str,
              Option.bind (Json.member "type" m) str )
          with
          | Some name, Some kind ->
              let labels =
                match Json.member "labels" m with
                | Some (Json.Obj fs) ->
                    List.filter_map
                      (fun (k, v) -> Option.map (fun v -> (k, v)) (str v))
                      fs
                | _ -> []
              in
              let key =
                if labels = [] then name
                else
                  name ^ "{"
                  ^ String.concat ","
                      (List.map
                         (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v)
                         (List.sort compare labels))
                  ^ "}"
              in
              let fields =
                List.filter_map
                  (fun f ->
                    Option.map
                      (fun v -> (f, v))
                      (Option.bind (Json.member f m) Json.to_float))
                  (if kind = "histogram" then
                     [ "count"; "sum"; "p50"; "p95"; "p99" ]
                   else [ "value" ])
              in
              Some (key, name, fields)
          | _ -> None)
        ms
  | _ -> failwith (Printf.sprintf "%s: no \"metrics\" array" path)

let metrics_gate ~tol baseline fresh =
  List.iter
    (fun (key, family, fields) ->
      match List.find_opt (fun (k, _, _) -> k = key) fresh with
      | None ->
          check key ~base:1.0 ~got:0.0 ~ok:false
            "(series missing from fresh snapshot)"
      | Some (_, _, fresh_fields) ->
          let t =
            if List.mem family timing_families then Float.max (tol family) 4.0
            else tol family
          in
          List.iter
            (fun (field, base) ->
              let name = key ^ "." ^ field in
              match List.assoc_opt field fresh_fields with
              | None ->
                  check name ~base ~got:nan ~ok:false
                    "(field missing from fresh snapshot)"
              | Some got -> (
                  let slack = t *. Float.max (Float.abs base) 10.0 in
                  match field with
                  | "sum" | "p50" | "p95" | "p99" ->
                      at_most name ~limit:(base +. slack) ~base ~got
                  | _ ->
                      band name ~lo:(base -. slack) ~hi:(base +. slack) ~base
                        ~got))
            fields)
    baseline

type mode = Opt | Accuracy | Serve | Metrics

let () =
  let baseline_path = ref "" in
  let fresh_path = ref "" in
  let tolerance = ref 0.25 in
  let q_tolerance = ref 1.0 in
  let modes = ref [] in
  let overrides = ref [] in
  let usage =
    "gate [--accuracy | --serve | --metrics] --baseline BENCH_opt.json --fresh \
     fresh.json [--tolerance 0.25] [--q-tolerance 1.0] [--override NAME=TOL]..."
  in
  let rec parse_args = function
    | [] -> ()
    | "--baseline" :: v :: rest -> baseline_path := v; parse_args rest
    | "--fresh" :: v :: rest -> fresh_path := v; parse_args rest
    | "--accuracy" :: rest -> modes := Accuracy :: !modes; parse_args rest
    | "--serve" :: rest -> modes := Serve :: !modes; parse_args rest
    | "--metrics" :: rest -> modes := Metrics :: !modes; parse_args rest
    | "--override" :: v :: rest -> (
        match String.index_opt v '=' with
        | Some i -> (
            let name = String.sub v 0 i in
            let tol = String.sub v (i + 1) (String.length v - i - 1) in
            match float_of_string_opt tol with
            | Some f when f >= 0.0 && name <> "" ->
                overrides := (name, f) :: !overrides;
                parse_args rest
            | _ -> prerr_endline ("gate: bad --override " ^ v); exit 2)
        | None -> prerr_endline ("gate: bad --override " ^ v); exit 2)
    | "--tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f > 0.0 -> tolerance := f; parse_args rest
        | _ -> prerr_endline ("gate: bad --tolerance " ^ v); exit 2)
    | "--q-tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f > 0.0 -> q_tolerance := f; parse_args rest
        | _ -> prerr_endline ("gate: bad --q-tolerance " ^ v); exit 2)
    | a :: _ ->
        prerr_endline ("gate: unknown argument " ^ a);
        prerr_endline usage;
        exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let mode =
    match List.sort_uniq compare !modes with
    | [] -> Opt
    | [ m ] -> m
    | _ ->
        prerr_endline
          "gate: --accuracy, --serve and --metrics are mutually exclusive";
        exit 2
  in
  if !baseline_path = "" then
    baseline_path :=
      (match mode with
      | Opt -> "BENCH_opt.json"
      | Accuracy -> "BENCH_accuracy.json"
      | Serve -> "BENCH_serve.json"
      | Metrics -> "");
  if !fresh_path = "" || !baseline_path = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let baseline = read !baseline_path and fresh = read !fresh_path in
  (* per-metric tolerance: --override NAME=TOL wins over --tolerance *)
  let tol name =
    match List.assoc_opt name !overrides with
    | Some t -> t
    | None -> !tolerance
  in
  let label =
    match mode with
    | Metrics ->
        metrics_gate ~tol
          (snapshot_series !baseline_path baseline)
          (snapshot_series !fresh_path fresh);
        "metrics"
    | Serve ->
        serve_gate ~tol ~q_tolerance:!q_tolerance
          (summary !baseline_path baseline)
          (summary !fresh_path fresh);
        "serve"
    | Accuracy ->
        accuracy_gate ~tolerance:!tolerance
          (summary !baseline_path baseline)
          (summary !fresh_path fresh);
        "accuracy"
    | Opt ->
        opt_gate ~tol ~q_tolerance:!q_tolerance
          (summary !baseline_path baseline)
          (summary !fresh_path fresh);
        "perf"
  in
  if !failures > 0 then begin
    Printf.printf "%s gate: %d metric(s) out of tolerance\n" label !failures;
    exit 1
  end
  else Printf.printf "%s gate: all metrics within tolerance\n" label
