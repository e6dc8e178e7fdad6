(* Benchmark regression gate for the committed baselines (CI `perf-gate` and
   `accuracy-gate` jobs).

   Default mode compares a freshly produced opt-speed JSON report against the
   committed baseline (BENCH_opt.json) and exits nonzero when a metric
   regresses. With --accuracy it instead compares per-operator-class Q-error
   reports (BENCH_accuracy.json, from `orca_cli accuracy --suite --json`);
   with --serve it compares the optimizer-service reports of `bench serve`
   (BENCH_serve.json): deterministic request/cache counters both ways,
   hit_rate and qps from below, latency quantiles from above.

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
   precedence over --tolerance for that metric in every mode. Missing
   fields are always fatal: a baseline lacking a gated field predates the
   current bench and must be regenerated deliberately.

   Reports are read with the shared strict parser (Gpos.Json). *)

module Json = Gpos.Json

let num_field obj name =
  match Option.bind (Json.member name obj) Json.to_float with
  | Some f -> f
  | None -> failwith (Printf.sprintf "missing numeric field %S in summary" name)

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Json.of_string s with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok report -> (
      match Json.member "summary" report with
      | Some summary -> summary
      | None -> failwith (Printf.sprintf "%s: no \"summary\" object" path))

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

let serve_gate ~check ~tol ~q_tolerance baseline fresh =
  let iv = num_field fresh "identity_violations" in
  check "identity_violations"
    ~base:(num_field baseline "identity_violations")
    ~got:iv ~ok:(iv = 0.0) "(must be 0)";
  List.iter
    (fun name ->
      let base = num_field baseline name and got = num_field fresh name in
      let t = tol name in
      let lo = base *. (1.0 -. t) and hi = base *. (1.0 +. t) in
      check name ~base ~got
        ~ok:(got >= lo && got <= hi)
        (Printf.sprintf "(allowed %.6g..%.6g)" lo hi))
    serve_shape_metrics;
  let base_hr = num_field baseline "hit_rate"
  and got_hr = num_field fresh "hit_rate" in
  let floor_hr = base_hr *. (1.0 -. tol "hit_rate") in
  check "hit_rate" ~base:base_hr ~got:got_hr ~ok:(got_hr >= floor_hr)
    (Printf.sprintf "(must stay >= %.4g; higher is fine)" floor_hr);
  let base_qps = num_field baseline "qps" and got_qps = num_field fresh "qps" in
  let floor_qps = base_qps /. (1.0 +. q_tolerance) in
  check "qps" ~base:base_qps ~got:got_qps ~ok:(got_qps >= floor_qps)
    (Printf.sprintf "(must stay >= %.4g; higher is fine)" floor_qps);
  List.iter
    (fun name ->
      let base = num_field baseline name and got = num_field fresh name in
      let ceiling = base *. (1.0 +. q_tolerance) in
      check name ~base ~got ~ok:(got <= ceiling)
        (Printf.sprintf "(must stay <= %.4g; lower is fine)" ceiling))
    [ "p50_ms"; "p95_ms"; "p99_ms" ];
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
          let floor = base *. (1.0 -. q_tolerance) in
          check ("slo." ^ name) ~base ~got ~ok:(got >= floor)
            (Printf.sprintf "(must stay >= %.4g; higher is fine)" floor))
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

let accuracy_gate ~check ~tolerance baseline fresh =
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
          let ceiling = bg *. (1.0 +. tolerance) in
          check (name ^ ".geomean") ~base:bg ~got:fg ~ok:(fg <= ceiling)
            (Printf.sprintf "(must stay <= %.4g; lower is fine)" ceiling);
          let bn = num_field bc "nodes" and fn = num_field fc "nodes" in
          let lo = bn *. (1.0 -. tolerance)
          and hi = bn *. (1.0 +. tolerance) in
          check (name ^ ".nodes") ~base:bn ~got:fn
            ~ok:(fn >= lo && fn <= hi)
            (Printf.sprintf "(allowed %.6g..%.6g)" lo hi))
    bclasses;
  List.iter
    (fun (name, fc) ->
      if not (List.mem_assoc name bclasses) then
        check (name ^ ".geomean") ~base:nan ~got:(num_field fc "geomean")
          ~ok:false "(class not in baseline; regenerate it)")
    fclasses

let () =
  let baseline_path = ref "" in
  let fresh_path = ref "" in
  let tolerance = ref 0.25 in
  let q_tolerance = ref 1.0 in
  let accuracy = ref false in
  let serve = ref false in
  let overrides = ref [] in
  let usage =
    "gate [--accuracy | --serve] --baseline BENCH_opt.json --fresh fresh.json \
     [--tolerance 0.25] [--q-tolerance 1.0] [--override NAME=TOL]..."
  in
  let rec parse_args = function
    | [] -> ()
    | "--baseline" :: v :: rest -> baseline_path := v; parse_args rest
    | "--fresh" :: v :: rest -> fresh_path := v; parse_args rest
    | "--accuracy" :: rest -> accuracy := true; parse_args rest
    | "--serve" :: rest -> serve := true; parse_args rest
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
  if !accuracy && !serve then begin
    prerr_endline "gate: --accuracy and --serve are mutually exclusive";
    exit 2
  end;
  if !baseline_path = "" then
    baseline_path :=
      if !accuracy then "BENCH_accuracy.json"
      else if !serve then "BENCH_serve.json"
      else "BENCH_opt.json";
  if !fresh_path = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let baseline = load !baseline_path and fresh = load !fresh_path in
  let failures = ref 0 in
  let check name ~base ~got ~ok reason =
    let status = if ok then "ok  " else "FAIL" in
    if not ok then incr failures;
    Printf.printf "%s  %-28s baseline=%-12g fresh=%-12g %s\n" status name base
      got reason
  in
  (* per-metric tolerance: --override NAME=TOL wins over --tolerance *)
  let tol name =
    match List.assoc_opt name !overrides with
    | Some t -> t
    | None -> !tolerance
  in
  if !serve then begin
    serve_gate ~check ~tol ~q_tolerance:!q_tolerance baseline fresh;
    if !failures > 0 then begin
      Printf.printf "serve gate: %d metric(s) out of tolerance\n" !failures;
      exit 1
    end
    else Printf.printf "serve gate: all metrics within tolerance\n";
    exit 0
  end;
  if !accuracy then begin
    accuracy_gate ~check ~tolerance:!tolerance baseline fresh;
    if !failures > 0 then begin
      Printf.printf "accuracy gate: %d metric(s) out of tolerance\n" !failures;
      exit 1
    end
    else Printf.printf "accuracy gate: all metrics within tolerance\n";
    exit 0
  end;
  (* identity is not a tolerance question *)
  let iv = num_field fresh "identity_violations" in
  check "identity_violations"
    ~base:(num_field baseline "identity_violations")
    ~got:iv ~ok:(iv = 0.0) "(must be 0)";
  List.iter
    (fun name ->
      let base = num_field baseline name and got = num_field fresh name in
      let t = tol name in
      let lo = base *. (1.0 -. t) and hi = base *. (1.0 +. t) in
      check name ~base ~got
        ~ok:(got >= lo && got <= hi)
        (Printf.sprintf "(allowed %.6g..%.6g)" lo hi))
    shape_metrics;
  let base_g = num_field baseline "speedup_geomean"
  and got_g = num_field fresh "speedup_geomean" in
  let floor_g = base_g *. (1.0 -. tol "speedup_geomean") in
  check "speedup_geomean" ~base:base_g ~got:got_g
    ~ok:(got_g >= floor_g)
    (Printf.sprintf "(must stay >= %.4g; higher is fine)" floor_g);
  (* quantiles: ceiling only — faster is never a regression. num_field
     raises if a report lacks them, which is the point: a baseline without
     quantiles predates the telemetry histogram and must be regenerated. *)
  List.iter
    (fun name ->
      let base = num_field baseline name and got = num_field fresh name in
      let ceiling = base *. (1.0 +. !q_tolerance) in
      check name ~base ~got ~ok:(got <= ceiling)
        (Printf.sprintf "(must stay <= %.4g; lower is fine)" ceiling))
    [ "p50_ms"; "p95_ms"; "p99_ms" ];
  Printf.printf "(wall times: on_ms_total %.1f -> %.1f, off_ms_total %.1f -> %.1f; informational only)\n"
    (num_field baseline "on_ms_total") (num_field fresh "on_ms_total")
    (num_field baseline "off_ms_total") (num_field fresh "off_ms_total");
  if !failures > 0 then begin
    Printf.printf "perf gate: %d metric(s) out of tolerance\n" !failures;
    exit 1
  end
  else Printf.printf "perf gate: all metrics within tolerance\n"
