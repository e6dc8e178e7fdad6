(* The flight recorder's trigger: a monitored [Optimizer.optimize] that
   records a per-query summary into the global ring buffer
   (Telemetry.Recorder) and, when a query exceeds the configured slow
   threshold or fails, re-runs it once with full observability and
   provenance enabled and emits an AMPERe dump — the paper's §6.1
   "automatic capture" extended from failures to latency outliers, the
   black box for the optimizer-as-a-service north star. The caller names
   the query's shape: the ring entry and the dump file both carry its
   fingerprint, so a request's reply leads to its dump.

   The re-run needs a fresh metadata accessor (the first one's pins were
   released by the optimization), so callers pass a [make_accessor]
   factory rather than an accessor. Dump emission is off unless
   [Telemetry.Recorder.configure ~dump_dir] pointed it at a directory. *)

let dump_path ~dir ~fingerprint ~seq =
  Filename.concat dir (Printf.sprintf "ampere-flight-%s-%d.xml" fingerprint seq)

(* Re-run once with obs+prov and capture a dump. For a slow query the
   re-run normally succeeds and the dump carries the expected plan plus
   the full trace; for a failing query the deterministic re-run fails
   again and [optimize_with_capture] hands back the failure dump with the
   partial trace. Never lets the capture itself take the caller down. The
   dump is named after [fingerprint] and [seq], the ring entry number
   claimed for this query beforehand, so concurrent recaptures of one shape
   never share a file. *)
let recapture ~(config : Orca_config.t) ~make_accessor ~reason ~fingerprint
    ~seq query =
  match Telemetry.Recorder.dump_dir () with
  | None -> None
  | Some dir -> (
      try
        let cfg = Orca_config.with_prov (Orca_config.with_obs config) in
        let accessor : Catalog.Accessor.t = make_accessor () in
        let flags =
          [
            ("flight-reason", reason);
            ( "flight-slow-ms",
              match Telemetry.Recorder.slow_ms () with
              | Some s -> Printf.sprintf "%g" s
              | None -> "off" );
          ]
          @
          (* attribute the dump to the originating service request *)
          match config.Orca_config.trace_id with
          | Some id -> [ ("flight-trace-id", id) ]
          | None -> []
        in
        let dump =
          match Ampere.optimize_with_capture ~config:cfg accessor query with
          | Ok report ->
              let d =
                Ampere.capture ~traceflags:flags
                  ~expected_plan:report.Optimizer.plan accessor query
              in
              Ampere.embed_report d report
          | Error d -> { d with Ampere.traceflags = flags @ d.Ampere.traceflags }
        in
        let path = dump_path ~dir ~fingerprint ~seq in
        Ampere.save dump path;
        Telemetry.Metrics.inc Telemetry.Std.flight_dumps;
        Some path
      with _ -> None)

(* Monitored optimize: behaves exactly like [Optimizer.optimize] (same
   result, same exceptions) with the flight recorder around it. *)
let optimize ?(config = Orca_config.default) ?(label = "query") ~fingerprint
    ~(make_accessor : unit -> Catalog.Accessor.t) (query : Dxl.Dxl_query.t) :
    Optimizer.report =
  let t0 = Gpos.Clock.now () in
  match Optimizer.optimize ~config (make_accessor ()) query with
  | report ->
      let ms = report.Optimizer.opt_time_ms in
      let slow =
        match Telemetry.Recorder.slow_ms () with
        | Some threshold -> ms >= threshold
        | None -> false
      in
      let seq, dump =
        if slow then begin
          Telemetry.Metrics.inc Telemetry.Std.flight_slow;
          let seq = Telemetry.Recorder.claim () in
          ( Some seq,
            recapture ~config ~make_accessor ~reason:"slow" ~fingerprint ~seq
              query )
        end
        else (None, None)
      in
      ignore
        (Telemetry.Recorder.record ?seq ~label ~fingerprint ~ms
           ~groups:report.Optimizer.groups ~gexprs:report.Optimizer.gexprs
           ~cost:report.Optimizer.plan.Ir.Expr.pcost
           ~phases:(Telemetry.Recorder.top_phases report.Optimizer.phase_ms)
           ~status:
             (if slow then Telemetry.Recorder.Slow else Telemetry.Recorder.Ok)
           ?dump ());
      report
  | exception Optimizer.Unsupported_query msg ->
      (* a clean reject, not an anomaly: count it, no dump *)
      Telemetry.Metrics.inc Telemetry.Std.unsupported;
      raise (Optimizer.Unsupported_query msg)
  | exception e ->
      (* the failed attempt's own duration, before the recapture re-runs it *)
      let ms = Gpos.Clock.ms_since t0 in
      Telemetry.Metrics.inc Telemetry.Std.failures;
      Telemetry.Metrics.inc Telemetry.Std.flight_failed;
      let seq = Telemetry.Recorder.claim () in
      let dump =
        recapture ~config ~make_accessor ~reason:"failed" ~fingerprint ~seq
          query
      in
      ignore
        (Telemetry.Recorder.record ~seq ~label ~fingerprint ~ms ~groups:0
           ~gexprs:0 ~cost:0.0 ~phases:[]
           ~status:(Telemetry.Recorder.Failed (Printexc.to_string e))
           ?dump ());
      raise e
