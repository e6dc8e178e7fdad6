(* Wire-level benchmark of the optimizer service.

     bash svcbench/run.sh --workload hot|cold|mixed --seed N --seconds S --trace 0|1
     bash svcbench/run.sh --repeat N --workload W [--seed N] [--seconds S] [--trace T]
     bash svcbench/run.sh --selftest

   One client process drives [orca_cli serve --socket] in its own process,
   closed loop, with [!plan on]: every reply carries its DXL plan, as a
   database would need. Set-up is restart-to-warm: spawn the server, then
   send every TPC-DS text it answers right once. The measured phase sends
   the workload's streams (see [Streams]) for the given seconds. Afterwards
   every distinct served plan is executed and its rows compared with the
   naive evaluator's answer for the request's base query.

   The texts left out for known service defects are sent, untimed, to one
   of the discarded set-up servers (the defect audit); its error replies
   and wrong answers are printed on every run and reported with the
   per-layer metrics, not counted as failed operations of the workload.

   With [--trace 0] the last stdout line reports the end-to-end metrics;
   with [--trace 1] it reports the per-layer metrics, from the same socket
   run plus an in-process replay that times each layer (see [Replay]).
   Earlier stdout lines print every metric with its unit and sample count.
   State that outlives a run (reference answers, the server's log) lives in
   [.svcbench/] under the working directory. *)

let sf = 0.05
let setups = 7

(* Idle time before the first set-up. On the 2-vCPU VM this was tuned on,
   a mixed run started straight after another mixed run served about 40%
   fewer requests than one started after a two-second pause; pausing makes
   every run start from the same state, whatever ran before it. *)
let settle_s = 3.0
let state_dir = ".svcbench"
let log msg = prerr_endline ("svcbench: " ^ msg)

type workload = Hot | Cold | Mixed

let workload_of_string = function
  | "hot" -> Hot
  | "cold" -> Cold
  | "mixed" -> Mixed
  | w -> failwith ("unknown workload " ^ w)

(* Each lane's audit prefix: requests the run always completes, timed or
   not. Plan quality, the cache-outcome counts and the replay are taken
   over it, so they repeat exactly for a seed. *)
let hot_prefix = 2000
let cold_prefix = 300

(* Requests generated per lane: more than the clock can use. *)
let stream_len w seconds = match w with `Hot -> 6000 * seconds | `Cold -> 1000 * seconds

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* ---------------- one run ---------------- *)

type run = {
  setup_s : float array;
  rss_mb : float;
  elapsed_s : float;
  lanes : Wire.lane list;
  plans : Wire.plans;
  warm_errors : int;
  audit : string list;        (* the defect audit's replies, in [audit_bases] order *)
  broken : string option;     (* why the server stopped replying *)
}

let exe () = Filename.concat (Sys.getcwd ()) "_build/default/bin/orca_cli.exe"

(* Spawn a server, send !plan on and the warm-up pass: every served TPC-DS
   text once, in qid order. Returns the server, its connection, the set-up
   time and the number of error replies. *)
let start () =
  let t0 = Wire.now () in
  let server =
    Wire.spawn ~exe:(exe ()) ~sock:(Filename.concat state_dir "serve.sock") ~sf
      ~log_path:(Filename.concat state_dir "server.log")
  in
  match
    let conn = Wire.connect server ~timeout:120.0 in
    ignore (Wire.call conn "!plan on\n");
    let errors = ref 0 in
    List.iter
      (fun qid ->
        let r = Wire.call conn ((Tpcds.Queries.get qid).Tpcds.Queries.sql ^ "\n") in
        if Wire.field r "ok" <> Some "true" then incr errors)
      Streams.served_qids;
    (conn, !errors)
  with
  | conn, errors -> (server, conn, Wire.now () -. t0, errors)
  | exception e ->
      Wire.stop server;
      raise e

(* The workload's lanes: (name, requests), one connection each. *)
let streams w ~seed ~seconds bases =
  let hot () = ("hot", Streams.hot ~seed bases (stream_len `Hot seconds)) in
  let cold () = ("cold", Streams.cold ~seed bases (stream_len `Cold seconds)) in
  match w with Hot -> [ hot () ] | Cold -> [ cold () ] | Mixed -> [ hot (); cold () ]

let prefix_of name = if name = "hot" then hot_prefix else cold_prefix

let audit_bases = lazy (Streams.bases_of (Streams.audit_qids ()))

let socket_run ~seconds streams =
  let setup_s = Array.make setups 0.0 in
  let audit = ref [] in
  let rec warm k =
    let server, conn, s, errors = start () in
    setup_s.(k) <- s;
    (* the audit runs on the first set-up server, after its clock stopped *)
    if k = 0 then
      audit :=
        (try Array.to_list (Array.map (fun b -> Wire.call conn (b.Streams.sql ^ "\n")) (Lazy.force audit_bases))
         with e ->
           Wire.stop server;
           raise e);
    if k + 1 < setups then begin
      Wire.close conn;
      Wire.stop server;
      warm (k + 1)
    end
    else (server, conn, errors)
  in
  let server, conn, warm_errors = warm 0 in
  Fun.protect
    ~finally:(fun () -> Wire.stop server)
    (fun () ->
      let lanes =
        List.mapi
          (fun i (name, reqs) ->
            let c =
              if i = 0 then conn
              else begin
                let c = Wire.connect server ~timeout:10.0 in
                ignore (Wire.call c "!plan on\n");
                c
              end
            in
            Wire.lane name c reqs)
          streams
      in
      let plans = Wire.plans () in
      let t0, t_last, broken =
        Wire.measure ~seconds:(float_of_int seconds) ~reply_timeout:60.0 plans lanes
      in
      let rss_mb = Wire.vm_hwm_mb server in
      let broken =
        match broken with
        | Some _ -> broken
        | None -> (
            try
              List.iter (fun (l : Wire.lane) -> Wire.finish plans l (prefix_of l.Wire.name)) lanes;
              None
            with Wire.No_reply why -> Some why)
      in
      List.iter (fun l -> Wire.close l.Wire.conn) lanes;
      { setup_s; rss_mb; elapsed_s = t_last -. t0; lanes; plans; warm_errors; audit = !audit; broken })

(* ---------------- after the clock ---------------- *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;      (* broken invariants: the run is not correct *)
  prefix_outcomes : (string * int) list;  (* "hot.hit", ... over the audit prefixes *)
  metrics : metric list;       (* end-to-end *)
  layers : metric list;        (* per-layer, socket side *)
}

let ms_of_header h = Option.bind (Wire.field h "ms") float_of_string_opt

(* The defect audit's findings: the qids that got an error reply and those
   whose served plan returned wrong rows. *)
let audit_findings run audit_answers env =
  let errors = ref [] and wrong = ref [] in
  List.iteri
    (fun i reply ->
      let qid = (Lazy.force audit_bases).(i).Streams.qid in
      if Wire.field reply "ok" <> Some "true" then errors := qid :: !errors
      else
        match Wire.plan_of_reply reply with
        | dxl -> if not (Oracle.check (Lazy.force env) ~expected:audit_answers.(i) dxl).Oracle.rows_ok then wrong := qid :: !wrong
        | exception _ -> wrong := qid :: !wrong)
    run.audit;
  (List.rev !errors, List.rev !wrong)

let analyse w run (bases : Streams.base array) answers env =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Option.iter (problem "the server stopped replying: %s") run.broken;
  (* the answer check: one execution per (base, plan) pair *)
  let nkeys = Hashtbl.length run.plans.Wire.ids in
  let verdicts = Array.make nkeys None in
  let exec_ms = ref 0.0 and exec_sim = ref 0.0 in
  List.iter
    (fun (key, base, reply) ->
      let v =
        match Wire.plan_of_reply reply with
        | dxl -> Oracle.check (Lazy.force env) ~expected:answers.(base) dxl
        | exception e ->
            { Oracle.rows_ok = false; sim_s = 0.0; exec_ms = 0.0; why = Printexc.to_string e }
      in
      exec_ms := !exec_ms +. v.Oracle.exec_ms;
      exec_sim := !exec_sim +. v.Oracle.sim_s;
      if not v.Oracle.rows_ok then
        log (Printf.sprintf "wrong answer: q%d (%s)" bases.(base).Streams.qid v.Oracle.why);
      verdicts.(key) <- Some v)
    run.plans.Wire.first;
  let attempted = ref (List.length Streams.served_qids) in
  let failed = ref run.warm_errors in
  let all_rtt = ref [] and all_ms = ref [] and all_wire = ref [] in
  let bytes = ref 0 and timed = ref 0 and useful = ref 0 in
  let outcomes = Hashtbl.create 8 in
  let plan_sim = ref 0.0 in
  let conn_metrics = Hashtbl.create 2 in
  List.iter
    (fun (l : Wire.lane) ->
      let prefix = prefix_of l.Wire.name in
      let seen = Hashtbl.create 256 and missed = Hashtbl.create 16 in
      let base_sim = Hashtbl.create 128 in
      let rtt = ref [] in
      for i = 0 to l.Wire.sent - 1 do
        incr attempted;
        let h = l.Wire.header.(i) in
        let ok = Wire.field h "ok" = Some "true" in
        let cache = Option.value ~default:"" (Wire.field h "cache") in
        let verdict = if l.Wire.key.(i) >= 0 then verdicts.(l.Wire.key.(i)) else None in
        let right = match verdict with Some v -> v.Oracle.rows_ok | None -> false in
        if not (ok && right) then incr failed;
        if ok then begin
          (match (l.Wire.name, w, cache) with
          | "hot", Hot, "miss" ->
              (* rebinding picks the most recently used binding variant, so a
                 text may miss once when a sibling was used last; after that
                 its own plan is cached *)
              let line = l.Wire.reqs.(i).Streams.line in
              if Hashtbl.mem missed line then problem "hot text of request %d missed twice" i;
              Hashtbl.replace missed line ()
          | "cold", _, ("hit" | "rebind") -> problem "cold request %d was served from the cache" i
          | _ -> ());
          if i < prefix then begin
            let k = l.Wire.name ^ "." ^ cache in
            Hashtbl.replace outcomes k (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes k));
            let line = l.Wire.reqs.(i).Streams.line in
            if not (Hashtbl.mem seen line) then begin
              Hashtbl.replace seen line ();
              match verdict with
              | Some v ->
                  let b = l.Wire.reqs.(i).Streams.base in
                  let sum, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt base_sim b) in
                  Hashtbl.replace base_sim b (sum +. v.Oracle.sim_s, n + 1)
              | None -> ()
            end
          end
        end;
        if not (Float.is_nan l.Wire.rtt_ms.(i)) then begin
          let r = l.Wire.rtt_ms.(i) in
          rtt := r :: !rtt;
          all_rtt := (r, bases.(l.Wire.reqs.(i).Streams.base).Streams.qid) :: !all_rtt;
          incr timed;
          bytes := !bytes + l.Wire.bytes.(i);
          if cache = "hit" || cache = "rebind" then incr useful;
          match ms_of_header h with
          | Some ms ->
              all_ms := ms :: !all_ms;
              all_wire := (r -. ms) :: !all_wire
          | None -> ()
        end
      done;
      (* each base counts once, however many of its texts the prefix drew *)
      Hashtbl.iter (fun _ (sum, n) -> plan_sim := !plan_sim +. (sum /. float_of_int n)) base_sim;
      if l.Wire.sent < prefix then problem "%s lane stopped at %d of its %d-request prefix" l.Wire.name l.Wire.sent prefix;
      let s = Stats.sorted_copy (Array.of_list !rtt) in
      Hashtbl.replace conn_metrics l.Wire.name
        (Stats.percentile s 0.5, Stats.percentile s 0.99, float_of_int (Array.length s) /. run.elapsed_s))
    run.lanes;
  let by_rtt = Array.of_list !all_rtt in
  Array.sort compare by_rtt;
  let rtt = Array.map fst by_rtt in
  let n = Array.length rtt in
  if Stats.beyond n 0.99 < 10 then problem "only %d samples lie beyond p99" (Stats.beyond n 0.99);
  (* which queries the samples just below and just above a percentile come
     from: the same query on both sides means the percentile sits inside
     one query's cluster, not on the edge between two *)
  let around p =
    let r = Stats.rank n p - 1 and w = max 5 (n / 200) in
    let side lo hi =
      let counts = Hashtbl.create 8 in
      for k = max 0 lo to min (n - 1) hi do
        let q = snd by_rtt.(k) in
        Hashtbl.replace counts q (1 + Option.value ~default:0 (Hashtbl.find_opt counts q))
      done;
      let q, c = Hashtbl.fold (fun q c (bq, bc) -> if c > bc then (q, c) else (bq, bc)) counts (0, 0) in
      Printf.sprintf "q%d %d/%d" q c (max 1 (min (n - 1) hi - max 0 lo + 1))
    in
    Printf.sprintf "samples=%d beyond=%d; most common query below: %s, above: %s" n (Stats.beyond n p)
      (side (r - w) (r - 1)) (side (r + 1) (r + w))
  in
  let metrics =
    [
      metric "setup_s" "s" (Stats.median run.setup_s)
        ~note:(Printf.sprintf "median of %d set-ups: %s" setups
                 (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") run.setup_s))));
      metric "peak_rss_mb" "MB" run.rss_mb ~note:"server VmHWM";
      metric "throughput_rps" "req/s" (float_of_int n /. run.elapsed_s)
        ~note:(Printf.sprintf "%d requests in %.3f s" n run.elapsed_s);
      metric "p50_ms" "ms" (Stats.percentile rtt 0.5) ~note:(around 0.5);
      metric "p99_ms" "ms" (Stats.percentile rtt 0.99) ~note:(around 0.99);
      metric "plan_sim_s" "sim_s" !plan_sim ~note:"per base, mean over its distinct texts in the audit prefixes";
    ]
  in
  let sorted l = Stats.sorted_copy (Array.of_list l) in
  let server_ms = sorted !all_ms and wire = sorted !all_wire in
  let conn name =
    let p50, p99, rps = Option.value ~default:(0.0, 0.0, 0.0) (Hashtbl.find_opt conn_metrics name) in
    [
      metric ("conn." ^ name ^ ".p50_ms") "ms" p50;
      metric ("conn." ^ name ^ ".p99_ms") "ms" p99;
      metric ("conn." ^ name ^ ".rps") "req/s" rps;
    ]
  in
  let outcome o =
    float_of_int
      (Hashtbl.fold (fun k v acc -> if String.ends_with ~suffix:("." ^ o) k then acc + v else acc) outcomes 0)
  in
  let layers =
    [
      metric "server.ms.p50" "ms" (Stats.percentile server_ms 0.5);
      metric "server.ms.p99" "ms" (Stats.percentile server_ms 0.99);
      metric "wire.p50_ms" "ms" (Stats.percentile wire 0.5);
      metric "wire.p99_ms" "ms" (Stats.percentile wire 0.99);
      metric "cache.hit" "count" (outcome "hit");
      metric "cache.rebind" "count" (outcome "rebind");
      metric "cache.miss" "count" (outcome "miss");
      metric "cache.useful_ratio" "ratio" (float_of_int !useful /. float_of_int (max 1 !timed));
      metric "reply.bytes" "bytes" (float_of_int !bytes /. float_of_int (max 1 !timed));
    ]
    @ conn "hot" @ conn "cold"
    @ [
        metric "exec.calls" "count" (float_of_int nkeys);
        metric "exec.self_ms" "ms" !exec_ms;
        metric "exec.sim_s" "sim_s" !exec_sim;
      ]
  in
  {
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    prefix_outcomes = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []);
    metrics;
    layers;
  }

(* ---------------- output ---------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report ~correct ~attempted ~failed metrics =
  (* a value that could not be measured reads 0 and makes the run incorrect *)
  let correct = correct && List.for_all (fun m -> Float.is_finite m.value) metrics in
  let metrics =
    List.map (fun m -> if Float.is_finite m.value then m else { m with value = 0.0; note = "not measured" }) metrics
  in
  List.iter
    (fun m ->
      Printf.printf "metric %s %s %s%s\n" m.name (json_num m.value) m.unit_
        (if m.note = "" then "" else "  # " ^ m.note))
    metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun m -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.name (json_num m.value) m.unit_)
          metrics))

(* ---------------- the traced replay ---------------- *)

let config = Orca.Orca_config.with_workers (Orca.Orca_config.with_segments Orca.Orca_config.default Oracle.segments) 1

(* Replay the audit prefixes untraced, then traced; returns the per-layer
   metrics, the replay's cache outcomes and the problems found. *)
let replay_layers env ~trace_path streams =
  let warm = List.map (fun qid -> (Tpcds.Queries.get qid).Tpcds.Queries.sql) Streams.served_qids in
  let lanes =
    List.map
      (fun (name, reqs) ->
        (name, List.init (prefix_of name) (fun i -> reqs.(i).Streams.line)))
      streams
  in
  let replay traced = Replay.run ~traced ~provider:env.Oracle.provider ~config ~warm lanes in
  (* untraced on both sides of the traced replay: the first pass also pays
     for growing the heap *)
  let plain = replay false in
  let r = replay true in
  let plain_ms = Float.min plain.Replay.wall_ms (replay false).Replay.wall_ms in
  Out_channel.with_open_bin trace_path (fun oc ->
      output_string oc (Obs.Trace_export.to_chrome_json r.Replay.spans));
  let problems =
    List.map Obs.Trace_export.violation_to_string (Obs.Trace_export.check_consistency r.Replay.spans)
  in
  let self = Replay.self_ms r.Replay.spans in
  let self_of name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  let total_ms =
    List.fold_left
      (fun acc e -> if e.Obs.Span.sp_name = "request" then acc +. (e.Obs.Span.sp_dur_us /. 1000.0) else acc)
      0.0 r.Replay.spans
  in
  let summed = Hashtbl.fold (fun _ v acc -> acc +. v) self 0.0 in
  let problems =
    if Float.abs (summed -. total_ms) > 1e-6 *. Float.max 1.0 total_ms then
      Printf.sprintf "layer self times sum to %.6f ms, requests took %.6f ms" summed total_ms :: problems
    else problems
  in
  let requests = List.fold_left (fun acc (_, v) -> acc + v) 0 r.Replay.outcomes in
  let per_layer =
    List.concat_map
      (fun name ->
        let a = Option.value ~default:{ Replay.calls = 0; alloc_w = 0.0 } (Hashtbl.find_opt r.Replay.accs name) in
        [
          metric (name ^ ".calls") "count" (float_of_int a.Replay.calls);
          metric (name ^ ".self_ms") "ms" (self_of name);
          metric (name ^ ".alloc_kw") "kw" (a.Replay.alloc_w /. 1000.0);
        ])
      Replay.layers
  in
  let s = r.Replay.search in
  let layers =
    per_layer
    @ [
        metric "plan_cache.evictions" "count" (float_of_int r.Replay.evictions);
        metric "orca.preprocess_ms" "ms" s.Replay.preprocess_ms;
        metric "orca.search_ms" "ms" s.Replay.search_ms;
        metric "orca.groups" "count" (float_of_int s.Replay.groups);
        metric "orca.gexprs" "count" (float_of_int s.Replay.gexprs);
        metric "orca.contexts" "count" (float_of_int s.Replay.contexts);
        metric "orca.xforms" "count" (float_of_int s.Replay.xforms);
        metric "orca.jobs_run" "count" (float_of_int s.Replay.jobs_run);
        metric "dxl.bytes" "bytes" (float_of_int s.Replay.dxl_bytes /. float_of_int (max 1 requests));
        metric "gc.minor_kw" "kw" (r.Replay.minor_words /. 1000.0);
        metric "gc.major_collections" "count" (float_of_int r.Replay.major_collections);
        metric "request.total_ms" "ms" total_ms;
        metric "unattributed_ms" "ms" (self_of "request");
        metric "trace.overhead" "ratio" (r.Replay.wall_ms /. plain_ms)
          ~note:(Printf.sprintf "traced %.1f ms / untraced %.1f ms" r.Replay.wall_ms plain_ms);
      ]
  in
  (layers, r.Replay.outcomes, problems)

let bench name ~seed ~seconds ~trace =
  let w = workload_of_string name in
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  let bases = Streams.bases () in
  let env = lazy (Oracle.env sf) in
  let answers = Oracle.references ~dir:state_dir ~sf ~log env bases in
  let audit_answers = Oracle.references ~dir:state_dir ~sf ~log env (Lazy.force audit_bases) in
  let streams = streams w ~seed ~seconds bases in
  (* the replay runs first, so its heap and collections do not depend on
     how far the socket run got *)
  let replayed =
    if trace then
      let path = Filename.concat state_dir (Printf.sprintf "trace-%s-%d.json" name seed) in
      Some (replay_layers (Lazy.force env) ~trace_path:path streams)
    else None
  in
  Unix.sleepf settle_s;
  let run = socket_run ~seconds streams in
  let o = analyse w run bases answers env in
  let errors, wrong = audit_findings run audit_answers env in
  let qids l = String.concat " " (List.map (Printf.sprintf "q%d") l) in
  Printf.printf "defect audit of %d texts outside the workload: %d error replies (%s); %d wrong answers (%s)\n"
    (List.length run.audit) (List.length errors) (qids errors) (List.length wrong) (qids wrong);
  let audit_metrics =
    [
      metric "audit.error_replies" "count" (float_of_int (List.length errors));
      metric "audit.wrong_rows" "count" (float_of_int (List.length wrong));
    ]
  in
  let problems, layers =
    match replayed with
    | None -> (o.problems, [])
    | Some (layers, outcomes, problems) ->
        let drift =
          (* with one connection the cache sees the same request order in
             the replay as on the socket; mixed interleaves its two by timing *)
          if w <> Mixed && outcomes <> o.prefix_outcomes then
            [ Printf.sprintf "replay outcomes %s differ from the socket run's %s"
                (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) outcomes))
                (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o.prefix_outcomes)) ]
          else []
        in
        (o.problems @ problems @ drift, layers)
  in
  List.iter (fun p -> log ("invariant broken: " ^ p)) problems;
  Printf.printf "operations attempted=%d failed=%d\n" o.attempted o.failed;
  report ~correct:(problems = []) ~attempted:o.attempted ~failed:o.failed
    (if trace then o.layers @ layers @ audit_metrics else o.metrics)

(* ---------------- repeat mode ---------------- *)

(* Run the benchmark [n] times, each in its own process with the next seed,
   and print every metric's median, quartiles and spread (the quartile
   distance as a share of the median). *)
let repeat ~n ~workload ~seed ~seconds ~trace =
  let values = Hashtbl.create 64 and order = ref [] and units = Hashtbl.create 64 in
  for k = 0 to n - 1 do
    let args =
      [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int (seed + k);
         "--seconds"; string_of_int seconds; "--trace"; string_of_int trace |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let seen = Buffer.create 256 in
    let rec read last =
      match In_channel.input_line ic with
      | None -> last
      | Some l ->
          (match String.split_on_char ' ' l with
          | "metric" :: name :: v :: u :: _ ->
              if not (Hashtbl.mem values name) then order := name :: !order;
              Hashtbl.replace units name u;
              Hashtbl.replace values name
                (float_of_string v :: Option.value ~default:[] (Hashtbl.find_opt values name));
              Printf.bprintf seen " %s=%.4g" name (float_of_string v)
          | _ -> ());
          read l
    in
    let last = read "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "a repeated run failed");
    (* the result line without its metrics: correct, attempted, failed *)
    let verdict =
      let m = ",\"metrics\"" in
      let rec cut i =
        if i + String.length m > String.length last then last
        else if String.sub last i (String.length m) = m then String.sub last 0 i ^ "}"
        else cut (i + 1)
      in
      cut 0
    in
    Printf.printf "run %d (seed %d) %s%s\n%!" (k + 1) (seed + k) verdict (Buffer.contents seen)
  done;
  Printf.printf "%-28s %14s %14s %14s %8s  (%d runs)\n" "metric" "q1" "median" "q3" "spread" n;
  List.iter
    (fun name ->
      let a = Array.of_list (Hashtbl.find values name) in
      if Array.length a >= 2 then
        match Stats.quartiles a with
        | [ q1; q2; q3 ] ->
            Printf.printf "%-28s %14.6g %14.6g %14.6g %8.4f  %s\n" name q1 q2 q3 (Stats.spread a)
              (Hashtbl.find units name)
        | _ -> ())
    (List.rev !order)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get ?default name =
    match (opt name args, default) with
    | Some v, _ | None, Some v -> v
    | None, None -> failwith ("missing " ^ name)
  in
  if List.mem "--selftest" args then Selftest.run ()
  else
    let workload = get "--workload" and seed = int_of_string (get ~default:"1" "--seed") in
    let seconds = int_of_string (get ~default:"10" "--seconds") in
    let trace = int_of_string (get ~default:"0" "--trace") in
    match opt "--repeat" args with
    | Some n -> repeat ~n:(int_of_string n) ~workload ~seed ~seconds ~trace
    | None -> bench workload ~seed ~seconds ~trace:(trace = 1)
