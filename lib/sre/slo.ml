(* Rolling-window SLO accounting.

   Each interval of the ring is a mutable accumulator sharing the
   lib/telemetry histogram bucket geometry; a report lifts every interval
   into a Metrics.hsnap and folds them with Metrics.merge (associative,
   commutative — the same primitive that aggregates per-worker histograms)
   before walking quantiles. One mutex guards rotation and observation:
   the per-request work under it is two array stores and a handful of
   integer bumps, far below the cost of the request itself. *)

type objectives = {
  slo_window_s : float;
  slo_intervals : int;
  slo_latency_ms : float;
  slo_latency_target : float;
  slo_availability_target : float;
}

let default_objectives =
  {
    slo_window_s = 300.0;
    slo_intervals = 30;
    slo_latency_ms = 100.0;
    slo_latency_target = 0.99;
    slo_availability_target = 0.999;
  }

type interval = {
  mutable i_count : int;
  mutable i_errors : int;
  mutable i_good : int;
  mutable i_sum_ms : float;
  i_buckets : int array; (* Telemetry.Metrics bucket geometry *)
}

let fresh_interval () =
  {
    i_count = 0;
    i_errors = 0;
    i_good = 0;
    i_sum_ms = 0.0;
    i_buckets = Array.make Telemetry.Metrics.nbuckets 0;
  }

let zero_interval i =
  i.i_count <- 0;
  i.i_errors <- 0;
  i.i_good <- 0;
  i.i_sum_ms <- 0.0;
  Array.fill i.i_buckets 0 (Array.length i.i_buckets) 0

type t = {
  obj : objectives;
  interval_s : float;
  ring : interval array;
  mutable cur : int;
  mutable cur_start : float;
  lock : Mutex.t;
}

let create ?(objectives = default_objectives) () =
  let n = max 1 objectives.slo_intervals in
  {
    obj = { objectives with slo_intervals = n };
    interval_s = objectives.slo_window_s /. float_of_int n;
    ring = Array.init n (fun _ -> fresh_interval ());
    cur = 0;
    cur_start = Gpos.Clock.now ();
    lock = Mutex.create ();
  }

let objectives t = t.obj

(* Advance the ring to cover [now], zeroing every interval the clock
   skipped. A gap longer than the whole window resets the ring in one
   step rather than spinning per interval. *)
let rotate_locked t now =
  let n = Array.length t.ring in
  if now -. t.cur_start >= t.interval_s *. float_of_int (2 * n) then begin
    Array.iter zero_interval t.ring;
    t.cur_start <- now
  end
  else
    while now -. t.cur_start >= t.interval_s do
      t.cur <- (t.cur + 1) mod n;
      zero_interval t.ring.(t.cur);
      t.cur_start <- t.cur_start +. t.interval_s
    done

let observe t ~ms ~ok =
  let now = Gpos.Clock.now () in
  Mutex.lock t.lock;
  rotate_locked t now;
  let i = t.ring.(t.cur) in
  i.i_count <- i.i_count + 1;
  if not ok then i.i_errors <- i.i_errors + 1;
  if ok && ms <= t.obj.slo_latency_ms then i.i_good <- i.i_good + 1;
  let ms = if Float.is_nan ms || ms < 0.0 then 0.0 else ms in
  i.i_sum_ms <- i.i_sum_ms +. ms;
  let b = Telemetry.Metrics.bucket_of ms in
  i.i_buckets.(b) <- i.i_buckets.(b) + 1;
  Mutex.unlock t.lock

let reset t =
  let now = Gpos.Clock.now () in
  Mutex.lock t.lock;
  Array.iter zero_interval t.ring;
  t.cur <- 0;
  t.cur_start <- now;
  Mutex.unlock t.lock

type report = {
  r_objectives : objectives;
  r_requests : int;
  r_errors : int;
  r_good : int;
  r_availability : float;
  r_attainment : float;
  r_p50_ms : float;
  r_p95_ms : float;
  r_p99_ms : float;
  r_latency_burn : float;
  r_availability_burn : float;
  r_latency_ok : bool;
  r_availability_ok : bool;
}

(* burn = bad_fraction / budget; an objective with no budget (target 1.0)
   burns infinitely the moment anything is bad, rendered as a large
   finite number so the JSON stays parseable everywhere. *)
let burn ~bad ~target =
  let budget = 1.0 -. target in
  if bad <= 0.0 then 0.0
  else if budget <= 0.0 then 1e9
  else bad /. budget

let report t =
  let now = Gpos.Clock.now () in
  Mutex.lock t.lock;
  rotate_locked t now;
  let count = ref 0 and errors = ref 0 and good = ref 0 in
  let merged =
    Array.fold_left
      (fun acc i ->
        count := !count + i.i_count;
        errors := !errors + i.i_errors;
        good := !good + i.i_good;
        Telemetry.Metrics.merge acc
          {
            Telemetry.Metrics.hs_count = i.i_count;
            hs_sum = i.i_sum_ms;
            hs_buckets = Array.copy i.i_buckets;
          })
      Telemetry.Metrics.empty_hsnap t.ring
  in
  Mutex.unlock t.lock;
  let requests = !count in
  let availability =
    if requests = 0 then 1.0
    else float_of_int (requests - !errors) /. float_of_int requests
  in
  let attainment =
    if requests = 0 then 1.0 else float_of_int !good /. float_of_int requests
  in
  {
    r_objectives = t.obj;
    r_requests = requests;
    r_errors = !errors;
    r_good = !good;
    r_availability = availability;
    r_attainment = attainment;
    r_p50_ms = Telemetry.Metrics.quantile merged 0.50;
    r_p95_ms = Telemetry.Metrics.quantile merged 0.95;
    r_p99_ms = Telemetry.Metrics.quantile merged 0.99;
    r_latency_burn = burn ~bad:(1.0 -. attainment) ~target:t.obj.slo_latency_target;
    r_availability_burn =
      burn ~bad:(1.0 -. availability) ~target:t.obj.slo_availability_target;
    r_latency_ok = attainment >= t.obj.slo_latency_target;
    r_availability_ok = availability >= t.obj.slo_availability_target;
  }

let healthy r = r.r_latency_ok && r.r_availability_ok

let json r =
  let o = r.r_objectives in
  let g x = Gpos.Json.Num (Gpos.Json.general 6 x)
  and f d x = Gpos.Json.Num (Gpos.Json.fixed d x)
  and i = Gpos.Json.int in
  Gpos.Json.Obj
    [
      ("window_s", g o.slo_window_s);
      ("intervals", i o.slo_intervals);
      ("latency_slo_ms", g o.slo_latency_ms);
      ("latency_target", g o.slo_latency_target);
      ("availability_target", g o.slo_availability_target);
      ("requests", i r.r_requests);
      ("errors", i r.r_errors);
      ("good", i r.r_good);
      ("availability", f 6 r.r_availability);
      ("attainment", f 6 r.r_attainment);
      ("p50_ms", f 4 r.r_p50_ms);
      ("p95_ms", f 4 r.r_p95_ms);
      ("p99_ms", f 4 r.r_p99_ms);
      ("latency_burn", f 6 r.r_latency_burn);
      ("availability_burn", f 6 r.r_availability_burn);
      ("latency_ok", Gpos.Json.Bool r.r_latency_ok);
      ("availability_ok", Gpos.Json.Bool r.r_availability_ok);
    ]

let to_json r = Gpos.Json.to_string (json r)
