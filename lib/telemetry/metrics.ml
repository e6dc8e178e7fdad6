(* Always-on metrics registry: counters, gauges, log-bucketed histograms.

   Everything here is built to be safe to leave enabled in production
   (ROADMAP item 1, optimizer-as-a-service): the hot-path operations are a
   single saturating [Atomic] add with no allocation — histogram sums are
   kept as fixed-point integers precisely so that [observe] never boxes a
   float. Snapshots, quantiles and merging are cold-path and allocate
   freely.

   Histograms are log-bucketed: bucket [i] covers values in
   (lo * 2^((i-1)/8), lo * 2^(i/8)] with lo = 1e-3. Eight buckets per
   doubling gives a worst-case relative quantile error of 2^(1/16) (~4.4%)
   when quantile estimates use the geometric bucket midpoint, and 256
   buckets span 1e-3 .. ~4.3e6 — microseconds to over an hour when the
   unit is milliseconds. Bucket counts are plain arrays of atomics, so two
   histogram snapshots merge by bucket-wise addition (associative and
   commutative; see test/test_telemetry.ml). *)

(* ------------------------------------------------------------------ *)
(* Bucket geometry                                                     *)

let nbuckets = 256
let buckets_per_doubling = 8
let lo = 1e-3

(* Upper bound of bucket [i]; bucket [nbuckets-1] additionally absorbs
   every larger value. *)
let upper =
  Array.init nbuckets (fun i ->
      lo *. Float.pow 2.0 (float_of_int (i + 1) /. float_of_int buckets_per_doubling))

let bucket_upper i = upper.(i)

(* Smallest [i] with [v <= upper.(i)]. The log2 estimate can be off by one
   either way at bucket boundaries (floating point), so fix up by direct
   comparison — the loops run at most one step in practice. *)
let bucket_of v =
  if Float.is_nan v || v <= upper.(0) then 0
  else if v > upper.(nbuckets - 1) then nbuckets - 1
  else begin
    let i =
      int_of_float
        (Float.log2 (v /. lo) *. float_of_int buckets_per_doubling)
    in
    let i = if i < 0 then 0 else if i > nbuckets - 1 then nbuckets - 1 else i in
    let rec up i = if i < nbuckets - 1 && upper.(i) < v then up (i + 1) else i in
    let rec down i = if i > 0 && upper.(i - 1) >= v then down (i - 1) else i in
    down (up i)
  end

(* ------------------------------------------------------------------ *)
(* Primitive values                                                    *)

type counter = int Atomic.t

(* Saturating add: a counter never wraps to negative, it pins at
   [max_int] (tested in test_telemetry). *)
let rec sat_add (c : counter) d =
  if d > 0 then begin
    let cur = Atomic.get c in
    let next = if cur > max_int - d then max_int else cur + d in
    if not (Atomic.compare_and_set c cur next) then sat_add c d
  end

let inc c = sat_add c 1
let add c d = sat_add c d
let counter_value c = Atomic.get c

(* Gauges hold a float and are set/maxed off the hot path (once per query
   at most), so the boxed [Atomic.set] is acceptable. *)
type gauge = float Atomic.t

let set (g : gauge) v = Atomic.set g v

let rec gauge_max (g : gauge) v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then gauge_max g v

let gauge_value (g : gauge) = Atomic.get g

(* Histogram sums are fixed-point (1e-6 resolution) so [observe] is two
   saturating int adds and one array increment — no allocation. *)
let fp_scale = 1e6

type histogram = {
  h_counts : int Atomic.t array;  (* length nbuckets, per-bucket counts *)
  h_count : counter;
  h_sum_fp : counter;             (* sum in fixed-point units *)
}

let observe h v =
  if not (Float.is_nan v) then begin
    let v = if v < 0.0 then 0.0 else v in
    sat_add h.h_counts.(bucket_of v) 1;
    sat_add h.h_count 1;
    sat_add h.h_sum_fp (int_of_float (v *. fp_scale))
  end

(* ------------------------------------------------------------------ *)
(* Histogram snapshots: merge and quantiles                            *)

type hsnap = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : int array;  (* length nbuckets, non-cumulative *)
}

let hsnap h =
  {
    hs_count = Atomic.get h.h_count;
    hs_sum = float_of_int (Atomic.get h.h_sum_fp) /. fp_scale;
    hs_buckets = Array.map Atomic.get h.h_counts;
  }

let empty_hsnap =
  { hs_count = 0; hs_sum = 0.0; hs_buckets = Array.make nbuckets 0 }

let sat_int a b = if a > max_int - b then max_int else a + b

let merge a b =
  {
    hs_count = sat_int a.hs_count b.hs_count;
    hs_sum = a.hs_sum +. b.hs_sum;
    hs_buckets = Array.init nbuckets (fun i -> sat_int a.hs_buckets.(i) b.hs_buckets.(i));
  }

(* Representative value of bucket [i]: the geometric midpoint, which
   bounds the relative error against any point in the bucket by
   2^(1/(2*buckets_per_doubling)). The first and last buckets are open,
   so their bound is the honest representative. *)
let bucket_value i =
  if i = 0 then upper.(0)
  else if i = nbuckets - 1 then upper.(nbuckets - 1)
  else sqrt (upper.(i - 1) *. upper.(i))

(* Quantile by rank walk: value of the bucket holding the ceil(q*n)-th
   smallest observation. Monotone in [q] by construction. *)
let quantile s q =
  if s.hs_count = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int s.hs_count)) in
      if r < 1 then 1 else r
    in
    let rec walk i cum =
      if i >= nbuckets then bucket_value (nbuckets - 1)
      else
        let cum = cum + s.hs_buckets.(i) in
        if cum >= rank then bucket_value i else walk (i + 1) cum
    in
    walk 0 0
  end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

type vsnap = S_counter of int | S_gauge of float | S_histogram of hsnap

type sample = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_value : vsnap;
}

type snapshot = { snap_ts : float; samples : sample list }

type value = V_counter of counter | V_gauge of gauge | V_histogram of histogram

type entry = {
  m_name : string;
  m_help : string;
  m_labels : (string * string) list;
  m_value : value;
}

type t = { tbl : (string, entry) Hashtbl.t; lock : Mutex.t }

let create () = { tbl = Hashtbl.create 64; lock = Mutex.create () }

let default = create ()

let key name labels =
  let labels = List.sort compare labels in
  name
  ^ String.concat "" (List.map (fun (k, v) -> "\x00" ^ k ^ "\x01" ^ v) labels)

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Registration is idempotent: the same (name, labels) returns the
   existing handle; re-registering under a different kind is a bug. *)
let register t ~labels ~help name mk classify =
  with_lock t (fun () ->
      let k = key name labels in
      match Hashtbl.find_opt t.tbl k with
      | Some e -> (
          match classify e.m_value with
          | Some v -> v
          | None ->
              Gpos.Gpos_error.internal
                "telemetry: %s re-registered with a different kind" name)
      | None ->
          let v = mk () in
          Hashtbl.replace t.tbl k
            {
              m_name = name;
              m_help = help;
              m_labels = List.sort compare labels;
              m_value = v;
            };
          match classify v with
          | Some v -> v
          | None -> assert false)

let counter t ?(labels = []) ~help name =
  register t ~labels ~help name
    (fun () -> V_counter (Atomic.make 0))
    (function V_counter c -> Some c | _ -> None)

let gauge t ?(labels = []) ~help name =
  register t ~labels ~help name
    (fun () -> V_gauge (Atomic.make 0.0))
    (function V_gauge g -> Some g | _ -> None)

let histogram t ?(labels = []) ~help name =
  register t ~labels ~help name
    (fun () ->
      V_histogram
        {
          h_counts = Array.init nbuckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum_fp = Atomic.make 0;
        })
    (function V_histogram h -> Some h | _ -> None)

(* Zero every value in place. Handles held by callers (lib/core's Std
   bindings) stay valid — essential for deterministic tests. *)
let reset t =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ e ->
          match e.m_value with
          | V_counter c -> Atomic.set c 0
          | V_gauge g -> Atomic.set g 0.0
          | V_histogram h ->
              Array.iter (fun a -> Atomic.set a 0) h.h_counts;
              Atomic.set h.h_count 0;
              Atomic.set h.h_sum_fp 0)
        t.tbl)

(* Samples sorted by (name, labels) so exposition is deterministic no
   matter the registration order. *)
let snapshot t =
  let samples =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun _ e acc ->
            let v =
              match e.m_value with
              | V_counter c -> S_counter (Atomic.get c)
              | V_gauge g -> S_gauge (Atomic.get g)
              | V_histogram h -> S_histogram (hsnap h)
            in
            {
              s_name = e.m_name;
              s_help = e.m_help;
              s_labels = e.m_labels;
              s_value = v;
            }
            :: acc)
          t.tbl [])
  in
  let samples =
    List.sort
      (fun a b ->
        match compare a.s_name b.s_name with
        | 0 -> compare a.s_labels b.s_labels
        | c -> c)
      samples
  in
  { snap_ts = Gpos.Clock.now (); samples }
