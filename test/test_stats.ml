open Ir

(* Tests for histograms, selectivity estimation and statistics derivation. *)

let ints lo hi = List.init (hi - lo + 1) (fun i -> Datum.Int (lo + i))

let close ?(eps = 1e-6) name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s (%.4f vs %.4f)" name a b)
    true
    (Float.abs (a -. b) <= eps)

let test_build_totals () =
  let h = Stats.Histogram.build (ints 0 999) in
  close "total" 1000.0 (Stats.Histogram.total_rows h);
  close "ndv" 1000.0 (Stats.Histogram.ndv h);
  close "no nulls" 0.0 (Stats.Histogram.null_fraction h)

let test_build_with_nulls () =
  let vals = Datum.Null :: Datum.Null :: ints 1 8 in
  let h = Stats.Histogram.build vals in
  close "total includes nulls" 10.0 (Stats.Histogram.total_rows h);
  close "null fraction" 0.2 (Stats.Histogram.null_fraction h)

let test_select_eq () =
  let h = Stats.Histogram.build (ints 0 99) in
  let sel = Stats.Histogram.selectivity_cmp h Expr.Eq (Datum.Int 50) in
  close ~eps:0.005 "eq uniform" 0.01 sel;
  let out = Stats.Histogram.selectivity_cmp h Expr.Eq (Datum.Int 1000) in
  close "out of range" 0.0 out

let test_select_range () =
  let h = Stats.Histogram.build (ints 0 99) in
  let sel = Stats.Histogram.selectivity_cmp h Expr.Lt (Datum.Int 25) in
  Alcotest.(check bool) "quarterish" true (sel > 0.15 && sel < 0.35);
  let all = Stats.Histogram.selectivity_cmp h Expr.Ge (Datum.Int 0) in
  Alcotest.(check bool) "everything" true (all > 0.9)

let test_join_eq_cardinality () =
  (* R: 0..99 x10 each, S: 0..99 x5 each => |join| = 100 * 10 * 5 = 5000 *)
  let r =
    Stats.Histogram.build
      (List.concat_map (fun _ -> ints 0 99) (List.init 10 Fun.id))
  in
  let s =
    Stats.Histogram.build
      (List.concat_map (fun _ -> ints 0 99) (List.init 5 Fun.id))
  in
  let card, h = Stats.Histogram.join_eq r s in
  Alcotest.(check bool)
    (Printf.sprintf "join card ~5000 (got %.0f)" card)
    true
    (card > 3000.0 && card < 6500.0);
  Alcotest.(check bool) "result hist populated" true
    (Stats.Histogram.total_rows h > 0.0)

let test_join_eq_disjoint () =
  let r = Stats.Histogram.build (ints 0 49) in
  let s = Stats.Histogram.build (ints 100 149) in
  let card, _ = Stats.Histogram.join_eq r s in
  close "disjoint domains" 0.0 card

let test_skew () =
  let skewed =
    Stats.Histogram.build
      (List.concat
         [ List.init 900 (fun _ -> Datum.Int 1); ints 2 101 ])
  in
  Alcotest.(check bool) "skew detected" true (Stats.Histogram.skew skewed > 2.0);
  let uniform = Stats.Histogram.build (ints 0 999) in
  Alcotest.(check bool) "uniform low skew" true (Stats.Histogram.skew uniform < 1.5)

let test_scale () =
  let h = Stats.Histogram.build (ints 0 99) in
  let h2 = Stats.Histogram.scale h 0.5 in
  close "scaled" 50.0 (Stats.Histogram.total_rows h2)

(* --- relstats + selectivity --- *)

let mk_stats () =
  let a = Fixtures.col 1 "a" and b = Fixtures.col 2 "b" in
  let ha = Stats.Histogram.build (ints 0 99) in
  let hb =
    Stats.Histogram.build (List.concat_map (fun _ -> ints 0 9) (List.init 10 Fun.id))
  in
  (a, b, Stats.Relstats.make ~rows:100.0 [ (a, ha); (b, hb) ])

let test_apply_pred () =
  let a, _, stats = mk_stats () in
  let filtered =
    Stats.Selectivity.apply_pred stats
      (Expr.Cmp (Expr.Lt, Expr.Col a, Expr.Const (Datum.Int 50)))
  in
  let rows = Stats.Relstats.rows filtered in
  Alcotest.(check bool)
    (Printf.sprintf "about half (%.1f)" rows)
    true
    (rows > 35.0 && rows < 65.0);
  (* the filtered column's histogram tightened *)
  (match Stats.Relstats.col_hist filtered a with
  | Some h ->
      Alcotest.(check bool) "max below cut" true
        (match Stats.Histogram.max_value h with
        | Some v -> Datum.compare v (Datum.Int 50) <= 0
        | None -> false)
  | None -> Alcotest.fail "histogram dropped")

let test_conjunction_composes () =
  let a, b, stats = mk_stats () in
  let pred =
    Expr.And
      [
        Expr.Cmp (Expr.Lt, Expr.Col a, Expr.Const (Datum.Int 50));
        Expr.Cmp (Expr.Eq, Expr.Col b, Expr.Const (Datum.Int 3));
      ]
  in
  let filtered = Stats.Selectivity.apply_pred stats pred in
  let rows = Stats.Relstats.rows filtered in
  Alcotest.(check bool)
    (Printf.sprintf "conjunction ~5 (%.1f)" rows)
    true
    (rows > 1.0 && rows < 12.0)

let test_or_selectivity () =
  let a, _, stats = mk_stats () in
  let pred =
    Expr.Or
      [
        Expr.Cmp (Expr.Lt, Expr.Col a, Expr.Const (Datum.Int 10));
        Expr.Cmp (Expr.Ge, Expr.Col a, Expr.Const (Datum.Int 90));
      ]
  in
  let sel = Stats.Selectivity.selectivity stats pred in
  Alcotest.(check bool)
    (Printf.sprintf "or ~0.2 (%.3f)" sel)
    true
    (sel > 0.1 && sel < 0.35)

let test_derive_join () =
  let f = Colref.Factory.create () in
  let a = Colref.Factory.fresh f ~name:"a" ~ty:Dtype.Int in
  let b = Colref.Factory.fresh f ~name:"b" ~ty:Dtype.Int in
  let sa = Stats.Relstats.make ~rows:100.0 [ (a, Stats.Histogram.build (ints 0 99)) ] in
  let sb =
    Stats.Relstats.make ~rows:1000.0
      [ (b, Stats.Histogram.build (List.concat_map (fun _ -> ints 0 99) (List.init 10 Fun.id))) ]
  in
  let joined =
    Stats.Derive.join_stats Expr.Inner
      (Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b))
      sa sb
      ~outer_cols:(Colref.Set.singleton a)
      ~inner_cols:(Colref.Set.singleton b)
  in
  let rows = Stats.Relstats.rows joined in
  Alcotest.(check bool)
    (Printf.sprintf "fk join ~1000 (%.0f)" rows)
    true
    (rows > 500.0 && rows < 2000.0)

let test_derive_semi_anti () =
  let f = Colref.Factory.create () in
  let a = Colref.Factory.fresh f ~name:"a" ~ty:Dtype.Int in
  let b = Colref.Factory.fresh f ~name:"b" ~ty:Dtype.Int in
  let sa = Stats.Relstats.make ~rows:100.0 [ (a, Stats.Histogram.build (ints 0 99)) ] in
  let sb = Stats.Relstats.make ~rows:50.0 [ (b, Stats.Histogram.build (ints 0 49)) ] in
  let cond = Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) in
  let semi =
    Stats.Derive.join_stats Expr.Semi cond sa sb
      ~outer_cols:(Colref.Set.singleton a) ~inner_cols:(Colref.Set.singleton b)
  in
  let anti =
    Stats.Derive.join_stats Expr.Anti_semi cond sa sb
      ~outer_cols:(Colref.Set.singleton a) ~inner_cols:(Colref.Set.singleton b)
  in
  Alcotest.(check bool) "semi bounded by outer" true
    (Stats.Relstats.rows semi <= 100.0);
  close ~eps:0.5 "semi + anti = outer" 100.0
    (Stats.Relstats.rows semi +. Stats.Relstats.rows anti)

let test_derive_gb_agg () =
  let f = Colref.Factory.create () in
  let a = Colref.Factory.fresh f ~name:"a" ~ty:Dtype.Int in
  let out = Colref.Factory.fresh f ~name:"cnt" ~ty:Dtype.Int in
  let sa =
    Stats.Relstats.make ~rows:1000.0
      [ (a, Stats.Histogram.build (List.concat_map (fun _ -> ints 0 9) (List.init 100 Fun.id))) ]
  in
  let agg =
    { Expr.agg_kind = Expr.Count_star; agg_arg = None; agg_distinct = false; agg_out = out }
  in
  let grouped = Stats.Derive.gb_agg_stats [ a ] [ agg ] sa in
  let rows = Stats.Relstats.rows grouped in
  Alcotest.(check bool)
    (Printf.sprintf "ndv groups (%.1f)" rows)
    true
    (rows >= 9.0 && rows <= 12.0);
  let scalar = Stats.Derive.gb_agg_stats [] [ agg ] sa in
  close "scalar agg one row" 1.0 (Stats.Relstats.rows scalar)

(* --- property-based tests --- *)

let datum_int_gen = QCheck.Gen.map (fun n -> Datum.Int n) (QCheck.Gen.int_bound 500)

let values_gen = QCheck.Gen.list_size (QCheck.Gen.int_range 1 300) datum_int_gen

let prop_build_conserves_rows =
  QCheck.Test.make ~count:100 ~name:"histogram build conserves row count"
    (QCheck.make values_gen)
    (fun values ->
      let h = Stats.Histogram.build values in
      Float.abs (Stats.Histogram.total_rows h -. float_of_int (List.length values))
      < 0.5)

let prop_filter_bounded =
  QCheck.Test.make ~count:100 ~name:"filtered histogram never grows"
    (QCheck.make (QCheck.Gen.pair values_gen (QCheck.Gen.int_bound 500)))
    (fun (values, cut) ->
      values <> []
      &&
      let h = Stats.Histogram.build values in
      List.for_all
        (fun op ->
          let f = Stats.Histogram.select_cmp h op (Datum.Int cut) in
          Stats.Histogram.total_rows f
          <= Stats.Histogram.total_rows h +. 1e-6)
        [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ])

let prop_lt_ge_partition =
  QCheck.Test.make ~count:100 ~name:"P(<v) + P(>=v) ~ 1 - nulls"
    (QCheck.make (QCheck.Gen.pair values_gen (QCheck.Gen.int_bound 500)))
    (fun (values, cut) ->
      values <> []
      &&
      let h = Stats.Histogram.build values in
      let lt = Stats.Histogram.selectivity_cmp h Expr.Lt (Datum.Int cut) in
      let ge = Stats.Histogram.selectivity_cmp h Expr.Ge (Datum.Int cut) in
      lt +. ge <= 1.15 && lt +. ge >= 0.75)

let prop_join_bounded_by_cross =
  QCheck.Test.make ~count:60 ~name:"join cardinality bounded by cross product"
    (QCheck.make (QCheck.Gen.pair values_gen values_gen))
    (fun (va, vb) ->
      va <> [] && vb <> []
      &&
      let a = Stats.Histogram.build va and b = Stats.Histogram.build vb in
      let card, _ = Stats.Histogram.join_eq a b in
      card
      <= (Stats.Histogram.total_rows a *. Stats.Histogram.total_rows b) +. 1.0)

(* --- the bucket invariant and the linear join --- *)

module H = Stats.Histogram

(* Column domains for generated histograms. [Mixed] holds Int and Float
   datums, some numerically equal ([Int 3], [Float 3.0]); [Strings] share
   long prefixes, so [Datum.to_float]'s eight-character embedding ties or
   inverts values that [Datum.compare] orders. *)
type domain = Ints | Floats | Mixed | Dates | Strings

let domain_gen = QCheck.Gen.oneofl [ Ints; Floats; Mixed; Dates; Strings ]

let datum_gen domain =
  let open QCheck.Gen in
  match domain with
  | Ints -> map (fun n -> Datum.Int n) (int_bound 60)
  | Floats -> map (fun n -> Datum.Float (float_of_int n /. 2.0)) (int_bound 120)
  | Mixed ->
      oneof
        [
          map (fun n -> Datum.Int n) (int_bound 60);
          map (fun n -> Datum.Float (float_of_int n /. 2.0)) (int_bound 120);
        ]
  | Dates -> map (fun n -> Datum.Date (36_500 + n)) (int_bound 200)
  | Strings ->
      map
        (fun (prefix, tail) -> Datum.String (String.make prefix 'a' ^ tail))
        (pair (int_bound 9) (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 3)))

let cmp_gen =
  QCheck.Gen.oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ]

let built_gen domain =
  let open QCheck.Gen in
  map2
    (fun nbuckets values -> H.build ~nbuckets values)
    (int_range 1 12)
    (list_size (int_bound 80)
       (frequency [ (9, datum_gen domain); (1, return Datum.Null) ]))

let key_col = Fixtures.col 1 "k"

(* [Derive]'s duplicate-eliminated histogram of a grouping key *)
let distinct h =
  match
    Stats.Relstats.col_hist
      (Stats.Derive.gb_agg_stats [ key_col ] []
         (Stats.Relstats.make ~rows:(H.total_rows h) [ (key_col, h) ]))
      key_col
  with
  | Some d -> d
  | None -> h

(* A histogram from the producers the optimizer uses: [build] or [uniform],
   then up to three of [scale], [select_cmp], duplicate elimination and a
   [join_eq] against another built histogram. *)
let hist_gen domain =
  let open QCheck.Gen in
  let base =
    frequency
      [
        (4, built_gen domain);
        ( 1,
          map3
            (fun x y rows ->
              let lo, hi = if Datum.compare x y <= 0 then (x, y) else (y, x) in
              H.uniform ~lo ~hi ~rows:(float_of_int rows)
                ~ndv:(float_of_int (1 + (rows / 3))))
            (datum_gen domain) (datum_gen domain) (int_bound 500) );
      ]
  in
  let step h =
    frequency
      [
        (2, map (fun f -> H.scale h (float_of_int f /. 8.0)) (int_bound 16));
        (3, map2 (fun op v -> H.select_cmp h op v) cmp_gen (datum_gen domain));
        (1, return (distinct h));
        (2, map (fun other -> snd (H.join_eq h other)) (built_gen domain));
      ]
  in
  base >>= fun h ->
  int_bound 3 >>= fun n ->
  let rec go h n = if n = 0 then return h else step h >>= fun h -> go h (n - 1) in
  go h n

let print_hist = H.to_string

let prop_producers_keep_invariant =
  QCheck.Test.make ~count:400
    ~name:"histogram producers keep buckets sorted and non-overlapping"
    (QCheck.make ~print:print_hist (QCheck.Gen.( >>= ) domain_gen hist_gen))
    H.well_formed

(* The quadratic join the merge walk replaced, kept as the reference: every
   bucket is cut on every boundary of the other side that lies inside it,
   then every pair of pieces is tested for overlap. *)
module Quadratic = struct
  let bucket_width (b : H.bucket) =
    Float.max (Datum.to_float b.H.hi -. Datum.to_float b.H.lo) 0.0

  let split (t : H.t) boundaries =
    let split_bucket (b : H.bucket) =
      let cuts =
        boundaries
        |> List.filter (fun v ->
               Datum.compare v b.H.lo > 0 && Datum.compare v b.H.hi < 0)
        |> List.sort_uniq Datum.compare
      in
      match cuts with
      | [] -> [ b ]
      | cuts ->
          let width_total = Float.max (bucket_width b) 1e-9 in
          let piece lo hi =
            let w = (Datum.to_float hi -. Datum.to_float lo) /. width_total in
            let w = Float.max 0.0 (Float.min 1.0 w) in
            { H.lo; hi; rows = b.H.rows *. w; ndv = Float.max 1.0 (b.H.ndv *. w) }
          in
          let rec go lo = function
            | [] -> [ piece lo b.H.hi ]
            | cut :: rest -> piece lo cut :: go cut rest
          in
          go b.H.lo cuts
    in
    List.concat_map split_bucket t.H.buckets

  let join_eq (a : H.t) (b : H.t) =
    let bounds h = List.concat_map (fun (bk : H.bucket) -> [ bk.H.lo; bk.H.hi ]) h.H.buckets in
    let a_pieces = split a (bounds b) and b_pieces = split b (bounds a) in
    let out = ref [] and total = ref 0.0 in
    List.iter
      (fun (ba : H.bucket) ->
        List.iter
          (fun (bb : H.bucket) ->
            if Datum.compare ba.H.lo bb.H.hi <= 0 && Datum.compare bb.H.lo ba.H.hi <= 0
            then begin
              let lo = if Datum.compare ba.H.lo bb.H.lo >= 0 then ba.H.lo else bb.H.lo in
              let hi = if Datum.compare ba.H.hi bb.H.hi <= 0 then ba.H.hi else bb.H.hi in
              let frac bucket =
                let bw = bucket_width bucket in
                if bw <= 0.0 then 1.0
                else
                  Float.max 0.0
                    (Float.min 1.0 ((Datum.to_float hi -. Datum.to_float lo) /. bw))
              in
              let ra = ba.H.rows *. frac ba and rb = bb.H.rows *. frac bb in
              let na = Float.max 1.0 (ba.H.ndv *. frac ba)
              and nb = Float.max 1.0 (bb.H.ndv *. frac bb) in
              let rows = ra *. rb /. Float.max na nb in
              if rows > 0.0 then begin
                total := !total +. rows;
                out := { H.lo; hi; rows; ndv = Float.min na nb } :: !out
              end
            end)
          b_pieces)
      a_pieces;
    (!total, { H.buckets = List.rev !out; null_rows = 0.0 })
end

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Bounds compare by constructor and payload ([Int 3] is not [Float 3.0]),
   floats by bit pattern. *)
let same_datum x y =
  match (x, y) with
  | Datum.Float a, Datum.Float b -> same_float a b
  | _ -> x = y

let same_join (t1, (h1 : H.t)) (t2, (h2 : H.t)) =
  same_float t1 t2
  && same_float h1.H.null_rows h2.H.null_rows
  && List.length h1.H.buckets = List.length h2.H.buckets
  && List.for_all2
       (fun (x : H.bucket) (y : H.bucket) ->
         same_datum x.H.lo y.H.lo && same_datum x.H.hi y.H.hi
         && same_float x.H.rows y.H.rows && same_float x.H.ndv y.H.ndv)
       h1.H.buckets h2.H.buckets

(* Numeric domains may meet in one join (an Int key against a Float one). *)
let join_inputs_gen =
  let open QCheck.Gen in
  domain_gen >>= fun d ->
  let partner =
    match d with
    | Ints | Floats | Mixed -> oneofl [ Ints; Floats; Mixed ]
    | d -> return d
  in
  partner >>= fun d' -> triple (hist_gen d) (hist_gen d') (hist_gen d')

let prop_join_matches_quadratic =
  QCheck.Test.make ~count:400
    ~name:"linear join_eq is bit-identical to the quadratic join"
    (QCheck.make
       ~print:(fun (a, b, c) ->
         String.concat "\n" [ print_hist a; print_hist b; print_hist c ])
       join_inputs_gen)
    (fun (a, b, c) ->
      let ((_, ab) as linear) = H.join_eq a b in
      let reference = Quadratic.join_eq a b in
      same_join linear reference
      && same_join (H.join_eq ab c) (Quadratic.join_eq (snd reference) c)
      && same_join (H.join_eq c a) (Quadratic.join_eq c a))

(* Point buckets and touching bounds, spelled out: the walk must pair a
   point bucket with both neighbours it touches, as the nested loop does. *)
let test_join_points_and_touching () =
  let b lo hi rows ndv = { H.lo = Datum.Int lo; hi = Datum.Int hi; rows; ndv } in
  let a =
    { H.buckets = [ b 0 5 10.0 5.0; b 5 5 3.0 1.0; b 5 9 8.0 4.0; b 12 12 2.0 1.0 ];
      null_rows = 1.0 }
  in
  let c =
    { H.buckets = [ b 2 5 6.0 3.0; b 5 5 4.0 1.0; b 5 12 9.0 7.0 ]; null_rows = 0.0 }
  in
  Alcotest.(check bool) "inputs well formed" true (H.well_formed a && H.well_formed c);
  Alcotest.(check bool) "a join c" true (same_join (H.join_eq a c) (Quadratic.join_eq a c));
  Alcotest.(check bool) "c join a" true (same_join (H.join_eq c a) (Quadratic.join_eq c a));
  (* [Float 3.0] and [Int 3] are equal cuts inside [0, 5]: the pieces must
     keep the one the nested loop kept *)
  let f x = Datum.Float x and i x = Datum.Int x in
  let ints = { H.buckets = [ { H.lo = i 0; hi = i 5; rows = 10.0; ndv = 5.0 } ]; null_rows = 0.0 } in
  let mixed =
    { H.buckets =
        [ { H.lo = f 0.0; hi = f 3.0; rows = 4.0; ndv = 3.0 };
          { H.lo = i 3; hi = i 6; rows = 6.0; ndv = 3.0 } ];
      null_rows = 0.0 }
  in
  Alcotest.(check bool) "mixed representations" true
    (same_join (H.join_eq ints mixed) (Quadratic.join_eq ints mixed))

let suite =
  [
    Alcotest.test_case "build totals" `Quick test_build_totals;
    Alcotest.test_case "build with nulls" `Quick test_build_with_nulls;
    Alcotest.test_case "select eq" `Quick test_select_eq;
    Alcotest.test_case "select range" `Quick test_select_range;
    Alcotest.test_case "join cardinality" `Quick test_join_eq_cardinality;
    Alcotest.test_case "join disjoint" `Quick test_join_eq_disjoint;
    Alcotest.test_case "skew" `Quick test_skew;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "apply pred" `Quick test_apply_pred;
    Alcotest.test_case "conjunction composes" `Quick test_conjunction_composes;
    Alcotest.test_case "or selectivity" `Quick test_or_selectivity;
    Alcotest.test_case "derive join" `Quick test_derive_join;
    Alcotest.test_case "derive semi/anti" `Quick test_derive_semi_anti;
    Alcotest.test_case "derive group-by" `Quick test_derive_gb_agg;
    QCheck_alcotest.to_alcotest prop_build_conserves_rows;
    QCheck_alcotest.to_alcotest prop_filter_bounded;
    QCheck_alcotest.to_alcotest prop_lt_ge_partition;
    QCheck_alcotest.to_alcotest prop_join_bounded_by_cross;
    Alcotest.test_case "join points and touching bounds" `Quick
      test_join_points_and_touching;
    QCheck_alcotest.to_alcotest prop_producers_keep_invariant;
    QCheck_alcotest.to_alcotest prop_join_matches_quadratic;
  ]
