open Ir

(* The small-model world the analyzer drives every rule over: a handful of
   tiny tables with fixed column ids, seed-driven data designed to expose
   asymmetries (outer-join spine rows, NULLs, partition boundary values,
   duplicate keys), and one generator case per interesting logical root
   shape. Everything is deterministic in the seed. *)

(* --- columns (fixed ids; the rule-application factory starts at 1000 so
   freshly minted columns can never collide) --- *)

let icol id name = Colref.make ~id ~name ~ty:Dtype.Int
let scol id name = Colref.make ~id ~name ~ty:Dtype.String

let col_a = icol 1 "a"
let col_b = icol 2 "b"
let col_c = scol 3 "c"
let col_d = icol 4 "d"
let col_e = icol 5 "e"
let col_f = icol 6 "f"
let col_g = icol 7 "g"
let col_p = icol 8 "p"
let col_q = icol 9 "q"
let col_k = icol 10 "k"
let col_v = icol 11 "v"

(* synthesized outputs used by the cases *)
let col_w1 = icol 20 "w1"
let col_u1 = icol 21 "u1"
let col_u2 = icol 22 "u2"
let col_x1 = icol 23 "x1"
let col_x2 = icol 24 "x2"
let col_pr1 = icol 25 "pr1"
let col_s1 = icol 30 "s1"
let col_cnt = icol 31 "cnt"
let col_m1 = icol 32 "m1"
let col_cd = icol 33 "cd"

(* --- table descriptors --- *)

let t1 =
  Table_desc.make
    ~dist:(Table_desc.Dist_hash [ col_a ])
    ~mdid:"0.9001.1.0" ~name:"rc_t1"
    [ col_a; col_b; col_c ]

let t2 =
  Table_desc.make
    ~dist:(Table_desc.Dist_hash [ col_d ])
    ~mdid:"0.9002.1.0" ~name:"rc_t2" [ col_d; col_e ]

let t3 =
  Table_desc.make ~dist:Table_desc.Dist_random ~mdid:"0.9003.1.0"
    ~name:"rc_t3" [ col_f; col_g ]

let pt =
  Table_desc.make
    ~dist:(Table_desc.Dist_hash [ col_p ])
    ~part_col:col_p
    ~parts:
      [
        { Table_desc.part_id = 0; lo = Datum.Int 0; hi = Datum.Int 10 };
        { Table_desc.part_id = 1; lo = Datum.Int 10; hi = Datum.Int 20 };
        { Table_desc.part_id = 2; lo = Datum.Int 20; hi = Datum.Int 30 };
      ]
    ~mdid:"0.9004.1.0" ~name:"rc_pt" [ col_p; col_q ]

let it =
  Table_desc.make ~dist:Table_desc.Dist_replicated
    ~indexes:[ { Table_desc.idx_name = "rc_it_k"; idx_col = col_k } ]
    ~mdid:"0.9005.1.0" ~name:"rc_it" [ col_k; col_v ]

let tables = [ t1; t2; t3; pt; it ]

(* --- scalar shorthands --- *)

let col c = Expr.Col c
let cint n = Expr.Const (Datum.Int n)
let eq a b = Expr.Cmp (Expr.Eq, a, b)
let lt a b = Expr.Cmp (Expr.Lt, a, b)
let le a b = Expr.Cmp (Expr.Le, a, b)
let gt a b = Expr.Cmp (Expr.Gt, a, b)
let ge a b = Expr.Cmp (Expr.Ge, a, b)

let agg ?(distinct = false) kind arg out =
  { Expr.agg_kind = kind; agg_arg = arg; agg_distinct = distinct; agg_out = out }

let passthrough c = { Expr.proj_expr = Expr.Col c; proj_out = c }

(* --- seed-driven data --- *)

let maybe_null rng frac v = if Gpos.Prng.float rng < frac then Datum.Null else v

let gen_rows rng n mk = List.init n (fun _ -> mk rng)

let t1_rows rng =
  gen_rows rng 12 (fun rng ->
      [|
        Datum.Int (Gpos.Prng.int rng 10);
        maybe_null rng 0.2 (Datum.Int (Gpos.Prng.int rng 5));
        Datum.String (Gpos.Prng.pick rng [| "red"; "green"; "blue" |]);
      |])
  (* the spine row: matches nothing in t2/t3, so outer-join asymmetries and
     broken commutations show up in the result bag *)
  @ [ [| Datum.Int 100; Datum.Null; Datum.String "spine" |] ]

let t2_rows rng =
  gen_rows rng 10 (fun rng ->
      [|
        maybe_null rng 0.1 (Datum.Int (Gpos.Prng.int rng 8));
        maybe_null rng 0.15 (Datum.Int (Gpos.Prng.int rng 100));
      |])
  @ [ [| Datum.Int 200; Datum.Int 7 |] ]

let t3_rows rng =
  gen_rows rng 8 (fun rng ->
      [|
        Datum.Int (Gpos.Prng.int rng 6);
        maybe_null rng 0.2 (Datum.Int (Gpos.Prng.int rng 21));
      |])

(* every declared partition boundary, plus random in-range filler *)
let pt_rows rng =
  List.map
    (fun p -> [| Datum.Int p; Datum.Int (Gpos.Prng.int rng 100) |])
    [ 0; 9; 10; 15; 19; 20; 29 ]
  @ gen_rows rng 5 (fun rng ->
        [| Datum.Int (Gpos.Prng.int rng 30); Datum.Int (Gpos.Prng.int rng 100) |])

let it_rows rng =
  [ [| Datum.Int 5; Datum.Int 55 |] ]
  @ gen_rows rng 9 (fun rng ->
        [| Datum.Int (Gpos.Prng.int rng 10); Datum.Int (Gpos.Prng.int rng 100) |])

(* --- the generator cases --- *)

let cte_id = 7

let cases rng : (string * Ltree.t) list =
  let get td = Ltree.leaf (Expr.L_get td) in
  let select p t = Ltree.make (Expr.L_select p) [ t ] in
  let join k cond l r = Ltree.make (Expr.L_join (k, cond)) [ l; r ] in
  let gb_agg ?(phase = Expr.One_phase) keys aggs t =
    Ltree.make (Expr.L_gb_agg (phase, keys, aggs)) [ t ]
  in
  (* per-seed constants: selection thresholds sweep value ranges, including
     every partition boundary of [pt] *)
  let c_a = Gpos.Prng.int_range rng 0 9 in
  let c_e = Gpos.Prng.int_range rng 0 99 in
  let c_q = Gpos.Prng.int_range rng 0 99 in
  let c_k = Gpos.Prng.int_range rng 0 9 in
  let c_v = Gpos.Prng.int_range rng 0 99 in
  let c_pt = Gpos.Prng.pick rng [| 0; 5; 9; 10; 15; 19; 20; 25; 30 |] in
  let c_pt2 = Gpos.Prng.pick rng [| 0; 5; 9; 10; 15; 19; 20; 25; 30 |] in
  let proj_t1 = Ltree.make (Expr.L_project [ passthrough col_a; passthrough col_b ]) [ get t1 ] in
  let proj_t3 = Ltree.make (Expr.L_project [ passthrough col_f; passthrough col_g ]) [ get t3 ] in
  let cases =
    [
      ("get-t1", get t1);
      ("select-pt-range", select (lt (col col_p) (cint c_pt)) (get pt));
      ( "select-pt-range-and-q",
        select
          (Expr.And [ ge (col col_p) (cint c_pt2); le (col col_q) (cint c_q) ])
          (get pt) );
      ( "select-it-eq",
        select
          (Expr.And [ eq (col col_k) (cint 5); gt (col col_v) (cint c_v) ])
          (get it) );
      ("select-it-range", select (le (col col_k) (cint c_k)) (get it));
      ("join-inner", join Expr.Inner (eq (col col_a) (col col_d)) (get t1) (get t2));
      ( "join-inner-resid",
        join Expr.Inner
          (Expr.And [ eq (col col_a) (col col_d); gt (col col_e) (cint c_e) ])
          (get t1) (get t2) );
      ("join-left", join Expr.Left_outer (eq (col col_a) (col col_d)) (get t1) (get t2));
      ("join-full", join Expr.Full_outer (eq (col col_a) (col col_d)) (get t1) (get t2));
      ("join-semi", join Expr.Semi (eq (col col_a) (col col_d)) (get t1) (get t2));
      ( "join3",
        join Expr.Inner
          (eq (col col_d) (col col_f))
          (join Expr.Inner (eq (col col_a) (col col_d)) (get t1) (get t2))
          (get t3) );
      ( "select-join",
        select
          (lt (col col_a) (cint c_a))
          (join Expr.Inner (eq (col col_a) (col col_d)) (get t1) (get t2)) );
      ( "select-left-join",
        select
          (Expr.And [ le (col col_a) (cint c_a); lt (col col_e) (cint c_e) ])
          (join Expr.Left_outer (eq (col col_a) (col col_d)) (get t1) (get t2))
      );
      ( "select-agg",
        select
          (lt (col col_a) (cint c_a))
          (gb_agg [ col_a ] [ agg Expr.Sum (Some (col col_b)) col_s1 ] (get t1))
      );
      ( "agg-keys",
        gb_agg [ col_a ]
          [ agg Expr.Sum (Some (col col_b)) col_s1; agg Expr.Count_star None col_cnt ]
          (get t1) );
      ( "agg-global",
        gb_agg [] [ agg Expr.Min (Some (col col_g)) col_m1 ] (get t3) );
      ( "agg-distinct",
        gb_agg [ col_f ]
          [ agg ~distinct:true Expr.Count (Some (col col_g)) col_cd ]
          (get t3) );
      ( "project",
        Ltree.make
          (Expr.L_project
             [
               { Expr.proj_expr = Expr.Arith (Expr.Add, col col_a, col col_b);
                 proj_out = col_pr1 };
               passthrough col_c;
             ])
          [ get t1 ] );
      ( "window",
        Ltree.make
          (Expr.L_window
             ( [ col_b ],
               [ Sortspec.asc col_a ],
               [ { Expr.wf_kind = Expr.W_row_number; wf_arg = None; wf_out = col_w1 } ] ))
          [ get t1 ] );
      ( "limit",
        Ltree.make (Expr.L_limit ([ Sortspec.asc col_a ], 1, Some 4, Expr.no_limit_slots)) [ get t1 ] );
      ( "set-union",
        Ltree.make (Expr.L_set (Expr.Union_all, [ col_u1; col_u2 ]))
          [ proj_t1; proj_t3 ] );
      ( "set-distinct",
        Ltree.make (Expr.L_set (Expr.Union_distinct, [ col_u1; col_u2 ]))
          [ proj_t1; proj_t3 ] );
      ( "set-except",
        Ltree.make (Expr.L_set (Expr.Except, [ col_u1; col_u2 ]))
          [ proj_t1; proj_t3 ] );
      ( "const",
        Ltree.leaf
          (Expr.L_const_table
             ( [ col_u1; col_u2 ],
               [
                 [ Datum.Int 1; Datum.Int 2 ];
                 [ Datum.Int 1; Datum.Int 2 ];
                 [ Datum.Null; Datum.Int 3 ];
               ] )) );
      ( "cte",
        Ltree.make (Expr.L_cte_anchor cte_id)
          [
            Ltree.make (Expr.L_cte_producer cte_id) [ proj_t1 ];
            select
              (ge (col col_x1) (cint c_a))
              (Ltree.leaf (Expr.L_cte_consumer (cte_id, [ col_x1; col_x2 ])));
          ] );
      ( "apply-exists",
        Ltree.make
          (Expr.L_apply (Expr.Apply_exists, [ col_a ]))
          [ get t1; select (eq (col col_d) (col col_a)) (get t2) ] );
    ]
  in
  List.iter (fun (_, t) -> Ltree.validate t) cases;
  cases

(* --- the world --- *)

type t = {
  cluster : Exec.Cluster.t;
  cases : (string * Ltree.t) list;
  params : Datum.t Colref.Map.t;
      (** default bindings for columns free in a subtree (Apply inners
          checked standalone) — both sides of every differential comparison
          evaluate under the same bindings *)
}

(* Bindings for every model column, so any subtree with correlated free
   columns still evaluates standalone. *)
let default_params =
  List.fold_left
    (fun m c ->
      let v =
        match Colref.ty c with
        | Dtype.String -> Datum.String "red"
        | _ -> Datum.Int (3 + (Colref.id c mod 5))
      in
      Colref.Map.add c v m)
    Colref.Map.empty
    [ col_a; col_b; col_c; col_d; col_e; col_f; col_g; col_p; col_q; col_k;
      col_v; col_x1; col_x2; col_u1; col_u2 ]

let world ~seed : t =
  let rng = Gpos.Prng.split (Gpos.Prng.create seed) "rulecheck" in
  let data_rng = Gpos.Prng.split rng "data" in
  let cluster = Exec.Cluster.create ~nsegs:3 () in
  let load td dist rows =
    Exec.Cluster.load_table cluster ~name:td.Table_desc.name ~dist rows
  in
  load t1 (Exec.Cluster.By_hash [ 0 ]) (t1_rows data_rng);
  load t2 (Exec.Cluster.By_hash [ 0 ]) (t2_rows data_rng);
  load t3 Exec.Cluster.By_random (t3_rows data_rng);
  load pt (Exec.Cluster.By_hash [ 0 ]) (pt_rows data_rng);
  load it Exec.Cluster.By_replication (it_rows data_rng);
  let case_rng = Gpos.Prng.split rng "cases" in
  { cluster; cases = cases case_rng; params = default_params }
