open Ir
module Memo = Memolib.Memo

(* One digest per optimized query over every optimization context's
   alternative list: for each alternative, its gexpr id, child-request
   fingerprints, enforcer chain and the bits of every cost. [ordered]
   hashes the lists in their order; [multiset] sorts each context's
   encodings first, so it is blind to the order costing recorded them in.
   [count] is the root's [Extract.count_plans]. *)

type alternatives = Memo.t -> int -> Memo.context -> Memo.alternative list

type t = { ordered : string; multiset : string; count : float }

let encode (a : Memo.alternative) =
  let buf = Buffer.create 96 in
  Printf.bprintf buf "%d|" a.Memo.a_gexpr.Memo.ge_id;
  List.iter
    (fun r -> Printf.bprintf buf "%d," (Props.req_fingerprint r))
    a.Memo.a_child_reqs;
  Buffer.add_char buf '|';
  List.iter
    (fun e -> Printf.bprintf buf "%s," (Props.enforcer_to_string e))
    a.Memo.a_enforcers;
  Printf.bprintf buf "|%Lx" (Int64.bits_of_float a.Memo.a_local_cost);
  List.iter
    (fun c -> Printf.bprintf buf ",%Lx" (Int64.bits_of_float c))
    a.Memo.a_enf_costs;
  Printf.bprintf buf "|%Lx;" (Int64.bits_of_float a.Memo.a_cost);
  Buffer.contents buf

(* contexts of a group in a schedule-independent order *)
let contexts memo gid =
  Memo.contexts_of_group memo gid
  |> List.map (fun (c : Memo.context) ->
         let r = c.Memo.cx_req in
         ((Props.req_fingerprint r, Props.req_to_string r), c))
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let of_report ~(alternatives : alternatives) (report : Orca.Optimizer.report) =
  let memo = report.Orca.Optimizer.memo in
  let ordered = Buffer.create 4096 and multiset = Buffer.create 4096 in
  List.iter
    (fun gid ->
      List.iter
        (fun (ctx : Memo.context) ->
          let header =
            Printf.sprintf "g%d %s:" gid (Props.req_to_string ctx.Memo.cx_req)
          in
          let alts = List.map encode (alternatives memo gid ctx) in
          Buffer.add_string ordered header;
          List.iter (Buffer.add_string ordered) alts;
          Buffer.add_string multiset header;
          List.iter (Buffer.add_string multiset) (List.sort compare alts))
        (contexts memo gid))
    (List.sort compare (Memo.group_ids memo));
  {
    ordered = Digest.to_hex (Digest.string (Buffer.contents ordered));
    multiset = Digest.to_hex (Digest.string (Buffer.contents multiset));
    count =
      Memolib.Extract.count_plans memo (Memo.root memo)
        report.Orca.Optimizer.root_req;
  }

let optimize ~accessor ~config (q : Tpcds.Queries.def) =
  let accessor = accessor () in
  let query = Sqlfront.Binder.bind_sql accessor q.Tpcds.Queries.sql in
  Orca.Optimizer.optimize ~config accessor query

(* The default configuration (8 segments) the fixture is generated under,
   and the two others whose lists must hold the same alternatives: every
   hot-path speedup off, and two costing workers. *)
let default_config = Orca.Orca_config.with_segments Orca.Orca_config.default 8

let other_configs =
  [
    ("speedups off", Orca.Orca_config.without_speedups default_config);
    ("two workers", Orca.Orca_config.with_workers default_config 2);
  ]

let digest ~alternatives ~accessor ~config q =
  of_report ~alternatives (optimize ~accessor ~config q)

(* One fixture row per query: qid, then the ordered and multiset digests
   and the root plan count under the default configuration. *)
type row = int * string * string * float

let row ~alternatives ~accessor (q : Tpcds.Queries.def) : row =
  let d = digest ~alternatives ~accessor ~config:default_config q in
  (q.Tpcds.Queries.qid, d.ordered, d.multiset, d.count)

(* TAQO's sampling scan walks the derived lists in order: the plan DXL
   digests [Taqo.sample_plans ~n:10] returns on q75, and its plan count. *)
let taqo_q75 ~accessor =
  let report =
    optimize ~accessor ~config:default_config (Tpcds.Queries.get 75)
  in
  let plans = Orca.Taqo.sample_plans ~n:10 report in
  ( List.map
      (fun p -> Digest.to_hex (Digest.string (Dxl.Dxl_plan.to_string p)))
      plans,
    Memolib.Extract.count_plans report.Orca.Optimizer.memo
      (Memolib.Memo.root report.Orca.Optimizer.memo)
      report.Orca.Optimizer.root_req )
