(* The benchmark's own checks: `bash svcbench/run.sh --selftest`. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let streams_repeat bases =
  let lines a = Array.map (fun r -> (r.Streams.base, r.Streams.line)) a in
  check "hot: a seed gives byte-identical streams"
    (lines (Streams.hot ~seed:7 bases 3000) = lines (Streams.hot ~seed:7 bases 3000));
  check "cold: a seed gives byte-identical streams"
    (lines (Streams.cold ~seed:7 bases 3000) = lines (Streams.cold ~seed:7 bases 3000));
  check "hot: another seed gives another stream"
    (lines (Streams.hot ~seed:7 bases 300) <> lines (Streams.hot ~seed:8 bases 300));
  check "cold: another seed gives another stream"
    (lines (Streams.cold ~seed:7 bases 300) <> lines (Streams.cold ~seed:8 bases 300));
  check "hot: streams draw only served texts"
    (Array.for_all
       (fun r -> List.mem bases.(r.Streams.base).Streams.qid Streams.served_qids)
       (Streams.hot ~seed:7 bases 3000));
  check "served and audited texts split the 111"
    (List.sort compare (Streams.served_qids @ Streams.audit_qids ()) = List.init 111 (fun i -> i + 1))

let norm sql = Server.Normalize.normalize sql

(* Hot variants keep the fingerprint and the parameters; cold rewrites get
   a fingerprint no warm-up text and no other rewrite has, never repeat
   within [cold_gap] requests, and keep the answer. *)
let shapes_and_answers bases =
  Array.iter
    (fun b ->
      let n = norm b.Streams.sql in
      for v = 0 to Streams.variants - 1 do
        let m = norm (Streams.variant (Random.State.make [| 3; b.Streams.qid; v |]) b.Streams.sql v) in
        check
          (Printf.sprintf "q%d variant %d keeps the shape and parameters" b.Streams.qid v)
          (m.Server.Normalize.fingerprint = n.Server.Normalize.fingerprint
          && m.Server.Normalize.params = n.Server.Normalize.params)
      done)
    bases;
  let pools = Streams.pools bases in
  let fingerprints = Hashtbl.create 8192 in
  Array.iter (fun b -> Hashtbl.replace fingerprints (norm b.Streams.sql).Server.Normalize.fingerprint ()) bases;
  Array.iteri
    (fun i pool ->
      Array.iter
        (fun line ->
          let fp = (norm line).Server.Normalize.fingerprint in
          check
            (Printf.sprintf "q%d rewrite has a fresh fingerprint: %s" bases.(i).Streams.qid line)
            (not (Hashtbl.mem fingerprints fp));
          Hashtbl.replace fingerprints fp ())
        pool)
    pools;
  let stream = Streams.cold ~seed:5 bases 4000 in
  let last = Hashtbl.create 4096 in
  Array.iteri
    (fun i r ->
      (match Hashtbl.find_opt last r.Streams.line with
      | Some j -> check (Printf.sprintf "cold request %d repeats request %d too soon" i j) (i - j > Streams.cold_gap)
      | None -> ());
      Hashtbl.replace last r.Streams.line i)
    stream;
  (* answers on a small warehouse: the first three rewrites of every base *)
  let env = Oracle.env 0.005 in
  Array.iteri
    (fun i pool ->
      let expected = Oracle.naive env bases.(i).Streams.sql in
      Array.iteri
        (fun k line ->
          if k < 3 then
            check
              (Printf.sprintf "q%d rewrite keeps the answer: %s" bases.(i).Streams.qid line)
              (Oracle.naive env line = expected))
        pool)
    pools

let arithmetic () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p99 of 1..100 is 99" (Stats.percentile a 0.99 = 99.0);
  check "p50 of 1..100 is 50" (Stats.percentile a 0.5 = 50.0);
  check "one sample lies beyond the p99 of 100" (Stats.beyond 100 0.99 = 1);
  check "ten samples lie beyond the p99 of 1000" (Stats.beyond 1000 0.99 = 10);
  check "nine samples lie beyond the p99 of 999" (Stats.beyond 999 0.99 = 9);
  check "p100 is the maximum" (Stats.percentile a 1.0 = 100.0);
  check "p50 of one sample is that sample" (Stats.percentile [| 4.0 |] 0.5 = 4.0);
  (* expected values from Python's statistics.quantiles(data, n=4) *)
  let close a b = List.for_all2 (fun x y -> Float.abs (x -. y) < 1e-12) a b in
  check "quartiles of 1..10" (close (Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1)))) [ 2.75; 5.5; 8.25 ]);
  check "quartiles of three" (close (Stats.quartiles [| 3.0; 1.0; 2.0 |]) [ 1.0; 2.0; 3.0 ]);
  check "quartiles of two" (close (Stats.quartiles [| 5.0; 1.0 |]) [ 0.0; 3.0; 6.0 ]);
  check "quartiles of seven"
    (close (Stats.quartiles [| 0.5; 0.25; 4.0; 1.0; 2.0; 8.0; 16.0 |]) [ 0.5; 2.0; 8.0 ]);
  check "spread of 1..10" (Float.abs (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))) -. (5.5 /. 5.5)) < 1e-12)

let run () =
  let bases = Streams.bases () in
  arithmetic ();
  streams_repeat bases;
  shapes_and_answers bases;
  if !failures = 0 then print_endline "selftest: all checks passed"
  else begin
    Printf.printf "selftest: %d checks failed\n" !failures;
    exit 1
  end
