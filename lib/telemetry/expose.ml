(* Exposition of metric snapshots: Prometheus text format and JSON, plus
   a Prometheus linter (used by CI), the JSON snapshot reader and the
   [diff] regression sentinel comparing two snapshots with per-metric
   tolerances. JSON goes through Gpos.Json both ways. *)

module Json = Gpos.Json

(* -- number / string formatting ------------------------------------ *)

(* One deterministic float format shared by both expositions, so a
   snapshot diffed against itself is always clean. NaN/inf never appear
   in valid metric values; map them to 0 to keep the output parseable. *)
let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Json.general 9 v

let prom_label_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_str labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_escape v))
             labels)
      ^ "}"

(* -- Prometheus text format ---------------------------------------- *)

let kind_str = function
  | Metrics.S_counter _ -> "counter"
  | Metrics.S_gauge _ -> "gauge"
  | Metrics.S_histogram _ -> "histogram"

let to_prometheus (snap : Metrics.snapshot) =
  let buf = Buffer.create 4096 in
  let last_name = ref "" in
  List.iter
    (fun (s : Metrics.sample) ->
      if s.s_name <> !last_name then begin
        last_name := s.s_name;
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" s.s_name s.s_help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.s_name (kind_str s.s_value))
      end;
      match s.s_value with
      | Metrics.S_counter v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.s_name (label_str s.s_labels) v)
      | Metrics.S_gauge v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.s_name (label_str s.s_labels)
               (fnum v))
      | Metrics.S_histogram hs ->
          (* Cumulative counts; only buckets that gained observations are
             emitted (a sparse le set is valid), plus the +Inf bucket. *)
          let cum = ref 0 in
          Array.iteri
            (fun i n ->
              if n > 0 then begin
                cum := !cum + n;
                let labels =
                  s.s_labels @ [ ("le", fnum (Metrics.bucket_upper i)) ]
                in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" s.s_name
                     (label_str labels) !cum)
              end)
            hs.Metrics.hs_buckets;
          let inf_labels = s.s_labels @ [ ("le", "+Inf") ] in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" s.s_name (label_str inf_labels)
               hs.Metrics.hs_count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.s_name (label_str s.s_labels)
               (fnum hs.Metrics.hs_sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.s_name (label_str s.s_labels)
               hs.Metrics.hs_count))
    snap.Metrics.samples;
  Buffer.contents buf

(* -- JSON ----------------------------------------------------------- *)

let num v = Json.Num (fnum v)

let sample_json (s : Metrics.sample) : Json.t =
  let value =
    match s.s_value with
    | Metrics.S_counter v -> [ ("type", Json.Str "counter"); ("value", Json.int v) ]
    | Metrics.S_gauge v -> [ ("type", Str "gauge"); ("value", num v) ]
    | Metrics.S_histogram hs ->
        let bucket i n =
          if n > 0 then Some (Json.Arr [ num (Metrics.bucket_upper i); Json.int n ])
          else None
        in
        [
          ("type", Str "histogram");
          ("count", Json.int hs.Metrics.hs_count);
          ("sum", num hs.Metrics.hs_sum);
          ("p50", num (Metrics.quantile hs 0.50));
          ("p95", num (Metrics.quantile hs 0.95));
          ("p99", num (Metrics.quantile hs 0.99));
          ( "buckets",
            Arr
              (List.filter_map Fun.id
                 (List.mapi bucket (Array.to_list hs.Metrics.hs_buckets))) );
        ]
  in
  Obj
    (("name", Str s.s_name)
    :: ("labels", Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.s_labels))
    :: value)

let flight_json (e : Recorder.entry) : Json.t =
  let error =
    match e.Recorder.e_status with
    | Recorder.Failed msg -> [ ("error", Json.Str msg) ]
    | _ -> []
  in
  Obj
    ([
       ("seq", Json.int e.Recorder.e_seq);
       ("ts", num e.Recorder.e_ts);
       ("label", Str e.Recorder.e_label);
       ("fingerprint", Str e.Recorder.e_fingerprint);
       ("ms", num e.Recorder.e_ms);
       ("groups", Json.int e.Recorder.e_groups);
       ("gexprs", Json.int e.Recorder.e_gexprs);
       ("cost", num e.Recorder.e_cost);
       ("status", Str (Recorder.status_string e.Recorder.e_status));
     ]
    @ error
    @ [
        ( "phases",
          Arr
            (List.map
               (fun (n, ms) -> Json.Arr [ Str n; num ms ])
               e.Recorder.e_phases) );
        ( "dump",
          match e.Recorder.e_dump with Some p -> Str p | None -> Null );
      ])

(* One sample or flight entry per line, so snapshots diff line by line. *)
let to_json ?(flight = []) (snap : Metrics.snapshot) =
  let buf = Buffer.create 4096 in
  let lines items =
    List.iteri
      (fun i v ->
        Buffer.add_string buf (if i = 0 then "  " else ",\n  ");
        Json.add buf v)
      items
  in
  Printf.bprintf buf "{\"telemetry\":\"orca\",\"ts\":%s,\n \"metrics\":[\n"
    (fnum snap.Metrics.snap_ts);
  lines (List.map sample_json snap.Metrics.samples);
  Buffer.add_string buf "\n ],\n \"flight\":[\n";
  lines (List.map flight_json flight);
  Buffer.add_string buf "\n ]}\n";
  Buffer.contents buf

(* -- Prometheus linter ---------------------------------------------- *)

(* Structural validation of the text exposition format, run by CI over
   [metrics --suite --prom]. Returns problems; [] means clean. *)

let valid_metric_name n =
  n <> ""
  && (match n.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       n

(* Parse [name{l="v",...} value] -> (name, labels, value). *)
let parse_sample_line line =
  let fail msg = Error msg in
  let n = String.length line in
  let rec name_end i =
    if i < n
       && (match line.[i] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
          | _ -> false)
    then name_end (i + 1)
    else i
  in
  let ne = name_end 0 in
  if ne = 0 then fail "sample line does not start with a metric name"
  else
    let name = String.sub line 0 ne in
    let labels = ref [] in
    let i = ref ne in
    let ok = ref true in
    let err = ref "" in
    (if !i < n && line.[!i] = '{' then begin
       incr i;
       let fin = ref false in
       while (not !fin) && !ok do
         (* label name *)
         let ls = !i in
         while
           !i < n
           && match line.[!i] with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
              | _ -> false
         do
           incr i
         done;
         if !i = ls then begin
           ok := false;
           err := "empty label name"
         end
         else begin
           let lname = String.sub line ls (!i - ls) in
           if !i + 1 < n && line.[!i] = '=' && line.[!i + 1] = '"' then begin
             i := !i + 2;
             let vbuf = Buffer.create 16 in
             let closed = ref false in
             while (not !closed) && !i < n do
               if line.[!i] = '\\' && !i + 1 < n then begin
                 (match line.[!i + 1] with
                 | 'n' -> Buffer.add_char vbuf '\n'
                 | c -> Buffer.add_char vbuf c);
                 i := !i + 2
               end
               else if line.[!i] = '"' then begin
                 closed := true;
                 incr i
               end
               else begin
                 Buffer.add_char vbuf line.[!i];
                 incr i
               end
             done;
             if not !closed then begin
               ok := false;
               err := "unterminated label value"
             end
             else begin
               labels := (lname, Buffer.contents vbuf) :: !labels;
               if !i < n && line.[!i] = ',' then incr i
               else if !i < n && line.[!i] = '}' then begin
                 incr i;
                 fin := true
               end
               else begin
                 ok := false;
                 err := "expected ',' or '}' after label"
               end
             end
           end
           else begin
             ok := false;
             err := "expected =\"...\" after label name"
           end
         end
       done
     end);
    if not !ok then fail !err
    else if !i >= n || line.[!i] <> ' ' then
      fail "expected a space before the sample value"
    else
      let vstr = String.sub line (!i + 1) (n - !i - 1) in
      let value =
        match String.trim vstr with
        | "+Inf" -> Some Float.infinity
        | "-Inf" -> Some Float.neg_infinity
        | "NaN" -> Some Float.nan
        | v -> float_of_string_opt v
      in
      match value with
      | None -> fail (Printf.sprintf "unparseable sample value %S" vstr)
      | Some v -> Ok (name, List.rev !labels, v)

let lint_prometheus text =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if text = "" then problem "empty exposition"
  else if text.[String.length text - 1] <> '\n' then
    problem "exposition does not end with a newline";
  let lines = String.split_on_char '\n' text in
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let seen_series : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* per (histogram name + labelset sans le): bucket floats in order of
     appearance, plus the _count value, to cross-check cumulativeness *)
  let buckets : (string, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let counts : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun lineno line ->
      let lno = lineno + 1 in
      if line = "" then ()
      else if String.length line >= 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: kind :: [] ->
            if not (valid_metric_name name) then
              problem "line %d: invalid metric name %S in TYPE" lno name;
            if
              not
                (List.mem kind
                   [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
            then problem "line %d: unknown TYPE %S" lno kind;
            if Hashtbl.mem types name then
              problem "line %d: duplicate TYPE for %s" lno name;
            Hashtbl.replace types name kind
        | "#" :: "TYPE" :: _ -> problem "line %d: malformed TYPE line" lno
        | "#" :: "HELP" :: name :: _ ->
            if not (valid_metric_name name) then
              problem "line %d: invalid metric name %S in HELP" lno name
        | _ -> ()  (* other comments are fine *)
      end
      else
        match parse_sample_line line with
        | Error msg -> problem "line %d: %s" lno msg
        | Ok (name, labels, value) ->
            if not (valid_metric_name name) then
              problem "line %d: invalid metric name %S" lno name;
            (* resolve the declared family: exact, or histogram series *)
            let family =
              if Hashtbl.mem types name then Some name
              else
                let strip suffix =
                  if
                    String.length name > String.length suffix
                    && String.sub name
                         (String.length name - String.length suffix)
                         (String.length suffix)
                       = suffix
                  then
                    let base =
                      String.sub name 0
                        (String.length name - String.length suffix)
                    in
                    if Hashtbl.find_opt types base = Some "histogram" then
                      Some base
                    else None
                  else None
                in
                match strip "_bucket" with
                | Some b -> Some b
                | None -> (
                    match strip "_sum" with
                    | Some b -> Some b
                    | None -> strip "_count")
            in
            (match family with
            | None -> problem "line %d: %s has no preceding # TYPE" lno name
            | Some fam -> (
                let kind = Hashtbl.find types fam in
                if (kind = "counter" || kind = "histogram") && value < 0.0 then
                  problem "line %d: %s kind %s has negative value" lno name
                    kind;
                (* histogram bookkeeping *)
                if kind = "histogram" then
                  let sans_le = List.filter (fun (k, _) -> k <> "le") labels in
                  let skey =
                    fam
                    ^ String.concat ""
                        (List.map
                           (fun (k, v) -> ";" ^ k ^ "=" ^ v)
                           (List.sort compare sans_le))
                  in
                  if name = fam ^ "_bucket" then begin
                    match List.assoc_opt "le" labels with
                    | None ->
                        problem "line %d: %s bucket without le label" lno fam
                    | Some le ->
                        let lef =
                          if le = "+Inf" then Float.infinity
                          else Option.value ~default:Float.nan
                                 (float_of_string_opt le)
                        in
                        if Float.is_nan lef then
                          problem "line %d: unparseable le %S" lno le;
                        let l =
                          match Hashtbl.find_opt buckets skey with
                          | Some l -> l
                          | None ->
                              let l = ref [] in
                              Hashtbl.replace buckets skey l;
                              l
                        in
                        l := (lef, value) :: !l
                  end
                  else if name = fam ^ "_count" then
                    Hashtbl.replace counts skey value));
            (* duplicate series detection *)
            let series =
              name
              ^ String.concat ""
                  (List.map
                     (fun (k, v) -> ";" ^ k ^ "=" ^ v)
                     (List.sort compare labels))
            in
            if Hashtbl.mem seen_series series then
              problem "line %d: duplicate series %s" lno series
            else Hashtbl.replace seen_series series ())
    lines;
  (* cumulative bucket checks *)
  Hashtbl.iter
    (fun skey l ->
      let bs = List.rev !l in
      let rec check prev_le prev_v = function
        | [] -> ()
        | (le, v) :: rest ->
            if le < prev_le then
              problem "%s: bucket le values not increasing" skey;
            if v < prev_v then
              problem "%s: bucket counts not cumulative (le=%s)" skey
                (fnum le);
            check le v rest
      in
      check Float.neg_infinity 0.0 bs;
      match List.rev bs with
      | (le, last) :: _ ->
          if le <> Float.infinity then
            problem "%s: missing le=\"+Inf\" bucket" skey
          else (
            match Hashtbl.find_opt counts skey with
            | Some c when c <> last ->
                problem "%s: +Inf bucket (%s) != _count (%s)" skey (fnum last)
                  (fnum c)
            | _ -> ())
      | [] -> ())
    buckets;
  List.rev !problems

(* -- JSON snapshot parsing ------------------------------------------ *)

(* A parsed snapshot flattened for diffing: one record per series, with
   the numeric fields that can be compared. *)

type flat = {
  f_key : string;  (* name{k="v",...}, labels sorted *)
  f_kind : string;
  f_fields : (string * float) list;
}

type parsed = { p_ts : float; p_metrics : flat list }

let num_field o k = Option.bind (Json.member k o) Json.to_float

let str_field o k =
  match Json.member k o with Some (Json.Str v) -> Some v | _ -> None

let flat_key name labels =
  match labels with
  | [] -> name
  | _ ->
      name ^ "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v)
             (List.sort compare labels))
      ^ "}"

let parse_snapshot text : (parsed, string) result =
  match Json.of_string text with
  | Error msg -> Error msg
  | Ok j -> (
      match Json.member "metrics" j with
      | Some (Arr ms) ->
          let ts = Option.value ~default:0.0 (num_field j "ts") in
          let flats =
            List.filter_map
              (fun m ->
                match (str_field m "name", str_field m "type") with
                | Some name, Some kind ->
                    let labels =
                      match Json.member "labels" m with
                      | Some (Obj fs) ->
                          List.filter_map
                            (fun (k, v) ->
                              match v with
                              | Json.Str s -> Some (k, s)
                              | _ -> None)
                            fs
                      | _ -> []
                    in
                    let fields =
                      match kind with
                      | "histogram" ->
                          List.filter_map
                            (fun f ->
                              Option.map (fun v -> (f, v)) (num_field m f))
                            [ "count"; "sum"; "p50"; "p95"; "p99" ]
                      | _ ->
                          List.filter_map
                            (fun f ->
                              Option.map (fun v -> (f, v)) (num_field m f))
                            [ "value" ]
                    in
                    Some { f_key = flat_key name labels; f_kind = kind; f_fields = fields }
                | _ -> None)
              ms
          in
          Ok { p_ts = ts; p_metrics = flats }
      | _ -> Error "no \"metrics\" array")

(* -- regression sentinel -------------------------------------------- *)

type check = {
  d_key : string;
  d_field : string;
  d_base : float;
  d_fresh : float;
  d_ok : bool;
  d_note : string;
}

(* Relative slack with an absolute floor of 10, so near-zero baselines do
   not turn into zero-tolerance gates. *)
let slack tolerance base = tolerance *. Float.max (Float.abs base) 10.0

(* [overrides] maps a key prefix to a tolerance; the first match wins.
   Counter/gauge values and histogram counts are gated both ways (they
   are shape metrics); histogram sums and quantiles are latencies and
   gate from above only — faster is never a regression. *)
let diff ?(tolerance = 0.25) ?(overrides = []) ~(baseline : parsed)
    ~(fresh : parsed) () =
  let tol_for key =
    match
      List.find_opt (fun (prefix, _) ->
          String.length key >= String.length prefix
          && String.sub key 0 (String.length prefix) = prefix)
        overrides
    with
    | Some (_, t) -> t
    | None -> tolerance
  in
  let checks = ref [] in
  let push c = checks := c :: !checks in
  List.iter
    (fun b ->
      match
        List.find_opt (fun f -> f.f_key = b.f_key) fresh.p_metrics
      with
      | None ->
          push
            {
              d_key = b.f_key;
              d_field = "presence";
              d_base = 1.0;
              d_fresh = 0.0;
              d_ok = false;
              d_note = "metric missing from fresh snapshot";
            }
      | Some f ->
          let tol = tol_for b.f_key in
          List.iter
            (fun (field, bv) ->
              match List.assoc_opt field f.f_fields with
              | None ->
                  push
                    {
                      d_key = b.f_key;
                      d_field = field;
                      d_base = bv;
                      d_fresh = 0.0;
                      d_ok = false;
                      d_note = "field missing from fresh snapshot";
                    }
              | Some fv ->
                  let upper_only =
                    field = "sum" || field = "p50" || field = "p95"
                    || field = "p99"
                  in
                  let s = slack tol bv in
                  let ok =
                    if upper_only then fv <= bv +. s
                    else Float.abs (fv -. bv) <= s
                  in
                  push
                    {
                      d_key = b.f_key;
                      d_field = field;
                      d_base = bv;
                      d_fresh = fv;
                      d_ok = ok;
                      d_note =
                        (if ok then "ok"
                         else if upper_only then
                           Printf.sprintf "above ceiling %s" (fnum (bv +. s))
                         else
                           Printf.sprintf "outside +/-%s" (fnum s));
                    })
            b.f_fields)
    baseline.p_metrics;
  List.rev !checks

let diff_ok checks = List.for_all (fun c -> c.d_ok) checks

let render_diff checks =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      if not c.d_ok then
        Buffer.add_string buf
          (Printf.sprintf "FAIL %-48s %-8s base=%s fresh=%s (%s)\n" c.d_key
             c.d_field (fnum c.d_base) (fnum c.d_fresh) c.d_note))
    checks;
  let failed = List.length (List.filter (fun c -> not c.d_ok) checks) in
  Buffer.add_string buf
    (Printf.sprintf "%d checks, %d failed\n" (List.length checks) failed);
  Buffer.contents buf
