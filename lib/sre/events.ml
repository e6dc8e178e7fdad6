(* Bounded ring of structured service events, JSON-lines rendered.

   The ring is Gpos.Ring: writers claim a sequence number with one
   fetch-and-add and store an immutable entry record into its slot, so a
   concurrent reader sees whole entries only. The optional sink is the
   only locked path (channel writes interleave otherwise) and is meant for
   files/stderr, not hot loops. *)

module Json = Gpos.Json

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type field = S of string | I of int | F of float | B of bool

type entry = {
  ev_seq : int;
  ev_ts : float;
  ev_level : level;
  ev_kind : string;
  ev_trace : string option;
  ev_fields : (string * field) list;
}

type t = {
  enabled : bool;
  min_level : int;
  ring : entry Gpos.Ring.t;
  sink : out_channel option ref;
  sink_lock : Mutex.t;
}

let create ?(capacity = 1024) ?(level = Debug) ?(enabled = true) () =
  {
    enabled;
    min_level = level_rank level;
    ring = Gpos.Ring.create capacity;
    sink = ref None;
    sink_lock = Mutex.create ();
  }

let on t level = t.enabled && level_rank level >= t.min_level

let capacity t = Gpos.Ring.capacity t.ring

let total t = Gpos.Ring.total t.ring

let field_to_json : field -> Json.t = function
  | S s -> Str s
  | I i -> Json.int i
  | F f -> Num (Json.general 6 f)
  | B b -> Bool b

let entry_to_json e =
  let trace =
    match e.ev_trace with Some tr -> [ ("trace", Json.Str tr) ] | None -> []
  in
  Json.to_string
    (Obj
       ([
          ("seq", Json.int e.ev_seq);
          ("ts", Num (Json.fixed 6 e.ev_ts));
          ("level", Str (level_string e.ev_level));
          ("event", Str e.ev_kind);
        ]
       @ trace
       @ List.map (fun (k, v) -> (k, field_to_json v)) e.ev_fields))

let emit t ?(level = Info) ?trace ~kind fields =
  if t.enabled && level_rank level >= t.min_level then begin
    let seq = Gpos.Ring.claim t.ring in
    let e =
      {
        ev_seq = seq;
        ev_ts = Gpos.Clock.now ();
        ev_level = level;
        ev_kind = kind;
        ev_trace = trace;
        ev_fields = fields;
      }
    in
    Gpos.Ring.store t.ring seq e;
    Telemetry.Metrics.inc Telemetry.Std.sre_events;
    match !(t.sink) with
    | None -> ()
    | Some oc ->
        Mutex.lock t.sink_lock;
        (try
           output_string oc (entry_to_json e);
           output_char oc '\n';
           flush oc
         with Sys_error _ -> ());
        Mutex.unlock t.sink_lock
  end

let entries t = Gpos.Ring.to_list t.ring

let set_sink t oc =
  Mutex.lock t.sink_lock;
  t.sink := oc;
  Mutex.unlock t.sink_lock

let to_json_lines t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf (entry_to_json e);
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf
