(* Hierarchical span tracing (observability subsystem, lib/obs).

   A span covers one pipeline step — parse, bind, an optimization stage, an
   engine phase, plan extraction, simulated execution — and nests: the
   ancestry is tracked in domain-local storage, so each recorded event
   carries its full path ("q1/optimize/stage:full/explore").

   Collection is session-based and globally off by default: with no session
   active, [with_] is one atomic load and a tail call — no allocation, no
   clock read — so instrumented hot paths cost nothing in production.
   [collect] (or the [begin_session]/[end_session] pair for callers that
   must salvage events across an exception) turns recording on, and every
   domain appends completed spans to a mutex-guarded buffer.

   Timestamps come from [Gpos.Clock.now], so tests can pin them with
   [Gpos.Clock.with_fake] and golden-file the exported trace. *)

type event = {
  sp_name : string;
  sp_path : string;  (* "/"-joined ancestry, outermost first, incl. name *)
  sp_depth : int;    (* number of ancestors *)
  sp_start_us : float;  (* microseconds since session start *)
  sp_dur_us : float;
  sp_domain : int;
  sp_attrs : (string * string) list;
}

let active_flag = Atomic.make false
let buf : event list ref = ref []
let buf_mutex = Mutex.create ()
let session_t0 = ref 0.0

(* Total events ever recorded: lets tests assert that a run with
   observability off recorded nothing at all. *)
let recorded_total = Atomic.make 0

let active () = Atomic.get active_flag

(* Ancestry path of the span currently open on this domain, innermost
   first. *)
let stack_key : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let record ev =
  Atomic.incr recorded_total;
  Mutex.lock buf_mutex;
  buf := ev :: !buf;
  Mutex.unlock buf_mutex

(* Push [name] on this domain's ancestry; the returned closer pops it and
   records the span from its start and end clock readings. *)
let open_span attrs name =
  let stack = Domain.DLS.get stack_key in
  Domain.DLS.set stack_key (name :: stack);
  let path = String.concat "/" (List.rev (name :: stack)) in
  fun t0 t1 ->
    Domain.DLS.set stack_key stack;
    record
      {
        sp_name = name;
        sp_path = path;
        sp_depth = List.length stack;
        sp_start_us = (t0 -. !session_t0) *. 1e6;
        sp_dur_us = (t1 -. t0) *. 1e6;
        sp_domain = (Domain.self () :> int);
        sp_attrs = attrs;
      }

(* Run [f] in a span and return its result with the elapsed milliseconds:
   the same two clock reads time the span, when a session is active, and
   the returned duration. *)
let timed ?(attrs = []) ~name f =
  let close = if active () then open_span attrs name else fun _ _ -> () in
  let t0 = Gpos.Clock.now () in
  match f () with
  | r ->
      let t1 = Gpos.Clock.now () in
      close t0 t1;
      (r, (t1 -. t0) *. 1000.0)
  | exception e ->
      close t0 (Gpos.Clock.now ());
      raise e

let with_ ?attrs ~name f =
  if not (active ()) then f () else fst (timed ?attrs ~name f)

(* Stable order for exporters and golden tests: by start time, then depth
   (parents before equal-start children), then path. *)
let sort_events evs =
  List.sort
    (fun a b ->
      match Float.compare a.sp_start_us b.sp_start_us with
      | 0 -> (
          match compare a.sp_depth b.sp_depth with
          | 0 -> compare a.sp_path b.sp_path
          | c -> c)
      | c -> c)
    evs

(* Start a session. Returns [false] (and records nothing new) when one is
   already active — the outer owner keeps collecting. *)
let begin_session () =
  if Atomic.get active_flag then false
  else begin
    Mutex.lock buf_mutex;
    buf := [];
    Mutex.unlock buf_mutex;
    session_t0 := Gpos.Clock.now ();
    Atomic.set active_flag true;
    true
  end

(* Stop the session and drain the buffer in stable order. *)
let end_session () =
  Atomic.set active_flag false;
  Mutex.lock buf_mutex;
  let evs = !buf in
  buf := [];
  Mutex.unlock buf_mutex;
  sort_events evs

(* Run [f] in a fresh session; returns its result and the collected spans.
   Nested inside an active session, runs [f] and returns no events (the
   outer session owns them). *)
let collect f =
  if not (begin_session ()) then (f (), [])
  else
    match f () with
    | v -> (v, end_session ())
    | exception e ->
        ignore (end_session ());
        raise e
