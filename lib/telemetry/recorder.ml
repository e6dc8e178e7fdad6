(* Flight recorder: a fixed-size ring buffer (Gpos.Ring) of per-query
   summaries, the "black box" for the optimizer-as-a-service north star.
   Recording one entry per optimized query is one fetch-and-add and one
   slot store; the ring keeps the last [capacity] entries and the total
   count ever recorded.

   The slow-query trigger itself lives in lib/core (Flight) because it
   re-runs the optimizer; this module only holds its configuration — the
   threshold and the AMPERe dump directory — so that lib/exec and bin can
   read the same knobs without depending on lib/core. *)

type status = Ok | Slow | Failed of string

let status_string = function
  | Ok -> "ok"
  | Slow -> "slow"
  | Failed _ -> "failed"

type entry = {
  e_seq : int;                     (* 1-based, monotonically increasing *)
  e_ts : float;                    (* Gpos.Clock.now at record time *)
  e_label : string;
  e_fingerprint : string;
  e_ms : float;
  e_groups : int;
  e_gexprs : int;
  e_cost : float;
  e_phases : (string * float) list;  (* top phase times, largest first *)
  e_status : status;
  e_dump : string option;          (* path of the AMPERe dump, if emitted *)
}

type t = entry Gpos.Ring.t

let create ?(capacity = 128) () = Gpos.Ring.create capacity

let global = create ()

let capacity = Gpos.Ring.capacity

let total ?(recorder = global) () = Gpos.Ring.total recorder

let claim ?(recorder = global) () = Gpos.Ring.claim recorder

let record ?(recorder = global) ?seq ~label ~fingerprint ~ms ~groups ~gexprs
    ~cost ~phases ~status ?dump () =
  let ts = Gpos.Clock.now () in
  let seq = match seq with Some s -> s | None -> Gpos.Ring.claim recorder in
  let e =
    {
      e_seq = seq;
      e_ts = ts;
      e_label = label;
      e_fingerprint = fingerprint;
      e_ms = ms;
      e_groups = groups;
      e_gexprs = gexprs;
      e_cost = cost;
      e_phases = phases;
      e_status = status;
      e_dump = dump;
    }
  in
  Gpos.Ring.store recorder seq e;
  e

(* Oldest first. *)
let entries ?(recorder = global) () = Gpos.Ring.to_list recorder

let clear ?(recorder = global) () = Gpos.Ring.clear recorder

(* Keep the [n] largest phase timings, largest first — the ring stores
   top-3 so an entry stays small no matter how many stages ran. *)
let top_phases ?(n = 3) phases =
  let sorted =
    List.sort (fun (_, a) (_, b) -> compare (b : float) a) phases
  in
  List.filteri (fun i _ -> i < n) sorted

(* -- slow-query trigger configuration ------------------------------ *)

let slow_threshold : float option ref = ref None
let ampere_dir : string option ref = ref None

let configure ?slow_ms ?dump_dir () =
  (match slow_ms with Some v -> slow_threshold := v | None -> ());
  (match dump_dir with Some v -> ampere_dir := v | None -> ())

let slow_ms () = !slow_threshold
let dump_dir () = !ampere_dir
