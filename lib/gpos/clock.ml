(* Wall-clock helpers (GPOS timer abstraction).

   Production uses the real clock. Tests that need reproducible durations
   (the span-trace golden tests in test/test_obs.ml) install a deterministic
   counter with [with_fake]: every [now] call advances it by a fixed step, so
   span start/duration arithmetic is exact under `dune runtest`. The fake
   clock is for single-domain tests only; multi-worker runs keep Real. *)

type mode =
  | Real
  | Fake of { mutable fnow : float; step : float }

let mode = ref Real

let now () =
  match !mode with
  | Real -> Unix.gettimeofday ()
  | Fake f ->
      let v = f.fnow in
      f.fnow <- v +. f.step;
      v

let ms_since t0 = (now () -. t0) *. 1000.0

(* Run [f] under a deterministic clock starting at [start] seconds and
   advancing [step] seconds per [now] call; restores the previous clock. *)
let with_fake ?(start = 0.0) ?(step = 0.001) f =
  let prev = !mode in
  mode := Fake { fnow = start; step };
  Fun.protect ~finally:(fun () -> mode := prev) f
