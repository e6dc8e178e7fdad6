type 'a slot = Empty | Full of int * 'a

type 'a t = { slots : 'a slot Atomic.t array; next : int Atomic.t }

let create capacity =
  {
    slots = Array.init (max 1 capacity) (fun _ -> Atomic.make Empty);
    next = Atomic.make 1;
  }

let capacity t = Array.length t.slots
let claim t = Atomic.fetch_and_add t.next 1
let total t = Atomic.get t.next - 1

let store t seq v =
  let slot = t.slots.((seq - 1) mod Array.length t.slots) in
  let rec go () =
    match Atomic.get slot with
    | Full (s, _) when s > seq -> ()
    | cur -> if not (Atomic.compare_and_set slot cur (Full (seq, v))) then go ()
  in
  go ()

let to_list t =
  Array.fold_left
    (fun acc slot ->
      match Atomic.get slot with Empty -> acc | Full (s, v) -> (s, v) :: acc)
    [] t.slots
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let clear t =
  Array.iter (fun slot -> Atomic.set slot Empty) t.slots;
  Atomic.set t.next 1
