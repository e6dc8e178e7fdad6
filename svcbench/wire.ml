(* The server process and the closed-loop socket client.

   The client sends a connection's next request only after the previous
   reply arrived. While the clock runs it does the least it can per reply:
   take the time, copy the reply's short header (everything before the
   plan), and fingerprint the plan by its length and 256 sampled bytes.
   The full reply is kept only for the first plan of each (base, plan
   fingerprint) pair; those are the plans the answer check executes.
   Everything else is parsed after the clock stops. *)

let now = Unix.gettimeofday

(* ---------------- the server ---------------- *)

type server = { pid : int; sock : string }

let spawn ~exe ~sock ~sf ~log_path =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--sf"; Printf.sprintf "%g" sf |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  { pid; sock }

(* Peak resident set of the server, from /proc; nan once it has exited. *)
let vm_hwm_mb s =
  let path = Printf.sprintf "/proc/%d/status" s.pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

let stop s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  try Unix.unlink s.sock with Unix.Unix_error _ -> ()

(* ---------------- connections ---------------- *)

type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

exception No_reply of string

let connect s ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ -> ()
    | _ -> raise (No_reply "server exited before listening"));
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
    | () -> { fd; buf = Bytes.create 65536; len = 0 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if now () > deadline then raise (No_reply "server never listened");
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let n = String.length line in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd line !off (n - !off)
  done

(* Read more bytes; raises [No_reply] on end of stream. *)
let fill c =
  if c.len = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  let k = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if k = 0 then raise (No_reply "connection closed");
  c.len <- c.len + k

let newline c from =
  match Bytes.index_from_opt c.buf from '\n' with
  | Some i when i < c.len -> Some i
  | _ -> None

(* Drop the first [n] bytes (a reply and its newline). *)
let consume c n =
  Bytes.blit c.buf n c.buf 0 (c.len - n);
  c.len <- c.len - n

(* Block until a whole reply is buffered; returns where its newline is. *)
let rec await c scanned =
  match newline c scanned with
  | Some e -> e
  | None ->
      let scanned = c.len in
      fill c;
      await c scanned

(* Blocking round trip for set-up lines; returns the reply. *)
let call c line =
  send c line;
  let e = await c 0 in
  let reply = Bytes.sub_string c.buf 0 e in
  consume c (e + 1);
  reply

(* ---------------- replies ---------------- *)

let plan_marker = ",\"plan\":\""

(* Where the plan field starts, or the reply length when there is none. *)
let header_end b len =
  let m = String.length plan_marker in
  let rec at i =
    if i + m > len then len
    else if Bytes.get b i = ',' && Bytes.sub_string b i m = plan_marker then i
    else at (i + 1)
  in
  at 0

let signature b off len =
  let step = max 1 (len / 256) in
  let h = ref len and i = ref off in
  while !i < off + len do
    h := ((!h * 31) + Char.code (Bytes.unsafe_get b !i)) land max_int;
    i := !i + step
  done;
  !h

(* A string field of a flat JSON header, e.g. [field h "cache"]. *)
let field h name =
  let key = "\"" ^ name ^ "\":" in
  let kl = String.length key and hl = String.length h in
  let rec find i =
    if i + kl > hl then None
    else if String.sub h i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let quoted = i < hl && h.[i] = '"' in
      let s = if quoted then i + 1 else i in
      let e = ref s in
      while !e < hl && (if quoted then h.[!e] <> '"' else h.[!e] <> ',' && h.[!e] <> '}') do
        incr e
      done;
      Some (String.sub h s (!e - s))

(* The DXL text of a reply's plan field (JSON string unescaping). *)
let plan_of_reply r =
  let s = header_end (Bytes.unsafe_of_string r) (String.length r) + String.length plan_marker in
  let b = Buffer.create (String.length r) in
  let i = ref s and stop = ref false in
  while not !stop do
    if !i >= String.length r then failwith "unterminated plan field";
    (match r.[!i] with
    | '"' -> stop := true
    | '\\' -> (
        incr i;
        match r.[!i] with
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub r (!i + 1) 4)));
            i := !i + 4
        | c -> Buffer.add_char b c)
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

(* ---------------- the measured loop ---------------- *)

(* One connection's stream and what it saw. Slot [i] of each array belongs
   to request [i]; [rtt_ms] is only set for requests the clock timed. *)
type lane = {
  name : string;
  conn : conn;
  reqs : Streams.request array;
  lines : string array;       (* each request's text with its newline *)
  mutable sent : int;         (* requests sent so far *)
  mutable t_send : float;
  rtt_ms : float array;
  header : string array;
  bytes : int array;
  key : int array;            (* plan key, -1 for a reply without a plan *)
}

let lane name conn reqs =
  let n = Array.length reqs in
  (* hot streams repeat a few hundred texts: share one copy of each *)
  let copies = Hashtbl.create 1024 in
  let with_newline s =
    match Hashtbl.find_opt copies s with
    | Some l -> l
    | None ->
        let l = s ^ "\n" in
        Hashtbl.replace copies s l;
        l
  in
  {
    name;
    conn;
    reqs;
    lines = Array.map (fun r -> with_newline r.Streams.line) reqs;
    sent = 0;
    t_send = 0.0;
    rtt_ms = Array.make n nan;
    header = Array.make n "";
    bytes = Array.make n 0;
    key = Array.make n (-1);
  }

(* Plans seen, keyed by (base, plan fingerprint); the first full reply of
   each is kept for the answer check. *)
type plans = { ids : (int * int, int) Hashtbl.t; mutable first : (int * int * string) list }

let plans () = { ids = Hashtbl.create 256; first = [] }

let record plans l i line_end =
  let b = l.conn.buf in
  let h = header_end b line_end in
  l.header.(i) <- Bytes.sub_string b 0 h;
  l.bytes.(i) <- line_end + 1;
  if h < line_end then begin
    let k = (l.reqs.(i).Streams.base, signature b h (line_end - h)) in
    l.key.(i) <-
      (match Hashtbl.find_opt plans.ids k with
      | Some id -> id
      | None ->
          let id = Hashtbl.length plans.ids in
          Hashtbl.replace plans.ids k id;
          plans.first <- (id, fst k, Bytes.sub_string b 0 line_end) :: plans.first;
          id)
  end

let send_next l =
  l.t_send <- now ();
  send l.conn l.lines.(l.sent);
  l.sent <- l.sent + 1

(* Run every lane closed-loop until [seconds] pass or its stream ends.
   Returns the clock's start, the time of the last timed reply, and why the
   server stopped replying, if it did (the request in flight then has no
   reply and counts as failed). *)
let measure ~seconds ~reply_timeout plans lanes =
  let t0 = now () in
  let t_end = t0 +. seconds in
  let t_last = ref t0 in
  let live = ref lanes in
  let step () =
    let fds = List.map (fun l -> l.conn.fd) !live in
    let ready, _, _ = Unix.select fds [] [] reply_timeout in
    if ready = [] then raise (No_reply "reply timeout");
    List.iter
      (fun l ->
        if List.memq l.conn.fd ready then begin
          let scanned = l.conn.len in
          fill l.conn;
          match newline l.conn scanned with
          | None -> ()
          | Some e ->
              let t = now () in
              let i = l.sent - 1 in
              l.rtt_ms.(i) <- (t -. l.t_send) *. 1000.0;
              t_last := t;
              record plans l i e;
              consume l.conn (e + 1);
              if t < t_end && l.sent < Array.length l.reqs then send_next l
              else live := List.filter (fun x -> x != l) !live
        end)
      !live
  in
  match
    List.iter send_next lanes;
    while !live <> [] do
      step ()
    done
  with
  | () -> (t0, !t_last, None)
  | exception (No_reply why) -> (t0, !t_last, Some why)
  | exception Unix.Unix_error (e, _, _) -> (t0, !t_last, Some (Unix.error_message e))

(* Send, untimed, the requests a lane still owes up to [upto]. *)
let finish plans l upto =
  while l.sent < min upto (Array.length l.reqs) do
    let i = l.sent in
    send_next l;
    let e = await l.conn 0 in
    record plans l i e;
    consume l.conn (e + 1)
  done
