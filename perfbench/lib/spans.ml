(* Spans recorded by the benchmark around its calls into each layer:
   name, start, end, parent span and request id.  They stay in memory
   and are written out once, as a Chrome trace_event document, when the
   run ends.  [Sqp_obs.Trace] is not used here because its spans carry
   a nesting depth but no parent or request id.  A recorder is shared by the client threads of a traced
   loopback run, so it takes a lock; each thread keeps its own stack of
   open spans, which is what makes [parent] right under concurrency. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  req : int;  (** request id; [-1] for spans outside any request *)
  name : string;
  start : float;  (** seconds *)
  stop : float;
  tid : int;
}

type t = {
  m : Mutex.t;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  stacks : (int, int list) Hashtbl.t;  (* thread id -> open span ids *)
}

let create () =
  { m = Mutex.create (); spans = []; next_id = 0; stacks = Hashtbl.create 4 }

(* Seconds on the monotonic clock, to the nanosecond: [Unix.gettimeofday]
   ticks in steps of about 0.24 us at today's epoch, coarser than the
   cheapest layers' calls. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let with_span t ~req name f =
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock t.m;
  let id = t.next_id in
  t.next_id <- id + 1;
  let stack = Option.value ~default:[] (Hashtbl.find_opt t.stacks tid) in
  let parent = match stack with p :: _ -> p | [] -> -1 in
  Hashtbl.replace t.stacks tid (id :: stack);
  Mutex.unlock t.m;
  let start = now () in
  let finish () =
    let stop = now () in
    Mutex.lock t.m;
    t.spans <- { id; parent; req; name; start; stop; tid } :: t.spans;
    Hashtbl.replace t.stacks tid stack;
    Mutex.unlock t.m
  in
  Fun.protect ~finally:finish f

let spans t =
  Mutex.lock t.m;
  let s = List.rev t.spans in
  Mutex.unlock t.m;
  s

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Complete ("ph": "X") events, microseconds from the first span. *)
let to_chrome t =
  let all = spans t in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity all in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"req\":%d}}"
        (json_string s.name) s.tid
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.req)
    all;
  Buffer.add_string b "]}\n";
  Buffer.contents b
