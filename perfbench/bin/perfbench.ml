(* The serving benchmark: drives the built [sqp serve] as a child
   process from one closed-loop load generator, checks every answer
   after the timed window, and prints the end-to-end metrics
   ([--trace 0]) or the per-layer ladder ([--trace 1]), for which it
   also starts a 2-shard [sqp route] deployment.  See
   perfbench/README.md.

   perfbench.exe --sqp PATH --workload range|join|ingest
                 --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics; the exit code is non-zero
   when any answer was wrong or any request failed. *)

module S = Perfbench.Streams
module Spans = Perfbench.Spans
module Oracle = Perfbench.Oracle
module Replay = Perfbench.Replay
module Client = Sqp_server.Client
module P = Sqp_server.Protocol
module Box = Sqp_geom.Box

let now = Unix.gettimeofday

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* {1 Arguments} *)

type args = {
  sqp : string;
  workload : S.workload;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let sqp = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--sqp", Arg.Set_string sqp, "PATH the built sqp binary");
      ("--workload", Arg.Set_string workload, "NAME range | join | ingest");
      ("--seed", Arg.Set_int seed, "N request-stream seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
    ]
    (fun a -> die "unexpected argument %S" a)
    "perfbench.exe --sqp PATH --workload NAME --seed N --seconds S --trace 0|1";
  let workload =
    match S.of_name !workload with Some w -> w | None -> die "unknown workload %S" !workload
  in
  if not (Sys.file_exists !sqp) then die "no sqp binary at %S" !sqp;
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  { sqp = !sqp; workload; seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1 }

(* {1 Child processes}

   Every server is a child process with its stdout on a pipe: the bound
   port is parsed off its first lines, then a thread drains the rest so
   the child never blocks on a full pipe.  Children are registered so
   an early exit still stops (and reaps) every one of them. *)

type child = { name : string; pid : int; port : int; drain : Thread.t option }

let live_children : child list ref = ref []

let reap pid ~grace =
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let stop_child c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap c.pid ~grace:20.;
  Option.iter Thread.join c.drain;
  live_children := List.filter (fun x -> x.pid <> c.pid) !live_children

let kill_all () =
  List.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap c.pid ~grace:5.)
    !live_children;
  live_children := []

(* Read lines from [fd] until one starts with [prefix]; its integer. *)
let await_port ~name fd prefix =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = now () +. 120. in
  let rec scan () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        let n = String.length prefix in
        if String.length line > n && String.sub line 0 n = prefix then
          int_of_string (String.sub line n (String.length line - n))
        else scan ()
    | None ->
        let left = deadline -. now () in
        if left <= 0. then failwith (name ^ " reported no port in time");
        (match Unix.select [ fd ] [] [] left with
        | [], _, _ -> ()
        | _ ->
            let k = Unix.read fd chunk 0 (Bytes.length chunk) in
            if k = 0 then failwith (name ^ " exited before reporting its port");
            Buffer.add_subbytes buf chunk 0 k);
        scan ()
  in
  scan ()

(* Spawn [sqp args]; returns once the child has printed its port. *)
let spawn ~sqp ~name ~prefix args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process sqp (Array.of_list (sqp :: args)) devnull out_w Unix.stderr
  in
  Unix.close out_w;
  Unix.close devnull;
  let provisional = { name; pid; port = 0; drain = None } in
  live_children := provisional :: !live_children;
  let port =
    try await_port ~name out_r prefix
    with e ->
      Unix.close out_r;
      raise e
  in
  let drain =
    Thread.create
      (fun () ->
        let chunk = Bytes.create 4096 in
        (try
           while Unix.read out_r chunk 0 (Bytes.length chunk) > 0 do
             ()
           done
         with Unix.Unix_error _ -> ());
        Unix.close out_r)
      ()
  in
  let c = { name; pid; port; drain = Some drain } in
  live_children := c :: List.filter (fun x -> x.pid <> pid) !live_children;
  c

(* {1 /proc accounting} *)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* Peak resident set ([VmHWM]) in kB. *)
let peak_rss_kb pid =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  match List.find_opt (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") lines with
  | None -> 0
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id

(* utime + stime in seconds (fields 14 and 15 of /proc/PID/stat, in
   USER_HZ = 100 ticks per second on Linux). *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.

(* {1 Deployments} *)

type deployment = {
  entry : int;  (** the port clients talk to *)
  servers : child list;  (** every server process, entry last *)
  flags : string;
}

let health port =
  Client.with_connect ~port (fun c ->
      match Client.health c with
      | Ok h when h.P.healthy -> ()
      | Ok h -> failwith ("server unhealthy: " ^ h.P.detail)
      | Error e -> failwith (Client.error_to_string e))

(* Every workload runs against one [sqp serve], with default flags. *)
let serve ~sqp =
  let s = spawn ~sqp ~name:"sqp serve" ~prefix:"SQP_SERVE_PORT=" [ "serve"; "--port"; "0" ] in
  health s.port;
  { entry = s.port; servers = [ s ]; flags = "sqp serve --port 0" }

(* The 2-shard deployment [router.hop_ms] is measured on: two [sqp serve
   --shard i/2] behind [sqp route]; also returns the shards' ports, in z
   order. *)
let cluster ~sqp =
  let shard i =
    spawn ~sqp ~name:"sqp serve --shard" ~prefix:"SQP_SERVE_PORT="
      [ "serve"; "--port"; "0"; "--shard"; Printf.sprintf "%d/2" i ]
  in
  let s0 = shard 0 in
  let s1 = shard 1 in
  let r =
    spawn ~sqp ~name:"sqp route" ~prefix:"SQP_ROUTE_PORT="
      [ "route"; "--port"; "0"; "--shards";
        Printf.sprintf "127.0.0.1:%d,127.0.0.1:%d" s0.port s1.port ]
  in
  health r.port;
  ( {
      entry = r.port;
      servers = [ s0; s1; r ];
      flags =
        "sqp serve --port 0 --shard 0/2; sqp serve --port 0 --shard 1/2; sqp route --port 0 \
         --shards <shard 0>,<shard 1>";
    },
    [ s0.port; s1.port ] )

(* Set-up time: from spawning the server process until it answers
   [Health]. *)
let serve_timed ~sqp =
  let t0 = now () in
  let d = serve ~sqp in
  (d, now () -. t0)

(* Entry process first, so a router drains before its shards go. *)
let stop d = List.iter stop_child (List.rev d.servers)

let cpu d = List.fold_left (fun acc c -> acc +. cpu_seconds c.pid) 0. d.servers

let rss_mb d =
  float_of_int (List.fold_left (fun acc c -> acc + peak_rss_kb c.pid) 0 d.servers) /. 1024.

(* One line per server process; read before the processes stop. *)
let process_lines d =
  List.map
    (fun c ->
      Printf.sprintf "process %s (pid %d): peak rss %.2f MB, cpu %.2f s" c.name c.pid
        (float_of_int (peak_rss_kb c.pid) /. 1024.)
        (cpu_seconds c.pid))
    d.servers

(* {1 The closed loop} *)

type kind = Read | Write

type sample = {
  kind : kind;
  t0 : float;
  t1 : float;
  ok : bool;  (** answered without error *)
  points : int;  (** point mutations applied (writes) *)
  check : unit -> bool;  (** the answer was right; run after the window *)
}

(* The server's resident memory is read when the window's [rss_reads]th
   read is answered, about 9 s into [ingest]'s window today, not at the
   window's end.  Each read that misses the decompose cache leaves
   garbage, and the server's heap keeps growing with it for hundreds of
   reads after the cache is full.  Read at the window's end, the figure
   would move with throughput; read at a fixed point of the request
   stream, it does not.  A server too slow to answer that many reads is
   read at the window's end. *)
let rss_reads = 200

type window = {
  mutable start : float;  (** samples completing in [start, stop] count *)
  mutable stop : float;
  mutable over : bool;
  mutable traced_from : float;  (** client spans for requests sent after this *)
  reads : int Atomic.t;  (** reads answered inside the window so far *)
  probe_rss : unit -> float;  (** the server's peak resident MB now *)
  mutable rss : float option;  (** [probe_rss] at the [rss_reads]th window read *)
}

(* Per connection: its samples, newest first, and its client's counters. *)
type conn = { mutable samples : sample list; mutable retries : int; mutable reconnects : int }

let conn () = { samples = []; retries = 0; reconnects = 0 }

let request ~spans ~win ~conn ~kind ~req call finish =
  let t0 = now () in
  let reply =
    match spans with
    | Some sp when t0 >= win.traced_from -> Spans.with_span sp ~req "client.call" call
    | _ -> call ()
  in
  let t1 = now () in
  let ok, points, check =
    match reply with
    | Ok r -> finish r
    | Error _ -> (false, 0, fun () -> false)
  in
  conn.samples <- { kind; t0; t1; ok; points; check } :: conn.samples;
  if
    kind = Read && t1 >= win.start && (not win.over)
    && Atomic.fetch_and_add win.reads 1 = rss_reads - 1
  then win.rss <- Some (win.probe_rss ());
  ok

let with_client conn port f =
  Client.with_connect ~port (fun c ->
      Fun.protect
        ~finally:(fun () ->
          conn.retries <- conn.retries + Client.retries c;
          conn.reconnects <- conn.reconnects + Client.reconnects c)
        (fun () -> f c))

(* A connection that fails outright leaves one failed sample. *)
let guarded conn f =
  try f ()
  with e ->
    conn.samples <-
      { kind = Read; t0 = now (); t1 = now (); ok = false; points = 0; check = (fun () -> false) }
      :: conn.samples;
    prerr_endline ("perfbench: connection failed: " ^ Printexc.to_string e)

let range_read ~spans ~win ~conn ~req c b =
  ignore @@ request ~spans ~win ~conn ~kind:Read ~req
    (fun () -> Client.range_search c ~lo:(Box.lo b) ~hi:(Box.hi b))
    (fun rel ->
      let got = Oracle.points_digest rel in
      (true, 0, fun () -> got = Oracle.range_expected b))

let range_reader ~spans ~win ~conn ~port ~id next_box =
  with_client conn port (fun c ->
      let k = ref 0 in
      while not win.over do
        incr k;
        range_read ~spans ~win ~conn ~req:((id * 1_000_000) + !k) c (next_box ())
      done)

let join_reader ~spans ~win ~conn ~port ~id =
  with_client conn port (fun c ->
      let k = ref 0 in
      while not win.over do
        incr k;
        ignore @@ request ~spans ~win ~conn ~kind:Read ~req:((id * 1_000_000) + !k)
          (fun () -> Client.query c S.join_plan)
          (fun rel ->
            let got = Oracle.pairs_digest rel in
            (true, 0, fun () -> got = Lazy.force Oracle.join_expected))
      done)

type ingest_state = {
  writer : S.writer;
  mutable steps : int;  (** writer steps fully acked *)
  mutable live_batches : int list;  (** inserted and not deleted, acked *)
  mutable failed_write : bool;
}

let ingest_writer ~spans ~win ~conn ~port st =
  with_client conn port (fun c ->
      while (not win.over) && not st.failed_write do
        let step = S.next_step st.writer in
        let ack expected = fun (applied, _seq) ->
          (true, applied, fun () -> applied = expected)
        in
        let req = 1_000_000 + (2 * step.S.index) in
        if
          request ~spans ~win ~conn ~kind:Write ~req
            (fun () -> Client.insert c ~table:"L" step.S.insert)
            (ack (List.length step.S.insert))
        then st.live_batches <- step.S.index :: st.live_batches
        else st.failed_write <- true;
        if step.S.delete <> [] && not st.failed_write then begin
          if
            request ~spans ~win ~conn ~kind:Write ~req:(req + 1)
              (fun () -> Client.delete c ~table:"L" step.S.delete)
              (ack (List.length step.S.delete))
          then
            st.live_batches <- List.filter (fun i -> i <> step.S.index - S.lag) st.live_batches
          else st.failed_write <- true
        end;
        if not st.failed_write then st.steps <- st.steps + 1
      done)

let live_read ~spans ~win ~conn ~req st c b =
  ignore @@ request ~spans ~win ~conn ~kind:Read ~req
    (fun () -> Client.live_range c ~table:"L" ~lo:(Box.lo b) ~hi:(Box.hi b))
    (fun rel ->
      let rows = Oracle.live_rows rel in
      (true, 0, fun () -> Oracle.live_read_ok st.writer b rows))

let live_reader ~spans ~win ~conn ~port ~seed st =
  let next_box = S.live_boxes ~seed in
  with_client conn port (fun c ->
      let k = ref 0 in
      while not win.over do
        incr k;
        live_read ~spans ~win ~conn ~req:(2_000_000 + !k) st c (next_box ())
      done)

(* The final state of [L], read after the window: the canonical points
   plus exactly the acked inserted batches not deleted since. *)
let ingest_final_ok port st =
  let side = S.side () in
  let full = Box.of_ranges [ (0, side - 1); (0, side - 1) ] in
  Client.with_connect ~port (fun c ->
      match Client.live_range c ~table:"L" ~lo:(Box.lo full) ~hi:(Box.hi full) with
      | Error _ -> false
      | Ok rel ->
          let rows = Oracle.live_rows rel in
          let inserted =
            List.sort compare
              (List.filter_map
                 (fun (id, _, _) -> if id >= S.first_insert_id then Some id else None)
                 (Array.to_list rows))
          in
          let expected =
            List.sort compare
              (List.concat_map
                 (fun i -> List.init S.batch (fun j -> S.first_insert_id + (i * S.batch) + j))
                 st.live_batches)
          in
          Oracle.live_read_ok st.writer full rows && inserted = expected)

(* Before the load starts, [fill_connections] extra connections send
   [S.fill_count] fresh boxes as the workload's own read frames, so the
   server's 512-entry decompose cache is full, and evicting, when the
   window opens.  Otherwise the cache (about 66 KB an entry on the range
   path) and with it the server's resident memory would grow through the
   window by as much as the run had served.  [join] never decomposes.
   These answers are checked like any other; they enter no metric. *)
let fill_connections = 16

let fill_cache ~win ~port ~seed w ingest =
  let next = S.fill_boxes ~seed in
  let boxes = Array.init S.fill_count (fun _ -> next ()) in
  let k = Atomic.make 0 in
  let conns = List.init fill_connections (fun _ -> conn ()) in
  let worker conn () =
    guarded conn (fun () ->
        with_client conn port (fun c ->
            let rec go () =
              let i = Atomic.fetch_and_add k 1 in
              if i < Array.length boxes then begin
                let req = 3_000_000 + i in
                (match w with
                | S.Range -> range_read ~spans:None ~win ~conn ~req c boxes.(i)
                | S.Ingest -> live_read ~spans:None ~win ~conn ~req ingest c boxes.(i)
                | S.Join -> ());
                go ()
              end
            in
            go ()))
  in
  if w <> S.Join then
    List.iter Thread.join (List.map (fun c -> Thread.create (worker c) ()) conns);
  conns

let warm_seconds = 1.5

type load = {
  samples : sample list;
  window_s : float;
  window_start : float;
  window_stop : float;
  cpu_s : float;  (** server CPU seconds inside the window *)
  rss : float;  (** server peak resident MB at the [rss_reads]th window read *)
  rss_at : int;  (** window reads answered when [rss] was read *)
  retries : int;
  reconnects : int;
  final_ok : bool;  (** [ingest]: the final table; otherwise true *)
}

(* Run the workload's connections: warm up, then a [seconds] window.
   With [spans], requests sent in the window's second half are wrapped
   in client spans (the traced half of the overhead measurement). *)
let run_load ?spans ~seed ~seconds w d =
  let port = d.entry in
  let win =
    {
      start = infinity;
      stop = infinity;
      over = false;
      traced_from = infinity;
      reads = Atomic.make 0;
      probe_rss = (fun () -> rss_mb d);
      rss = None;
    }
  in
  let ingest = { writer = S.writer ~seed; steps = 0; live_batches = []; failed_write = false } in
  let fill = fill_cache ~win ~port ~seed w ingest in
  let t_begin = now () in
  let conns = Array.init S.connections (fun _ -> conn ()) in
  let body i () =
    let conn = conns.(i) in
    guarded conn (fun () ->
        match w with
        | S.Range -> range_reader ~spans ~win ~conn ~port ~id:i (S.range_boxes ~seed ~client:i)
        | S.Join -> join_reader ~spans ~win ~conn ~port ~id:i
        | S.Ingest ->
            if i = 0 then ingest_writer ~spans ~win ~conn ~port ingest
            else live_reader ~spans ~win ~conn ~port ~seed ingest)
  in
  let threads = Array.to_list (Array.init S.connections (fun i -> Thread.create (body i) ())) in
  (* The window opens after the warm-up and, on [ingest], once the
     writer has reached its size band (its first deletes). *)
  while now () < t_begin +. warm_seconds || (w = S.Ingest && ingest.steps < S.lag && not ingest.failed_write) do
    Thread.delay 0.01
  done;
  let cpu0 = cpu d in
  win.start <- now ();
  if spans <> None then win.traced_from <- win.start +. (seconds /. 2.);
  Thread.delay seconds;
  win.stop <- now ();
  let at_stop = (rss_mb d, Atomic.get win.reads) in
  let cpu1 = cpu d in
  win.over <- true;
  List.iter Thread.join threads;
  let rss, rss_at = match win.rss with Some r -> (r, rss_reads) | None -> at_stop in
  let final_ok = match w with S.Ingest -> ingest_final_ok port ingest | _ -> true in
  let conns = fill @ Array.to_list conns in
  {
    samples = List.concat_map (fun (c : conn) -> c.samples) conns;
    window_s = win.stop -. win.start;
    window_start = win.start;
    window_stop = win.stop;
    cpu_s = cpu1 -. cpu0;
    rss;
    rss_at;
    retries = List.fold_left (fun acc (c : conn) -> acc + c.retries) 0 conns;
    reconnects = List.fold_left (fun acc (c : conn) -> acc + c.reconnects) 0 conns;
    final_ok;
  }

let in_window l s = s.t1 >= l.window_start && s.t1 <= l.window_stop

(* {1 Statistics} *)

(* The [p] quantile of [xs], and how many samples lie beyond its nearest
   rank.  The estimate is the mean of the samples ranked within five
   points of [p]: loopback stalls end on the kernel's timer tick, so
   latencies sit on a grid of about 4 ms, and a single order statistic
   jumps a whole step when the quantile falls near the edge of one. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let rank q = min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) in
    let lo = rank (p -. 0.05) and hi = rank (p +. 0.05) in
    let sum = ref 0. in
    for i = lo to hi do
      sum := !sum +. a.(i)
    done;
    (!sum /. float_of_int (hi - lo + 1), n - rank p - 1)

let latencies_ms samples = List.map (fun s -> (s.t1 -. s.t0) *. 1e3) samples

(* {1 Output} *)

let env_line args flags =
  Printf.sprintf
    "cores %d; ocaml %s; workload %s; seed %d; seconds %.0f; server flags: %s; flush policy: live \
     table L in memory, no fsync"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (S.name args.workload) args.seed args.seconds flags

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))

(* Every result is also kept, with its environment, under perfbench/out. *)
let out_dir = Filename.concat "perfbench" "out"

let save name contents =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

(* Tally and check: [attempted] counts every frame sent (cache fill and
   warm-up included); [failed] those that errored or answered wrong. *)
let tally l =
  let attempted = List.length l.samples + if l.final_ok then 0 else 1 in
  let failed =
    List.length (List.filter (fun s -> not (s.ok && s.check ())) l.samples)
    + if l.final_ok then 0 else 1
  in
  (attempted, failed)

let finish ~args ~flags ~attempted ~failed ~lines metrics =
  let correct = failed = 0 in
  let trace = if args.trace then 1 else 0 in
  Printf.printf "perfbench %s seed %d trace %d\nenv: %s\n" (S.name args.workload) args.seed trace
    (env_line args flags);
  List.iter print_endline lines;
  Printf.printf "error_frac %.6f (%d failed or wrong of %d attempted)\n"
    (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  let json = result_json ~correct ~attempted ~failed metrics in
  let path =
    save
      (Printf.sprintf "%s-seed%d-trace%d.json" (S.name args.workload) args.seed trace)
      (Printf.sprintf "{\"env\": %s, \"result\": %s}\n" (Spans.json_string (env_line args flags)) json)
  in
  Printf.printf "result recorded in %s\n" path;
  print_endline json;
  if not correct then exit 1

(* {1 The end-to-end run} *)

(* Set-ups per run, half before the load and half after it: set-up
   times come in spells of about 21 or 30 ms, so one spell should not
   decide the median alone. *)
let setups = 40

let end_to_end args =
  let setup_times n =
    List.init n (fun _ ->
        let d, t = serve_timed ~sqp:args.sqp in
        stop d;
        t)
  in
  let before = setup_times (setups / 2) in
  let d = serve ~sqp:args.sqp in
  let l = run_load ~seed:args.seed ~seconds:args.seconds args.workload d in
  let rss = l.rss in
  let processes = process_lines d in
  stop d;
  let setup_times = before @ setup_times (setups / 2) in
  let attempted, failed = tally l in
  let measured = List.filter (fun s -> s.ok && in_window l s) l.samples in
  let reads = List.filter (fun s -> s.kind = Read) measured in
  let writes = List.filter (fun s -> s.kind = Write) measured in
  let points = List.fold_left (fun acc s -> acc + s.points) 0 writes in
  let per_s n = float_of_int n /. l.window_s in
  let read_p50, r50_beyond = percentile 0.5 (latencies_ms reads) in
  let read_p90, r90_beyond = percentile 0.9 (latencies_ms reads) in
  let frame_p50, f50_beyond = percentile 0.5 (latencies_ms measured) in
  let frame_p90, f90_beyond = percentile 0.9 (latencies_ms measured) in
  let write_p50, w50_beyond = percentile 0.5 (latencies_ms writes) in
  let write_p90, w90_beyond = percentile 0.9 (latencies_ms writes) in
  let setup_s = Replay.median setup_times in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("read_qps", per_s (List.length reads), "1/s");
      ("read_p50_ms", read_p50, "ms");
      ("read_p90_ms", read_p90, "ms");
      ("ops_s", per_s (List.length reads + points), "1/s");
      ("frame_p50_ms", frame_p50, "ms");
      ("frame_p90_ms", frame_p90, "ms");
      ("server_rss_mb", rss, "MB");
    ]
  in
  let n = List.length in
  let lines =
    [
      Printf.sprintf "setup_s %.4f s (median of %d: %s)" setup_s setups
        (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
      Printf.sprintf "read_qps %.2f 1/s (%d reads in %.2f s)" (per_s (n reads)) (n reads) l.window_s;
      Printf.sprintf "read_p50_ms %.3f ms (%d samples beyond)" read_p50 r50_beyond;
      Printf.sprintf "read_p90_ms %.3f ms (%d samples beyond)" read_p90 r90_beyond;
      Printf.sprintf "ops_s %.2f 1/s (reads plus %d applied point mutations)" (per_s (n reads + points)) points;
      Printf.sprintf "frame_p50_ms %.3f ms (%d frames, %d beyond)" frame_p50 (n measured) f50_beyond;
      Printf.sprintf "frame_p90_ms %.3f ms (%d beyond)" frame_p90 f90_beyond;
      Printf.sprintf "server_rss_mb %.2f MB (peak VmHWM summed over %d processes, at window read %d)" rss
        (n d.servers) l.rss_at;
    ]
    @ processes
    @
    if writes = [] then []
    else
      [
        Printf.sprintf "write_ops_s %.2f 1/s (%d point mutations in %d frames)" (per_s points) points (n writes);
        Printf.sprintf "write_p50_ms %.3f ms (%d beyond)" write_p50 w50_beyond;
        Printf.sprintf "write_p90_ms %.3f ms (%d beyond)" write_p90 w90_beyond;
      ]
  in
  finish ~args ~flags:d.flags ~attempted ~failed ~lines metrics

(* {1 The traced run} *)

(* p50 of [Health] round trips to the server — the stall sentinel. *)
let health_rtt_ms port =
  Client.with_connect ~port (fun c ->
      let xs =
        List.init 21 (fun _ ->
            let t0 = now () in
            (match Client.health c with Ok _ -> () | Error e -> failwith (Client.error_to_string e));
            (now () -. t0) *. 1e3)
      in
      Replay.median (List.tl xs))

(* The router's own cost: p50 of single-shard boxes sent via the router
   minus p50 of the same boxes sent straight to their owning shard. *)
let router_hop_ms ~seed ~router shard_ports =
  let space = (S.dataset ()).Sqp_workload.Seeded.space in
  let map = Replay.cluster_map space in
  let next = S.replay_boxes ~seed in
  let rec pick acc k =
    if k = 0 then List.rev acc
    else
      let b = next () in
      let owners =
        Sqp_server.Shard_map.overlapping map
          (Sqp_zorder.Zrange.elements_to_intervals space
             (Sqp_zorder.Decompose.decompose_box ~options:Replay.routing space ~lo:(Box.lo b)
                ~hi:(Box.hi b)))
      in
      match owners with [ (i, _) ] -> pick ((b, i) :: acc) (k - 1) | _ -> pick acc k
  in
  let boxes = pick [] 30 in
  let shards = Array.of_list (List.map (fun port -> Client.connect ~port ()) shard_ports) in
  Fun.protect
    ~finally:(fun () -> Array.iter Client.close shards)
    (fun () ->
      Client.with_connect ~port:router (fun router ->
          let time c b =
            let t0 = now () in
            (match Client.range_search c ~lo:(Box.lo b) ~hi:(Box.hi b) with
            | Ok _ -> ()
            | Error e -> failwith (Client.error_to_string e));
            (now () -. t0) *. 1e3
          in
          let via, direct =
            List.split
              (List.mapi
                 (fun k (b, i) ->
                   if k mod 2 = 0 then
                     let v = time router b in
                     (v, time shards.(i) b)
                   else
                     let x = time shards.(i) b in
                     (time router b, x))
                 boxes)
          in
          Replay.median via -. Replay.median direct))

let traced args =
  let spans = Spans.create () in
  let d = serve ~sqp:args.sqp in
  let rtt = health_rtt_ms d.entry in
  let l = run_load ~spans ~seed:args.seed ~seconds:args.seconds args.workload d in
  let processes = process_lines d in
  stop d;
  let c, shards = cluster ~sqp:args.sqp in
  let hop =
    Fun.protect ~finally:(fun () -> stop c) (fun () ->
        router_hop_ms ~seed:args.seed ~router:c.entry shards)
  in
  let attempted, failed = tally l in
  let measured = List.filter (fun s -> s.ok && in_window l s) l.samples in
  let half = l.window_start +. (args.seconds /. 2.) in
  let p50 xs = fst (percentile 0.5 (latencies_ms xs)) in
  let untraced = p50 (List.filter (fun s -> s.t0 < half) measured) in
  let traced = p50 (List.filter (fun s -> s.t0 >= half) measured) in
  let r = Replay.run ~seed:args.seed ~workload:args.workload spans in
  let trace_path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" (S.name args.workload) args.seed) in
  ignore (save (Filename.basename trace_path) (Spans.to_chrome spans));
  let reqs = List.length measured in
  let metrics =
    [
      ("net.health_rtt_ms", rtt, "ms");
      ("server.busy_frac", l.cpu_s /. l.window_s, "frac");
      ("server.cpu_ms_per_req", l.cpu_s *. 1e3 /. float_of_int (max 1 reqs), "ms");
    ]
    @ r.Replay.metrics
    @ [
        ("router.hop_ms", hop, "ms");
        ("client.retries", float_of_int l.retries, "count");
        ("client.reconnects", float_of_int l.reconnects, "count");
        ("trace.overhead_frac", (traced /. untraced) -. 1., "frac");
      ]
  in
  let lines =
    List.map (fun (n, v, u) -> Printf.sprintf "%s %.4f %s" n v u) metrics
    @ processes
    @ List.map (fun (n, v) -> Printf.sprintf "count %s %d" n v) r.Replay.counts
    @ [
        Printf.sprintf "router.hop_ms deployment: %s" c.flags;
        Printf.sprintf "chrome trace: %s (%d spans)" trace_path (List.length (Spans.spans spans));
      ]
  in
  finish ~args ~flags:d.flags ~attempted ~failed ~lines metrics

let () =
  let args = parse_args () in
  at_exit kill_all;
  let on_signal _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try if args.trace then traced args else end_to_end args
  with e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 2
