(* Fault-injected closed loop: clients talk to a self-hosted server
   through a seeded faulty socket shim (rate 0.05, seed 42), mixing
   range, join and insert frames; retries carry idempotency keys, and
   the acked insert frames must equal the live table's batch-sequence
   advance (exit 1: a double-applied retry breaks the equation).
   Fault-free loopback load is perfbench's job (sh perfbench/run.sh). *)

module Srv = Sqp_server
module W = Sqp_workload

let fault_rate = 0.05

let fault_seed = 42

let run ~quick =
  let clients, requests = if quick then (2, 15) else (4, 100) in
  let wk = W.Seeded.standard () in
  let server = Srv.Server.start (Srv.Catalog.of_seeded wk) in
  let port = Srv.Server.port server in
  let live = Option.get (Srv.Catalog.live (Srv.Server.catalog server) "L") in
  let seq_before = Sqp_btree.Live.seq live in
  let wrap =
    Srv.Faulty_net.wrap
      (Srv.Faulty_net.seeded ~p_eintr:fault_rate ~p_short:0.2 ~p_delay:fault_rate
         ~delay_s:0.0005 ~p_reset:fault_rate ~seed:fault_seed ())
  in
  let boxes = wk.W.Seeded.query_boxes in
  let side = W.Seeded.side wk in
  let acked_inserts = Atomic.make 0 in
  let retries = Atomic.make 0 and reconnects = Atomic.make 0 in
  (* A torn first attempt is routine under faults: give the retry loop
     room. *)
  let latencies_of_client c =
    Srv.Client.with_connect ~port ~wrap ~max_attempts:100
      ~client_id:((fault_seed * 1000) + c) (fun client ->
        let lat =
          Array.init requests (fun i ->
              let t0 = Unix.gettimeofday () in
              let reply =
                if i mod 5 = 2 then
                  Result.map
                    (fun _ -> Atomic.incr acked_inserts)
                    (Srv.Client.insert client ~table:"L"
                       (List.init 4 (fun j ->
                            let n = (c * 1_000_000) + (i * 100) + j in
                            ([| n * 7919 mod side; n * 104729 mod side |], 900_000_000 + n))))
                else if i mod 10 = 9 then
                  Result.map (fun _ -> ()) (Srv.Client.query client Join_plan.wire)
                else
                  let box = boxes.(((c * 131) + i) mod Array.length boxes) in
                  Result.map
                    (fun _ -> ())
                    (Srv.Client.range_search client ~lo:(Sqp_geom.Box.lo box)
                       ~hi:(Sqp_geom.Box.hi box))
              in
              (match reply with
              | Ok () -> ()
              | Error e -> Row.fail "chaos: request failed: %s" (Srv.Client.error_to_string e));
              Unix.gettimeofday () -. t0)
        in
        ignore (Atomic.fetch_and_add retries (Srv.Client.retries client));
        ignore (Atomic.fetch_and_add reconnects (Srv.Client.reconnects client));
        lat)
  in
  let t0 = Unix.gettimeofday () in
  let results = Array.make clients [||] in
  List.init clients (fun c -> Thread.create (fun () -> results.(c) <- latencies_of_client c) ())
  |> List.iter Thread.join;
  let wall = Unix.gettimeofday () -. t0 in
  let acked = Atomic.get acked_inserts in
  let advanced = Sqp_btree.Live.seq live - seq_before in
  if advanced <> acked then
    Row.fail
      "chaos: exactly-once violated: %d insert frames acked but the live table advanced %d \
       batches"
      acked advanced;
  Srv.Server.stop server;
  let latencies = Array.concat (Array.to_list results) in
  Array.sort compare latencies;
  let total = Array.length latencies in
  let pct p = latencies.(min (total - 1) (p * total / 100)) *. 1e3 in
  let row = Row.make Row.Loopback ~seed:fault_seed "faulty closed loop" in
  [
    row "requests" "requests" (float_of_int total);
    row "wall" "s" wall;
    row "goodput" "1/s" (float_of_int total /. wall);
    row "latency_p50" "ms" (pct 50);
    row "latency_p90" "ms" (pct 90);
    row "latency_p99" "ms" (pct 99);
    row "latency_max" "ms" (latencies.(total - 1) *. 1e3);
    row "retries" "retries" (float_of_int (Atomic.get retries));
    row "reconnects" "reconnects" (float_of_int (Atomic.get reconnects));
    row "insert_frames_acked" "frames" (float_of_int acked);
  ]
