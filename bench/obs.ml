(* Observability snapshot: the seeded stored-relation spatial join, run
   once under a collecting tracer.  Prints its EXPLAIN ANALYZE tree and
   records rows, page counters, the span count and every ambient metric; a full run also writes
   BENCH_trace.json, a Chrome trace_event file (load it at
   chrome://tracing or ui.perfetto.dev for the flame chart). *)

module W = Sqp_workload
module R = Sqp_relalg
module Obs = Sqp_obs

let run ~quick =
  let wk = W.Seeded.standard () in
  let tracer = Obs.Trace.create ~capacity:4096 Obs.Trace.Collect in
  Obs.Trace.set_global tracer;
  Obs.Metrics.reset (Obs.Metrics.global ());
  let a =
    R.Plan.run_analyze
      (R.Query.stored_overlap_plan ~options:wk.W.Seeded.decompose_options
         wk.W.Seeded.space wk.W.Seeded.left_objects wk.W.Seeded.right_objects)
  in
  Obs.Trace.set_global Obs.Trace.null;
  print_endline "\nEXPLAIN ANALYZE: stored 48x48 spatial join";
  print_string (R.Plan.render_analysis a);
  let spans = Obs.Trace.spans tracer in
  if not quick then begin
    Obs.Trace.write_chrome "BENCH_trace.json" spans;
    print_endline "  -> BENCH_trace.json"
  end;
  let seed = W.Seeded.objects_seed in
  let workload = "stored join, sequential" in
  let count = Row.count Row.Plan ~seed workload in
  let p = a.R.Plan.total_pages in
  [
    count "rows" (R.Relation.cardinality a.R.Plan.result);
    Row.make Row.Plan ~seed workload "wall" "ms" (a.R.Plan.wall_seconds *. 1e3);
    count "page_reads" p.Sqp_storage.Stats.physical_reads;
    count "page_writes" p.Sqp_storage.Stats.physical_writes;
    count "pool_hits" p.Sqp_storage.Stats.pool_hits;
    count "pool_misses" p.Sqp_storage.Stats.pool_misses;
    count "spans" (List.length spans);
    count "spans_dropped" (Obs.Trace.dropped tracer);
  ]
  (* Instruments registered by earlier benches in this process read 0
     after the reset; only what the run touched is recorded. *)
  @ List.concat_map
      (fun (name, reading) ->
        match reading with
        | Obs.Metrics.Counter_v 0 | Obs.Metrics.Gauge_v 0
        | Obs.Metrics.Histogram_v { count = 0; _ } -> []
        | Obs.Metrics.Counter_v n | Obs.Metrics.Gauge_v n -> [ count name n ]
        | Obs.Metrics.Histogram_v { count = n; sum; _ } ->
            [ count (name ^ ".count") n; count (name ^ ".sum") sum ])
      (Obs.Metrics.snapshot (Obs.Metrics.global ()))
