(* Benchmark harness.

   Part 1 regenerates every figure and experiment table from the paper
   (page-access counts, element counts, efficiencies — the units the
   paper reports); part 2 runs Bechamel timing micro-benchmarks over the
   main code paths so wall-clock behaviour can be tracked too.

   Run with: dune exec bench/main.exe *)

module Z = Sqp_zorder
module W = Sqp_workload
module Zindex = Sqp_btree.Zindex

open Bechamel
open Toolkit

(* All fixtures come from the shared seeded workload, so the CLI's
   [query] subcommand and the tests measure the same bytes. *)
let wk = W.Seeded.standard ()

let space = wk.W.Seeded.space

let tagged = W.Seeded.tagged_points wk

let index = Zindex.of_points ~leaf_capacity:20 space tagged

let kd = Sqp_kdtree.Paged_kdtree.build ~page_capacity:20 tagged

let prep = Sqp_core.Range_search.prepare space tagged

let query = wk.W.Seeded.query

let query_lo = Sqp_geom.Box.lo query and query_hi = Sqp_geom.Box.hi query

let bench_zorder =
  Test.make_grouped ~name:"zorder"
    [
      Test.make ~name:"shuffle"
        (Staged.stage (fun () -> Z.Interleave.shuffle space [| 123; 456 |]));
      Test.make ~name:"unshuffle"
        (let z = Z.Interleave.shuffle space [| 123; 456 |] in
         Staged.stage (fun () -> Z.Interleave.unshuffle space z));
      Test.make ~name:"decompose-box"
        (Staged.stage (fun () ->
             Z.Decompose.decompose_box space ~lo:query_lo ~hi:query_hi));
      Test.make ~name:"bigmin"
        (Staged.stage (fun () ->
             Z.Bigmin.bigmin space ~lo:query_lo ~hi:query_hi 123456));
    ]

let bench_range =
  Test.make_grouped ~name:"range-query(5000pts,1/16)"
    [
      Test.make ~name:"zkd-merge"
        (Staged.stage (fun () ->
             Zindex.range_search ~strategy:Zindex.Merge index query));
      Test.make ~name:"zkd-lazy"
        (Staged.stage (fun () ->
             Zindex.range_search ~strategy:Zindex.Lazy_merge index query));
      Test.make ~name:"zkd-bigmin"
        (Staged.stage (fun () ->
             Zindex.range_search ~strategy:Zindex.Bigmin index query));
      Test.make ~name:"zkd-scan"
        (Staged.stage (fun () ->
             Zindex.range_search ~strategy:Zindex.Scan index query));
      Test.make ~name:"paged-kdtree"
        (Staged.stage (fun () -> Sqp_kdtree.Paged_kdtree.range_search kd query));
      Test.make ~name:"mem-merge-plain"
        (Staged.stage (fun () -> Sqp_core.Range_search.search_plain prep query));
      Test.make ~name:"mem-merge-skip"
        (Staged.stage (fun () -> Sqp_core.Range_search.search_skip prep query));
    ]

let join_l, join_r = W.Seeded.join_elements wk

let bench_join =
  Test.make_grouped ~name:"spatial-join(48x48 boxes)"
    [
      Test.make ~name:"z-merge"
        (Staged.stage (fun () -> Sqp_core.Zmerge.pairs join_l join_r));
      Test.make ~name:"nested-loop"
        (Staged.stage (fun () -> Sqp_core.Zmerge.pairs_naive join_l join_r));
    ]

let overlay_space = Z.Space.make ~dims:2 ~depth:8

let overlay_a, overlay_b =
  let s = Z.Space.side overlay_space in
  ( Sqp_core.Overlay.of_shape overlay_space
      (Sqp_geom.Shape.Circle
         (Sqp_geom.Circle.make ~cx:(s / 3) ~cy:(s / 2) ~radius:(s / 4)))
      (),
    Sqp_core.Overlay.of_shape overlay_space
      (Sqp_geom.Shape.Polygon
         (Sqp_geom.Polygon.make
            [
              (s / 8, s / 8);
              (s - (s / 8), s / 4);
              (s - (s / 4), s - (s / 8));
              (s / 4, s - (s / 4));
            ]))
      () )

let grid_a = Sqp_grid.Bitgrid.of_elements overlay_space (List.map fst overlay_a)

let grid_b = Sqp_grid.Bitgrid.of_elements overlay_space (List.map fst overlay_b)

let bench_overlay =
  Test.make_grouped ~name:"overlay(256x256)"
    [
      Test.make ~name:"ag-elements"
        (Staged.stage (fun () ->
             Sqp_core.Overlay.overlay overlay_space overlay_a overlay_b));
      Test.make ~name:"grid-pixels"
        (Staged.stage (fun () -> Sqp_grid.Bitgrid.inter grid_a grid_b));
    ]

let ccl_fixture =
  let s = Z.Space.side overlay_space in
  let g = Sqp_grid.Bitgrid.create ~side:s in
  let rng = W.Rng.create ~seed:3 in
  for _ = 1 to 40 do
    let cx = W.Rng.int rng s and cy = W.Rng.int rng s in
    let r = 1 + W.Rng.int rng (s / 16) in
    for x = max 0 (cx - r) to min (s - 1) (cx + r) do
      for y = max 0 (cy - r) to min (s - 1) (cy + r) do
        if ((x - cx) * (x - cx)) + ((y - cy) * (y - cy)) <= r * r then
          Sqp_grid.Bitgrid.set g x y true
      done
    done
  done;
  (g, Sqp_grid.Bitgrid.to_elements overlay_space g)

let bench_ccl =
  let g, els = ccl_fixture in
  Test.make_grouped ~name:"ccl(256x256,40 blobs)"
    [
      Test.make ~name:"ag-elements"
        (Staged.stage (fun () -> Sqp_core.Ccl.label overlay_space els));
      Test.make ~name:"grid-pixels"
        (Staged.stage (fun () -> Sqp_grid.Bitgrid.connected_components g));
    ]

let kd_mem = Sqp_kdtree.Kdtree.build tagged

let bench_nearest =
  Test.make_grouped ~name:"nearest-neighbour(5000pts)"
    [
      Test.make ~name:"zkd-expanding-box"
        (Staged.stage (fun () -> Zindex.nearest index [| 500; 501 |]));
      Test.make ~name:"kdtree"
        (Staged.stage (fun () -> Sqp_kdtree.Kdtree.nearest kd_mem [| 500; 501 |]));
    ]

let bench_btree =
  Test.make_grouped ~name:"bptree"
    [
      Test.make ~name:"point-lookup"
        (Staged.stage (fun () -> Zindex.find index [| 123; 456 |]));
      Test.make ~name:"bulk-build-5000"
        (Staged.stage (fun () -> Zindex.of_points ~leaf_capacity:20 space tagged));
    ]

(* {1 Parallel execution}

   The parallel path the server runs: the seeded R-S overlap plan under
   [Plan.run_in_pool], whose z-merge shards over the pool through
   [Par_spatial_join] (a 1-domain pool runs the sequential merge). *)

module Pool = Sqp_parallel.Pool
module Par_join = Sqp_parallel.Par_spatial_join
module R = Sqp_relalg

let overlap_plan = Sqp_server.Catalog.overlap_plan (Sqp_server.Catalog.of_seeded wk)

let bench_parallel pool =
  Test.make_grouped ~name:"parallel"
    [
      Test.make ~name:"join-sequential"
        (Staged.stage (fun () -> Sqp_core.Zmerge.pairs join_l join_r));
      Test.make ~name:"join-sharded"
        (Staged.stage (fun () -> Par_join.pairs pool join_l join_r));
    ]

let time_overlap pool =
  ignore (R.Plan.run_in_pool pool overlap_plan) (* warm-up *);
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    ignore (R.Plan.run_in_pool pool overlap_plan);
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let speedup_table () =
  let cores = Domain.recommended_domain_count () in
  let rows =
    List.map
      (fun domains -> (domains, Pool.with_pool ~domains time_overlap))
      [ 1; 2; 4; 8 ]
  in
  let base = List.assoc 1 rows in
  let objects = List.length wk.W.Seeded.left_objects in
  print_newline ();
  Printf.printf
    "Sharded spatial join (%dx%d overlap plan, %d+%d elements, %d core%s)\n"
    objects (List.length wk.W.Seeded.right_objects) (List.length join_l)
    (List.length join_r) cores
    (if cores = 1 then "" else "s");
  print_endline "=====================================================================";
  List.iter
    (fun (domains, seconds) ->
      Printf.printf "  %d domain%s  %8.2f ms   speedup %.2fx\n" domains
        (if domains = 1 then " " else "s")
        (seconds *. 1e3) (base /. seconds))
    rows;
  if cores < 8 then
    Printf.printf
      "  (%d core%s: domains beyond the core count add GC-synchronization\n\
      \   overhead and no parallelism)\n"
      cores
      (if cores = 1 then "" else "s");
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\n  \"workload\": \"sharded spatial join (overlap plan)\",\n  \
     \"left_elements\": %d,\n  \"right_elements\": %d,\n  \"cores\": %d,\n  \
     \"runs\": [\n%s\n  ]\n}\n"
    (List.length join_l) (List.length join_r) cores
    (String.concat ",\n"
       (List.map
          (fun (domains, seconds) ->
            Printf.sprintf
              "    { \"domains\": %d, \"seconds\": %.6f, \"speedup\": %.3f }"
              domains seconds (base /. seconds))
          rows));
  close_out oc;
  print_endline "  -> BENCH_parallel.json"

(* {1 Observability snapshot}

   Run the seeded stored-relation spatial join under a collecting tracer,
   sequentially and sharded over 2 domains, and dump what was measured:
   BENCH_obs.json (per-run page totals + the ambient metrics registry)
   and BENCH_trace.json (a Chrome trace_event file — load it at
   chrome://tracing or ui.perfetto.dev for the flame chart). *)

module Obs = Sqp_obs

let obs_report () =
  let tracer = Obs.Trace.create ~capacity:4096 Obs.Trace.Collect in
  Obs.Trace.set_global tracer;
  Obs.Metrics.reset (Obs.Metrics.global ());
  let plan () =
    R.Query.stored_overlap_plan ~options:wk.W.Seeded.decompose_options space
      wk.W.Seeded.left_objects wk.W.Seeded.right_objects
  in
  let seq = R.Plan.run_analyze (plan ()) in
  let par = R.Plan.run_analyze ~parallelism:2 (plan ()) in
  print_newline ();
  print_endline
    "EXPLAIN ANALYZE: stored 48x48 spatial join, sequential then 2 domains";
  print_endline
    "=====================================================================";
  print_string (R.Plan.render_analysis seq);
  print_newline ();
  print_string (R.Plan.render_analysis par);
  Obs.Trace.write_chrome "BENCH_trace.json" (Obs.Trace.spans tracer);
  let pages (s : Sqp_storage.Stats.t) =
    Printf.sprintf
      "{ \"reads\": %d, \"writes\": %d, \"hits\": %d, \"misses\": %d }"
      s.Sqp_storage.Stats.physical_reads s.Sqp_storage.Stats.physical_writes
      s.Sqp_storage.Stats.pool_hits s.Sqp_storage.Stats.pool_misses
  in
  let run_json (a : R.Plan.analysis) =
    Printf.sprintf
      "{ \"rows\": %d, \"wall_seconds\": %.6f, \"pages\": %s }"
      (R.Relation.cardinality a.R.Plan.result)
      a.R.Plan.wall_seconds
      (pages a.R.Plan.total_pages)
  in
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"stored 48x48 spatial join\",\n\
    \  \"sequential\": %s,\n\
    \  \"parallel2\": %s,\n\
    \  \"spans_collected\": %d,\n\
    \  \"spans_dropped\": %d,\n\
    \  \"metrics\": %s\n\
     }\n"
    (run_json seq) (run_json par)
    (List.length (Obs.Trace.spans tracer))
    (Obs.Trace.dropped tracer)
    (Obs.Metrics.to_json (Obs.Metrics.snapshot (Obs.Metrics.global ())));
  close_out oc;
  print_endline "  -> BENCH_obs.json, BENCH_trace.json";
  Obs.Trace.set_global Obs.Trace.null

(* Fast correctness smoke for CI: the sharded join must agree with the
   sequential merge exactly (pairs and their order) at every shard
   depth, and the overlap plan must return the same rows in a pool as
   sequentially. *)
let quick_smoke () =
  let failures = ref 0 in
  let shard_depths = [ 0; 1; 3; 5; 8 ] in
  let seq_pairs = fst (Sqp_core.Zmerge.pairs join_l join_r) in
  let seq_rows = R.Relation.tuples (R.Plan.run overlap_plan) in
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun shard_bits ->
          let par_pairs = fst (Par_join.pairs ~shard_bits pool join_l join_r) in
          if seq_pairs <> par_pairs then incr failures)
        shard_depths;
      let par_rows = R.Relation.tuples (R.Plan.run_in_pool pool overlap_plan) in
      if seq_rows <> par_rows then incr failures);
  if !failures = 0 then
    Printf.printf
      "quick smoke: parallel = sequential (sharded join at %d shard depths + \
       overlap plan)\n"
      (List.length shard_depths)
  else begin
    Printf.printf "quick smoke: %d mismatches\n" !failures;
    exit 1
  end

(* {1 Packed kernel microbenches}

   Packed (Zpacked/Zkernel) vs reference (Bitstring/list) on the query
   hot paths: z compare (via sorting), the Zmerge containment sweep, both
   range-search merges, and the relational spatial join.  Hand-rolled
   best-of-N wall clock — the two sides run identical workloads, so the
   ratio is the point.  Writes BENCH_kernels.json. *)
let kernels_table ~quick () =
  let reps = if quick then 3 else 7 in
  let n_boxes = if quick then 40 else Array.length wk.W.Seeded.query_boxes in
  (* Best-of-[reps], but at least [min_span] seconds of repetitions:
     sub-millisecond rows need far more than [reps] samples before the
     minimum settles on this (noisy) class of machine. *)
  let min_span = if quick then 0.05 else 0.5 in
  let time_best f =
    ignore (f ()) (* warm-up (also warms the decompose cache) *);
    let best = ref infinity in
    let spent = ref 0.0 and runs = ref 0 in
    while !runs < reps || !spent < min_span do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      best := Float.min !best dt;
      spent := !spent +. dt;
      incr runs
    done;
    !best
  in
  let zs_bits = Array.map (fun (p, _) -> Z.Interleave.shuffle space p) tagged in
  let zs_packed =
    match Z.Zpacked.pack_array zs_bits with
    | Some p -> p
    | None -> failwith "bench: seeded z values must pack"
  in
  let boxes = Array.sub wk.W.Seeded.query_boxes 0 n_boxes in
  let schema_of name z =
    R.Schema.make [ (name, R.Value.TInt); (z, R.Value.TZval) ]
  in
  let rel_of name z items =
    R.Relation.make ~name (schema_of name z)
      (List.map (fun (e, id) -> [| R.Value.Int id; R.Value.Zval e |]) items)
  in
  let join_rel_r = rel_of "rid" "zr" join_l
  and join_rel_s = rel_of "sid" "zs" join_r in
  let rows =
    List.map
      (fun (name, reference, packed) ->
        let reference_seconds = time_best reference in
        let packed_seconds = time_best packed in
        (name, reference_seconds, packed_seconds))
      [
        ( "compare(sort 5000 z values)",
          (fun () -> Array.sort Z.Bitstring.compare (Array.copy zs_bits)),
          fun () -> Array.sort Z.Zpacked.compare (Array.copy zs_packed) );
        ( "merge(zmerge 48x48 join)",
          (fun () -> ignore (Sqp_core.Zmerge.pairs_reference join_l join_r)),
          fun () -> ignore (Sqp_core.Zmerge.pairs join_l join_r) );
        ( Printf.sprintf "range-search-plain(%d boxes)" n_boxes,
          (fun () ->
            Array.iter
              (fun b -> ignore (Sqp_core.Range_search.search_plain_reference prep b))
              boxes),
          fun () ->
            Array.iter
              (fun b -> ignore (Sqp_core.Range_search.search_plain prep b))
              boxes );
        ( Printf.sprintf "range-search-skip(%d boxes)" n_boxes,
          (fun () ->
            Array.iter
              (fun b -> ignore (Sqp_core.Range_search.search_skip_reference prep b))
              boxes),
          fun () ->
            Array.iter
              (fun b -> ignore (Sqp_core.Range_search.search_skip prep b))
              boxes );
        ( "join(spatial-join merge)",
          (fun () ->
            ignore (R.Spatial_join.merge_reference join_rel_r ~zr:"zr" join_rel_s ~zs:"zs")),
          fun () ->
            ignore (R.Spatial_join.merge join_rel_r ~zr:"zr" join_rel_s ~zs:"zs") );
      ]
  in
  print_newline ();
  Printf.printf "Packed z-value kernels vs bitstring reference (best of %d%s)\n"
    reps
    (if Z.Decompose.cache_enabled () then "" else ", decompose cache off");
  print_endline "=====================================================================";
  Printf.printf "  %-34s %12s %12s %9s\n" "kernel" "reference" "packed" "speedup";
  List.iter
    (fun (name, rs, ps) ->
      Printf.printf "  %-34s %9.3f ms %9.3f ms %8.2fx\n" name (rs *. 1e3)
        (ps *. 1e3) (rs /. ps))
    rows;
  let oc = open_out "BENCH_kernels.json" in
  Printf.fprintf oc "{\n  \"benchmark\": \"kernels\",\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (name, rs, ps) ->
            Printf.sprintf
              "    { \"name\": %S, \"reference_seconds\": %.6f, \
               \"packed_seconds\": %.6f, \"speedup\": %.2f }"
              name rs ps (rs /. ps))
          rows));
  close_out oc;
  print_endline "  -> BENCH_kernels.json"

let run_bechamel pool =
  let tests =
    Test.make_grouped ~name:"sqp"
      [
        bench_zorder; bench_range; bench_join; bench_overlay; bench_ccl;
        bench_nearest; bench_btree; bench_parallel pool;
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  print_newline ();
  print_endline "Timing micro-benchmarks (Bechamel, monotonic clock)";
  print_endline "===================================================";
  List.iter
    (fun (name, o) ->
      let estimate =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square o with Some r -> r | None -> nan in
      let pretty v =
        if v >= 1e9 then Printf.sprintf "%8.2f s " (v /. 1e9)
        else if v >= 1e6 then Printf.sprintf "%8.2f ms" (v /. 1e6)
        else if v >= 1e3 then Printf.sprintf "%8.2f us" (v /. 1e3)
        else Printf.sprintf "%8.2f ns" v
      in
      Printf.printf "  %-45s %s/run   (r2 %.3f)\n" name (pretty estimate) r2)
    rows

(* Closed-loop loopback serving benchmark: the same range-query batch
   pushed through lib/server's full path (framing, admission, shared
   pool) at increasing client counts.  Writes BENCH_serving.json.
   [sqp bench-net] is the standalone-CLI flavour of the same loop. *)
let serving_table () =
  let catalog = Sqp_server.Catalog.of_seeded wk in
  let boxes = wk.W.Seeded.query_boxes in
  let requests_per_client = 40 in
  print_newline ();
  print_endline "Network serving (loopback, closed loop, 40 range queries/client)";
  print_endline "================================================================";
  Printf.printf "  %8s %10s %12s %14s\n" "clients" "requests" "req/s" "mean ms";
  let rows =
    List.map
      (fun clients ->
        let metrics = Obs.Metrics.create () in
        let server = Sqp_server.Server.start ~metrics catalog in
        let port = Sqp_server.Server.port server in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init clients (fun c ->
              Thread.create
                (fun () ->
                  Sqp_server.Client.with_connect ~port (fun cl ->
                      for i = 0 to requests_per_client - 1 do
                        let box = boxes.(((c * 97) + i) mod Array.length boxes) in
                        match
                          Sqp_server.Client.range_search cl
                            ~lo:(Sqp_geom.Box.lo box) ~hi:(Sqp_geom.Box.hi box)
                        with
                        | Ok _ -> ()
                        | Error e ->
                            Printf.eprintf "serving bench: %s\n"
                              (Sqp_server.Client.error_to_string e);
                            exit 1
                      done))
                ())
        in
        List.iter Thread.join threads;
        let wall = Unix.gettimeofday () -. t0 in
        Sqp_server.Server.stop server;
        let total = clients * requests_per_client in
        let rps = float_of_int total /. wall in
        let mean_ms = wall /. float_of_int total *. 1e3 *. float_of_int clients in
        Printf.printf "  %8d %10d %12.0f %14.2f\n" clients total rps mean_ms;
        (clients, total, wall, rps, mean_ms))
      [ 1; 2; 4 ]
  in
  let oc = open_out "BENCH_serving.json" in
  Printf.fprintf oc "{\n  \"benchmark\": \"serving_closed_loop\",\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (clients, total, wall, rps, mean_ms) ->
            Printf.sprintf
              "    { \"clients\": %d, \"requests\": %d, \"wall_seconds\": %.4f, \
               \"throughput_rps\": %.1f, \"mean_latency_ms\": %.3f }"
              clients total wall rps mean_ms)
          rows));
  close_out oc;
  print_endline "  -> BENCH_serving.json"

let known_flags = [ "--quick"; "--kernels"; "--obs"; "--no-decompose-cache" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun a -> not (List.mem a known_flags)) args with
  | [] -> ()
  | unknown :: _ ->
      Printf.eprintf "bench: unknown argument %s\nusage: %s [%s]\n" unknown
        Sys.argv.(0)
        (String.concat "] [" known_flags);
      exit 2);
  let has flag = List.mem flag args in
  if has "--no-decompose-cache" then Z.Decompose.set_cache_enabled false;
  if has "--kernels" then kernels_table ~quick:(has "--quick") ()
  else if has "--quick" then quick_smoke ()
  else if has "--obs" then obs_report ()
  else begin
    Sqp_core.Reports.run_all ();
    Pool.with_pool ~domains:2 run_bechamel;
    speedup_table ();
    kernels_table ~quick:false ();
    serving_table ();
    obs_report ()
  end
