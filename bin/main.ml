(* sqp: command-line front end for the reproduction.  Each subcommand
   regenerates one of the paper's figures or experiment tables. *)

open Cmdliner
module Srv = Sqp_server

let dataset_conv =
  let parse = function
    | "U" | "u" | "uniform" -> Ok Sqp_workload.Datagen.Uniform
    | "C" | "c" | "clustered" -> Ok Sqp_workload.Datagen.Clustered
    | "D" | "d" | "diagonal" -> Ok Sqp_workload.Datagen.Diagonal
    | s -> Error (`Msg (Printf.sprintf "unknown dataset %S (use U, C or D)" s))
  in
  let print fmt ds =
    Format.pp_print_string fmt (Sqp_workload.Datagen.dataset_name ds)
  in
  Arg.conv (parse, print)

let dataset_arg =
  Arg.(
    value
    & opt dataset_conv Sqp_workload.Datagen.Uniform
    & info [ "d"; "dataset" ] ~docv:"DATASET"
        ~doc:"Dataset: U (uniform), C (clustered) or D (diagonal).")

let all_datasets_arg =
  Arg.(
    value & flag
    & info [ "all" ] ~doc:"Run for all three datasets (U, C, D).")

let simple name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let with_dataset name doc f =
  let run dataset all =
    if all then
      List.iter f Sqp_workload.Datagen.[ Uniform; Clustered; Diagonal ]
    else f dataset
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ dataset_arg $ all_datasets_arg)

let figures_cmd =
  simple "figures" "Reproduce Figures 1-5 (z order, decomposition, merge)."
    (fun () ->
      Sqp_core.Reports.print_figure1 ();
      Sqp_core.Reports.print_figure2 ();
      Sqp_core.Reports.print_figure3 ();
      Sqp_core.Reports.print_figure4 ();
      Sqp_core.Reports.print_figure5 ())

let figure6_cmd =
  with_dataset "figure6" "Figure 6: page-partition map of the zkd B+-tree."
    (fun ds -> Sqp_core.Reports.print_figure6 ~datasets:[ ds ] ())

let experiment_cmd =
  with_dataset "experiment" "The Section 5.3.2 range-query experiment table."
    Sqp_core.Reports.print_range_experiment

let compare_cmd =
  with_dataset "compare" "zkd B+-tree vs kd tree vs linear scan."
    Sqp_core.Reports.print_structure_comparison

let strategies_cmd =
  with_dataset "strategies" "Search-strategy ablation (merge/lazy/bigmin/scan)."
    Sqp_core.Reports.print_strategy_comparison

let policies_cmd =
  with_dataset "policies" "Buffer-replacement policies under the merge workload."
    Sqp_core.Reports.print_buffer_policies

let partial_match_cmd =
  simple "partial-match" "Partial-match page accesses vs N (predicted N^0.5)."
    Sqp_core.Reports.print_partial_match

let euv_cmd =
  simple "euv" "E(U,V) table: border sensitivity and cyclicity (Section 5.1)."
    Sqp_core.Reports.print_euv_table

let coarsen_cmd =
  simple "coarsen" "The coarsening optimization trade-off (Section 5.1)."
    Sqp_core.Reports.print_coarsening

let proximity_cmd =
  simple "proximity" "Proximity preservation of z order (Section 5.2)."
    Sqp_core.Reports.print_proximity

let join_cmd =
  simple "join" "Spatial join: merge vs nested loop (Section 4)."
    Sqp_core.Reports.print_spatial_join

let overlay_cmd =
  simple "overlay" "Overlay on elements vs grid (Section 6)."
    Sqp_core.Reports.print_overlay_scaling

let ccl_cmd =
  simple "ccl" "Connected component labelling on elements (Section 6)."
    Sqp_core.Reports.print_ccl

let interference_cmd =
  simple "interference" "CAD interference detection (Section 6)."
    Sqp_core.Reports.print_interference

let fill_cmd =
  with_dataset "fill" "Leaf fill-factor ablation (bulk-load occupancy)."
    Sqp_core.Reports.print_fill_factor

let three_d_cmd =
  simple "three-d" "3d range and partial-match experiment (higher-dim follow-up)."
    Sqp_core.Reports.print_3d_experiment

let curves_cmd =
  simple "curves" "Curve-clustering ablation: z vs Hilbert vs row-major."
    Sqp_core.Reports.print_curve_comparison

let object_join_cmd =
  simple "object-join" "Disk-resident spatial join over B+-tree leaf chains."
    Sqp_core.Reports.print_object_join

let all_cmd = simple "all" "Every figure and table, in paper order."
    Sqp_core.Reports.run_all

(* The observability showcase: run the seeded stored-relation spatial
   join through the plan layer, optionally under EXPLAIN ANALYZE and/or
   a collecting tracer exported as a Chrome trace. *)
let query_cmd =
  let module W = Sqp_workload in
  let module R = Sqp_relalg in
  let module Obs = Sqp_obs in
  let analyze_arg =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "EXPLAIN ANALYZE: execute under measurement and print the \
             operator tree annotated with actual rows, wall time and page \
             accesses per node, then the ambient metrics registry.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record spans while running and write them to $(docv) as a \
             Chrome trace_event file (open at chrome://tracing or \
             ui.perfetto.dev).")
  in
  let parallelism_arg =
    Arg.(
      value & opt int 1
      & info [ "p"; "parallelism" ] ~docv:"N"
          ~doc:
            "Execution streams: with 2 or more, the spatial join runs \
             z-sharded over a domain pool and the analysis includes a \
             per-shard work table.")
  in
  let costs_arg =
    Arg.(
      value & flag
      & info [ "costs" ]
          ~doc:
            "Cost-based mode: run the ANALYZE statistics pass first, print \
             the statistics-free EXPLAIN (before), then the cost-based \
             EXPLAIN with the predicted cost column (after) and the join \
             decisions.  With $(b,--analyze), the measured tree gains the \
             predicted-vs-actual table.")
  in
  let run analyze costs trace parallelism =
    let module O = Sqp_optimizer in
    let wk = W.Seeded.standard () in
    let tracer =
      match trace with
      | None -> None
      | Some path ->
          let t = Obs.Trace.create ~capacity:8192 Obs.Trace.Collect in
          Obs.Trace.set_global t;
          Some (t, path)
    in
    let plan =
      R.Plan.optimize
        (R.Query.stored_overlap_plan ~options:wk.W.Seeded.decompose_options
           wk.W.Seeded.space wk.W.Seeded.left_objects wk.W.Seeded.right_objects)
    in
    let stats_plan =
      (* [None]: statistics-free, exactly the old behavior.  [Some]: the
         ANALYZE pass over the same catalog the server would build, then
         the cost-based rewrite of the same plan. *)
      if not costs then None
      else begin
        let cat = Srv.Catalog.of_seeded wk in
        let st = Srv.Catalog.analyze cat in
        print_endline "EXPLAIN before (size heuristic, no statistics):";
        print_string (R.Plan.explain ~parallelism plan);
        print_newline ();
        let chosen, decisions = O.Optimizer.choose_plan st plan in
        print_endline "EXPLAIN after (cost-based, statistics from ANALYZE):";
        print_string (O.Optimizer.explain ~parallelism st chosen);
        List.iter
          (fun (d : O.Optimizer.join_decision) ->
            Printf.printf
              "join %s <> %s: merge %.0f vs nested %.0f work units -> %s%s%s\n"
              d.O.Optimizer.zl d.O.Optimizer.zr d.O.Optimizer.cost_merge
              d.O.Optimizer.cost_nested
              (match d.O.Optimizer.chosen with
              | R.Plan.Merge -> "merge"
              | R.Plan.Nested_loop -> "nested loop")
              (if d.O.Optimizer.commuted then " (inputs commuted)" else "")
              (if
                 d.O.Optimizer.heuristic_would_merge
                 = (d.O.Optimizer.chosen = R.Plan.Merge)
                 && not d.O.Optimizer.commuted
               then ""
               else " [overrides heuristic]"))
          decisions;
        (* Storage recalibration: what ANALYZE measured about the
           front-coded point index, and the page prediction for a
           representative range box before/after the learned density. *)
        (match
           ( Srv.Catalog.page_estimate cat
               ~lo:(Sqp_geom.Box.lo wk.W.Seeded.query_boxes.(0))
               ~hi:(Sqp_geom.Box.hi wk.W.Seeded.query_boxes.(0)),
             wk.W.Seeded.query_boxes.(0) )
         with
        | Some pe, box ->
            Printf.printf
              "storage: P packed %d rows into %d front-coded pages (%.1f \
               entries/page, %.2fx vs fixed-width's %d pages)\n"
              pe.Srv.Catalog.rows pe.Srv.Catalog.compressed_pages
              pe.Srv.Catalog.entries_per_page pe.Srv.Catalog.compression_ratio
              pe.Srv.Catalog.fixed_pages;
            Printf.printf
              "range pages for box [%s]-[%s]: %.1f predicted fixed-width, \
               %.1f at the learned density\n"
              (String.concat ","
                 (Array.to_list
                    (Array.map string_of_int (Sqp_geom.Box.lo box))))
              (String.concat ","
                 (Array.to_list
                    (Array.map string_of_int (Sqp_geom.Box.hi box))))
              pe.Srv.Catalog.fixed_predicted pe.Srv.Catalog.learned_predicted
        | None, _ -> ());
        print_newline ();
        Some (st, chosen)
      end
    in
    let plan = match stats_plan with Some (_, p) -> p | None -> plan in
    if analyze then begin
      (match stats_plan with
      | None -> print_string (R.Plan.explain_analyze ~parallelism plan)
      | Some (st, _) ->
          let a = R.Plan.run_analyze ~parallelism plan in
          print_string (R.Plan.render_analysis a);
          print_newline ();
          print_string
            (O.Optimizer.render_comparison
               (O.Optimizer.compare_analysis st plan a.R.Plan.report)));
      print_newline ();
      print_endline "Ambient metrics:";
      print_string
        (Sqp_obs.Metrics.to_text
           (Sqp_obs.Metrics.snapshot (Sqp_obs.Metrics.global ())))
    end
    else begin
      (match stats_plan with
      | None ->
          print_string (R.Plan.explain ~parallelism plan);
          print_newline ()
      | Some _ -> () (* both EXPLAINs already printed above *));
      Format.printf "%a@." R.Relation.pp (R.Plan.run ~parallelism plan)
    end;
    match tracer with
    | None -> ()
    | Some (t, path) ->
        Obs.Trace.write_chrome path (Obs.Trace.spans t);
        Obs.Trace.set_global Obs.Trace.null;
        Printf.printf "wrote %d spans to %s\n" (List.length (Obs.Trace.spans t)) path
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "The Section 4 overlap query over paged (stored) relations, with \
          optional cost-based optimization ($(b,--costs)), EXPLAIN ANALYZE \
          and Chrome-trace output.")
    Term.(const run $ analyze_arg $ costs_arg $ trace_arg $ parallelism_arg)

(* Offline store checking and salvage over the crash-safe page store. *)
let fsck_cmd =
  let module S = Sqp_storage in
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH" ~doc:"The store file to check.")
  in
  let salvage_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "salvage" ] ~docv:"DEST"
          ~doc:
            "Rebuild a best-effort copy of the store at $(docv) from every \
             page whose checksum still verifies.")
  in
  let make_demo_arg =
    Arg.(
      value & flag
      & info [ "make-demo" ]
          ~doc:
            "First write a small demo store at PATH and flip one byte in \
             it, so the report (and salvage) have something to find.  \
             Overwrites PATH.")
  in
  let make_demo path =
    let fp = S.File_pager.create ~page_bytes:128 path in
    let ids =
      List.init 8 (fun i -> S.File_pager.alloc fp (Bytes.make 32 (Char.chr (65 + i))))
    in
    S.File_pager.free fp (List.nth ids 3);
    S.File_pager.close fp;
    (* Flip a payload byte of slot 2; its checksum no longer verifies. *)
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
    ignore (Unix.lseek fd ((2 * 128) + 16) Unix.SEEK_SET);
    ignore (Unix.write fd (Bytes.make 1 '\255') 0 1);
    Unix.close fd;
    Printf.printf "wrote a demo store with one corrupted page to %s\n" path
  in
  (* When the store is a {!Sqp_btree.Persist} index dump, report its
     format version and validate the page structure too — for v3 this
     walks every front-coded run's restart points. *)
  let index_report path =
    match Sqp_btree.Persist.inspect ~path () with
    | exception _ -> true  (* not an index dump (or unreadable): page-store report stands alone *)
    | info ->
        let module P = Sqp_btree.Persist in
        Printf.printf
          "index: format v%d, %dd space (depth %d), %d entries on %d data \
           page(s)%s\n"
          info.P.version info.P.dims info.P.depth info.P.count
          info.P.data_pages
          (match info.P.page_budget with
          | Some b -> Printf.sprintf ", page budget %dB" b
          | None -> "");
        if info.P.found <> info.P.count then
          Printf.printf "index: only %d of %d entries decode\n" info.P.found
            info.P.count;
        List.iter
          (fun (slot, what) -> Printf.printf "index: page %d: %s\n" slot what)
          (List.rev info.P.page_errors);
        info.P.page_errors = [] && info.P.found = info.P.count
  in
  let run path salvage demo =
    if demo then make_demo path;
    match S.Fsck.scan path with
    | exception S.Storage_error.Io_error { error; _ } ->
        Printf.eprintf "fsck: cannot read %s: %s\n" path (Unix.error_message error);
        Stdlib.exit 1
    | report ->
        print_string (S.Fsck.to_text report);
        let index_ok = index_report path in
        (match salvage with
        | None -> ()
        | Some dest ->
            let salvaged, lost = S.Fsck.salvage ~src:path ~dest () in
            Printf.printf "salvage: recovered %d page(s) into %s, lost %d\n" salvaged dest
              lost);
        if not (S.Fsck.clean report && index_ok) then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check a page-store file: header, per-page checksums, free list, \
          live counts and any pending journal.  Exits 1 if problems are \
          found; $(b,--salvage) rebuilds what survives.")
    Term.(const run $ path_arg $ salvage_arg $ make_demo_arg)

(* {1 Network serving}

   [serve] exposes the seeded catalog over the wire protocol; [shell]
   is the interactive/scripted client; [bench-net] a closed-loop
   loopback load generator.  Together they are the "database server
   interface" deployment mode of the serving tier (lib/server). *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind or connect to.")

let port_arg ~default =
  Arg.(
    value & opt int default
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (serve: 0 picks one).")

let serve_cmd =
  let parallelism_arg =
    Arg.(
      value & opt int 2
      & info [ "p"; "parallelism" ] ~docv:"N"
          ~doc:"Domains of the shared execution pool.")
  in
  let in_flight_arg =
    Arg.(
      value & opt int 8
      & info [ "max-in-flight" ] ~docv:"N"
          ~doc:"Concurrent query executions before requests queue.")
  in
  let queue_arg =
    Arg.(
      value & opt int 32
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Queued requests beyond that before load is shed.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline when the client sends none.")
  in
  let points_arg =
    Arg.(
      value & opt int 5000
      & info [ "points" ] ~docv:"N" ~doc:"Points in the seeded catalog.")
  in
  let objects_arg =
    Arg.(
      value & opt int 48
      & info [ "objects" ] ~docv:"N"
          ~doc:"Objects per spatial-join side in the seeded catalog.")
  in
  let no_decompose_cache_arg =
    Arg.(
      value & flag
      & info [ "no-decompose-cache" ]
          ~doc:
            "Disable the LRU memo cache of box decompositions (escape hatch; \
             every query then re-decomposes its box).")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 0.
      & info [ "idle-timeout-s" ] ~docv:"S"
          ~doc:
            "Close sessions that start no frame for $(docv) seconds (0 = \
             never; reaps leaked connections).")
  in
  let frame_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "frame-timeout-s" ] ~docv:"S"
          ~doc:
            "Bound reading one frame's payload and writing one response (0 = \
             unbounded) — the slow-loris guard.")
  in
  let shard_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"SPEC"
          ~doc:
            "Serve one cluster shard's z-range slice of the seeded catalog: \
             $(i,I/N) (the I-th of N even ranges, 0-based — what $(b,sqp \
             route --spawn) uses) or $(i,ZLO:ZHI) (an explicit inclusive z \
             interval).")
  in
  let live_empty_arg =
    Arg.(
      value & flag
      & info [ "live-empty" ]
          ~doc:
            "Start the live table empty instead of pre-seeded — how a \
             rebalance target begins life (rows arrive via the router's \
             chunked copy).")
  in
  let run host port parallelism max_in_flight max_queue default_deadline_ms
      n_points n_objects no_decompose_cache idle_timeout_s frame_timeout_s
      shard_spec live_empty =
    if no_decompose_cache then Sqp_zorder.Decompose.set_cache_enabled false;
    let wk = Sqp_workload.Seeded.standard ~n_points ~n_objects () in
    let shard =
      Option.map
        (fun spec ->
          let fail () =
            Printf.eprintf
              "sqp serve: bad --shard %S (want I/N or ZLO:ZHI)\n" spec;
            Stdlib.exit 2
          in
          match String.split_on_char '/' spec with
          | [ i; n ] -> (
              match (int_of_string_opt i, int_of_string_opt n) with
              | Some i, Some n when n > 0 && i >= 0 && i < n ->
                  List.nth
                    (Srv.Shard_map.even_ranges wk.Sqp_workload.Seeded.space n)
                    i
              | _ -> fail ())
          | [ _ ] -> (
              match String.split_on_char ':' spec with
              | [ lo; hi ] -> (
                  match (int_of_string_opt lo, int_of_string_opt hi) with
                  | Some lo, Some hi when lo <= hi -> (lo, hi)
                  | _ -> fail ())
              | _ -> fail ())
          | _ -> fail ())
        shard_spec
    in
    let catalog = Srv.Catalog.of_seeded ?shard ~live_empty wk in
    let config =
      {
        Srv.Server.default_config with
        host;
        port;
        parallelism;
        max_in_flight;
        max_queue;
        default_deadline_ms;
        idle_timeout_s = (if idle_timeout_s > 0. then Some idle_timeout_s else None);
        frame_timeout_s =
          (if frame_timeout_s > 0. then Some frame_timeout_s else None);
      }
    in
    let server = Srv.Server.start ~config catalog in
    (* Machine-parseable bound-port line, first and flushed: orchestrators
       (sqp route --spawn, the cluster tests, CI) parse exactly this. *)
    Printf.printf "SQP_SERVE_PORT=%d\n%!" (Srv.Server.port server);
    Printf.printf
      "sqp serve: listening on %s:%d (parallelism %d, %d in flight, queue %d)\n"
      host (Srv.Server.port server) parallelism max_in_flight max_queue;
    (match Srv.Catalog.shard_range catalog with
    | Some (zlo, zhi) ->
        Printf.printf "shard: z=[%d,%d]%s\n" zlo zhi
          (if live_empty then ", live table empty" else "")
    | None -> ());
    Printf.printf "catalog: %s\n%!"
      (String.concat ", "
         (Srv.Catalog.names catalog
         @ List.map
             (fun n -> n ^ " (live)")
             (Srv.Catalog.live_names catalog)));
    let stop_requested = ref false in
    let on_signal _ = stop_requested := true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    while not !stop_requested do
      Thread.delay 0.05
    done;
    print_endline "sqp serve: draining...";
    Srv.Server.stop server;
    print_endline "sqp serve: drained; final metrics:";
    print_string
      (Sqp_obs.Metrics.to_text
         (Sqp_obs.Metrics.snapshot (Sqp_obs.Metrics.global ())));
    print_endline "sqp serve: bye."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the seeded catalog over the binary wire protocol until \
          SIGTERM/SIGINT, then drain gracefully (in-flight queries finish, \
          new ones are refused) and exit 0.")
    Term.(
      const run $ host_arg $ port_arg ~default:7477 $ parallelism_arg
      $ in_flight_arg $ queue_arg $ deadline_arg $ points_arg $ objects_arg
      $ no_decompose_cache_arg $ idle_timeout_arg $ frame_timeout_arg
      $ shard_arg $ live_empty_arg)

(* The canonical join plan, as a client would send it over the wire. *)
let join_wire_plan =
  Sqp_relalg.Wire.(
    Project
      ( [ "rid"; "sid" ],
        Spatial_join { zl = "zr"; zr = "zs"; left = Scan "R"; right = Scan "S" } ))

let shell_cmd =
  let module R = Sqp_relalg in
  let commands_arg =
    Arg.(
      value & opt_all string []
      & info [ "c"; "command" ] ~docv:"CMD"
          ~doc:
            "Run $(docv) and exit (repeatable, in order) instead of reading \
             commands interactively.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Deadline shipped with each query.")
  in
  let help_text =
    "commands:\n\
    \  range X1 Y1 X2 Y2   points inside the box (inclusive corners)\n\
    \  join                candidate overlapping (rid, sid) pairs of R and S\n\
    \  explain join        the join's optimized plan, without executing\n\
    \  analyze join        EXPLAIN ANALYZE of the join (executes remotely)\n\
    \  analyze             rebuild server statistics (the ANALYZE pass);\n\
    \                      afterwards plans are cost-based and EXPLAIN\n\
    \                      gains a predicted-cost column\n\
    \  health              server liveness, catalog and load\n\
    \  insert X Y ID       add point (X, Y) with payload ID to live table L\n\
    \  delete X Y          remove the first live entry at exactly (X, Y)\n\
    \  lrange X1 Y1 X2 Y2  snapshot range query over live table L\n\
    \  create-index        online rebuild of L's packed index (concurrent-safe)\n\
    \  recover             ask a degraded (read-only) server to reopen its\n\
    \                      stores and resume mutations\n\
    \  help                this text\n\
    \  quit                leave"
  in
  let run host port commands deadline_ms =
    let failed = ref false in
    let print_rows rel =
      Format.printf "%a(%d tuples)@." R.Relation.pp rel (R.Relation.cardinality rel)
    in
    (* Any failure — remote or transport — is one diagnostic line; the
       session stays alive so the user can retry or `recover`. *)
    let report = function
      | Ok () -> ()
      | Error e ->
          failed := true;
          Printf.printf "error: %s\n" (Srv.Client.error_to_string e)
    in
    let exec client line =
      match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
      | [] -> true
      | [ "quit" ] | [ "exit" ] -> false
      | [ "help" ] ->
          print_endline help_text;
          true
      | [ "health" ] ->
          report
            (Result.map
               (fun (h : Srv.Protocol.health) ->
                 Printf.printf
                   "%s: %s\n  mode %s; in flight %d, queued %d, served %d\n"
                   (if h.Srv.Protocol.healthy then "healthy" else "UNHEALTHY")
                   h.Srv.Protocol.detail
                   (if h.Srv.Protocol.mode = "" then "unknown"
                    else h.Srv.Protocol.mode)
                   h.Srv.Protocol.in_flight h.Srv.Protocol.queued
                   h.Srv.Protocol.served;
                 if not h.Srv.Protocol.healthy then failed := true)
               (Srv.Client.health client));
          true
      | [ "join" ] ->
          report (Result.map print_rows (Srv.Client.query ?deadline_ms client join_wire_plan));
          true
      | [ "explain"; "join" ] ->
          report
            (Result.map print_string (Srv.Client.explain ?deadline_ms client join_wire_plan));
          true
      | [ "analyze"; "join" ] ->
          report
            (Result.map
               (fun (rendered, rows) ->
                 print_string rendered;
                 print_rows rows)
               (Srv.Client.analyze ?deadline_ms client join_wire_plan));
          true
      | [ "analyze" ] ->
          report
            (Result.map print_string (Srv.Client.refresh_stats ?deadline_ms client));
          true
      | [ "insert"; x; y; id ] -> (
          match (int_of_string_opt x, int_of_string_opt y, int_of_string_opt id) with
          | Some x, Some y, Some id ->
              report
                (Result.map
                   (fun (applied, seq) ->
                     Printf.printf "ack: applied %d, seq %d\n" applied seq)
                   (Srv.Client.insert ?deadline_ms client ~table:"L"
                      [ ([| x; y |], id) ]));
              true
          | _ ->
              failed := true;
              print_endline "insert wants three integers; try: insert 10 20 7";
              true)
      | [ "delete"; x; y ] -> (
          match (int_of_string_opt x, int_of_string_opt y) with
          | Some x, Some y ->
              report
                (Result.map
                   (fun (applied, seq) ->
                     Printf.printf "ack: applied %d, seq %d\n" applied seq)
                   (Srv.Client.delete ?deadline_ms client ~table:"L" [ [| x; y |] ]));
              true
          | _ ->
              failed := true;
              print_endline "delete wants two integers; try: delete 10 20";
              true)
      | [ "lrange"; x1; y1; x2; y2 ] -> (
          match
            (int_of_string_opt x1, int_of_string_opt y1, int_of_string_opt x2,
             int_of_string_opt y2)
          with
          | Some x1, Some y1, Some x2, Some y2 ->
              report
                (Result.map print_rows
                   (Srv.Client.live_range ?deadline_ms client ~table:"L"
                      ~lo:[| min x1 x2; min y1 y2 |]
                      ~hi:[| max x1 x2; max y1 y2 |]));
              true
          | _ ->
              failed := true;
              print_endline "lrange wants four integers; try: lrange 0 0 100 100";
              true)
      | [ "create-index" ] ->
          report
            (Result.map
               (fun (applied, seq) ->
                 Printf.printf "index rebuilt: %d entries at seq %d\n" applied seq)
               (Srv.Client.create_index ?deadline_ms client ~table:"L"));
          true
      | [ "recover" ] ->
          report (Result.map print_endline (Srv.Client.recover client));
          true
      | [ "range"; x1; y1; x2; y2 ] -> (
          match
            (int_of_string_opt x1, int_of_string_opt y1, int_of_string_opt x2,
             int_of_string_opt y2)
          with
          | Some x1, Some y1, Some x2, Some y2 ->
              report
                (Result.map print_rows
                   (Srv.Client.range_search ?deadline_ms client
                      ~lo:[| min x1 x2; min y1 y2 |]
                      ~hi:[| max x1 x2; max y1 y2 |]));
              true
          | _ ->
              failed := true;
              print_endline "range wants four integers; try: range 100 100 300 300";
              true)
      | cmd :: _ ->
          failed := true;
          Printf.printf "unknown command %S (try: help)\n" cmd;
          true
    in
    Srv.Client.with_connect ~host ~port (fun client ->
        if commands <> [] then List.iter (fun c -> ignore (exec client c)) commands
        else begin
          Printf.printf "connected to %s:%d; 'help' lists commands\n%!" host port;
          let rec repl () =
            print_string "sqp> ";
            flush stdout;
            match input_line stdin with
            | line -> if exec client line then repl ()
            | exception End_of_file -> ()
          in
          repl ()
        end);
    if !failed then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:
         "Interactive (or $(b,-c)-scripted) client for a running $(b,sqp \
          serve); exits 1 if any command draws an error.")
    Term.(const run $ host_arg $ port_arg ~default:7477 $ commands_arg $ deadline_arg)

let bench_net_cmd =
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(
      value & opt int 100
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client (closed loop).")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"CI smoke mode: 2 clients x 15 requests.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "faults" ] ~docv:"RATE"
          ~doc:
            "Inject faults into every client socket at $(docv) (0..1): \
             connection resets and EPIPEs at $(docv), EINTRs and delays at \
             $(docv), short reads/writes at 0.2.  The workload gains insert \
             frames, clients retry with idempotency keys, and the summary \
             reports goodput, retries per request and reconnects (written to \
             BENCH_chaos.json by default).")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed of the fault plan (deterministic per seed).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Where to write the summary (default BENCH_server.json, or \
             BENCH_chaos.json under --faults).")
  in
  let run host port clients requests quick faults fault_seed json_path =
    let clients = if quick then 2 else clients in
    let requests = if quick then 15 else requests in
    let json_path =
      match json_path with
      | Some p -> p
      | None -> (
          match faults with
          | Some _ -> "BENCH_chaos.json"
          | None -> "BENCH_server.json")
    in
    (* port 0: self-host an ephemeral server so the bench is one command. *)
    let own_server =
      if port = 0 then
        Some
          (Srv.Server.start
             ~config:{ Srv.Server.default_config with host }
             (Srv.Catalog.of_seeded (Sqp_workload.Seeded.standard ())))
      else None
    in
    let port =
      match own_server with Some s -> Srv.Server.port s | None -> port
    in
    (* Exactly-once differential (self-hosted only): under faults the
       acked insert frames must equal the live table's batch-sequence
       advance — a double-applied retry would break the equation. *)
    let live_seq () =
      match own_server with
      | Some s -> (
          match Srv.Catalog.live (Srv.Server.catalog s) "L" with
          | Some lv -> Some (Sqp_btree.Live.seq lv)
          | None -> None)
      | None -> None
    in
    let seq_before = live_seq () in
    let wrap =
      match faults with
      | None -> None
      | Some rate ->
          let rate = if rate < 0. then 0. else if rate > 1. then 1. else rate in
          Some
            (Srv.Faulty_net.wrap
               (Srv.Faulty_net.seeded ~p_eintr:rate ~p_short:0.2 ~p_delay:rate
                  ~delay_s:0.0005 ~p_reset:rate ~seed:fault_seed ()))
    in
    let wk = Sqp_workload.Seeded.standard () in
    let boxes = wk.Sqp_workload.Seeded.query_boxes in
    let side = Sqp_zorder.Space.side wk.Sqp_workload.Seeded.space in
    let acked_inserts = Atomic.make 0 in
    let retries_total = Atomic.make 0 in
    let reconnects_total = Atomic.make 0 in
    (* Under faults a torn first attempt is routine: give the retry loop
       room.  Without faults keep the old fail-fast behavior. *)
    let max_attempts = match faults with Some _ -> 100 | None -> 4 in
    let latencies_of_client c =
      Srv.Client.with_connect ~host ~port ?wrap ~max_attempts
        ~client_id:((fault_seed * 1000) + c) (fun client ->
          let lat =
            Array.init requests (fun i ->
                let t0 = Unix.gettimeofday () in
                let reply =
                  if faults <> None && i mod 5 = 2 then
                    Result.map
                      (fun (applied, _seq) ->
                        ignore (Atomic.fetch_and_add acked_inserts 1);
                        ignore applied)
                      (Srv.Client.insert client ~table:"L"
                         (List.init 4 (fun j ->
                              let n = (c * 1_000_000) + (i * 100) + j in
                              ( [| n * 7919 mod side; n * 104729 mod side |],
                                900_000_000 + n ))))
                  else if i mod 10 = 9 then
                    Result.map (fun _ -> ())
                      (Srv.Client.query client join_wire_plan)
                  else
                    let box = boxes.(((c * 131) + i) mod Array.length boxes) in
                    Result.map
                      (fun _ -> ())
                      (Srv.Client.range_search client ~lo:(Sqp_geom.Box.lo box)
                         ~hi:(Sqp_geom.Box.hi box))
                in
                (match reply with
                | Ok () -> ()
                | Error e ->
                    Printf.eprintf "bench-net: request failed: %s\n"
                      (Srv.Client.error_to_string e);
                    Stdlib.exit 1);
                Unix.gettimeofday () -. t0)
          in
          ignore (Atomic.fetch_and_add retries_total (Srv.Client.retries client));
          ignore
            (Atomic.fetch_and_add reconnects_total (Srv.Client.reconnects client));
          lat)
    in
    let t0 = Unix.gettimeofday () in
    let results = Array.make clients [||] in
    let threads =
      List.init clients (fun c ->
          Thread.create (fun () -> results.(c) <- latencies_of_client c) ())
    in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let seq_after = live_seq () in
    (match (faults, seq_before, seq_after) with
    | Some _, Some before, Some after ->
        let acked = Atomic.get acked_inserts in
        if after - before <> acked then begin
          Printf.eprintf
            "bench-net: exactly-once violated: %d insert frames acked but the \
             live table advanced %d batches\n"
            acked (after - before);
          Stdlib.exit 1
        end
    | _ -> ());
    (match own_server with Some s -> Srv.Server.stop s | None -> ());
    let latencies = Array.concat (Array.to_list results) in
    Array.sort compare latencies;
    let total = Array.length latencies in
    let pct p = latencies.(min (total - 1) (p * total / 100)) *. 1e3 in
    let throughput = float_of_int total /. wall in
    let retries = Atomic.get retries_total in
    let reconnects = Atomic.get reconnects_total in
    let retries_per_request = float_of_int retries /. float_of_int (max 1 total) in
    (match faults with
    | None ->
        Printf.printf
          "bench-net: %d clients x %d requests in %.2fs (%.0f req/s)\n\
           latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n"
          clients requests wall throughput (pct 50) (pct 90) (pct 99)
          (latencies.(total - 1) *. 1e3)
    | Some rate ->
        Printf.printf
          "bench-net --faults %.3g (seed %d): %d clients x %d requests in %.2fs\n\
           goodput %.0f req/s; %d retries (%.2f/request), %d reconnects; %d \
           insert frames exactly-once\n\
           latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n"
          rate fault_seed clients requests wall throughput retries
          retries_per_request reconnects (Atomic.get acked_inserts) (pct 50)
          (pct 90) (pct 99)
          (latencies.(total - 1) *. 1e3));
    let oc = open_out json_path in
    (match faults with
    | None ->
        Printf.fprintf oc
          "{\n\
          \  \"benchmark\": \"server_closed_loop\",\n\
          \  \"clients\": %d,\n\
          \  \"requests_per_client\": %d,\n\
          \  \"total_requests\": %d,\n\
          \  \"wall_seconds\": %.4f,\n\
          \  \"throughput_rps\": %.1f,\n\
          \  \"latency_ms\": { \"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, \
           \"max\": %.3f }\n\
           }\n"
          clients requests total wall throughput (pct 50) (pct 90) (pct 99)
          (latencies.(total - 1) *. 1e3)
    | Some rate ->
        Printf.fprintf oc
          "{\n\
          \  \"benchmark\": \"server_chaos_closed_loop\",\n\
          \  \"fault_rate\": %.4f,\n\
          \  \"fault_seed\": %d,\n\
          \  \"clients\": %d,\n\
          \  \"requests_per_client\": %d,\n\
          \  \"total_requests\": %d,\n\
          \  \"wall_seconds\": %.4f,\n\
          \  \"goodput_rps\": %.1f,\n\
          \  \"retries\": %d,\n\
          \  \"retries_per_request\": %.3f,\n\
          \  \"reconnects\": %d,\n\
          \  \"insert_frames_acked\": %d,\n\
          \  \"latency_ms\": { \"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, \
           \"max\": %.3f }\n\
           }\n"
          rate fault_seed clients requests total wall throughput retries
          retries_per_request reconnects (Atomic.get acked_inserts) (pct 50)
          (pct 90) (pct 99)
          (latencies.(total - 1) *. 1e3));
    close_out oc;
    Printf.printf "wrote %s\n" json_path
  in
  Cmd.v
    (Cmd.info "bench-net"
       ~doc:
         "Closed-loop loopback benchmark against $(b,sqp serve) (or a \
          self-hosted ephemeral server with --port 0); writes \
          BENCH_server.json — or, with $(b,--faults), a chaos run with \
          client-side fault injection, exactly-once retries and \
          BENCH_chaos.json.")
    Term.(
      const run $ host_arg $ port_arg ~default:0 $ clients_arg $ requests_arg
      $ quick_arg $ faults_arg $ fault_seed_arg $ json_arg)

(* Mixed ingest benchmark: writer threads stream insert/delete batches
   into the live table while reader threads run snapshot range queries
   against it — sustained write throughput plus read-latency percentiles
   under write pressure, the serving-tier counterpart of the
   differential torture suite. *)
let bench_ingest_cmd =
  let module Rng = Sqp_workload.Rng in
  let writers_arg =
    Arg.(
      value & opt int 2
      & info [ "writers" ] ~docv:"N" ~doc:"Concurrent writer connections.")
  in
  let readers_arg =
    Arg.(
      value & opt int 2
      & info [ "readers" ] ~docv:"N"
          ~doc:"Concurrent reader connections issuing live range queries.")
  in
  let seconds_arg =
    Arg.(
      value & opt float 5.0
      & info [ "seconds" ] ~docv:"S" ~doc:"Wall-clock duration of the run.")
  in
  let batch_arg =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~docv:"N" ~doc:"Points per insert frame.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"CI smoke mode: 1 second, batches of 16.")
  in
  let json_arg =
    Arg.(
      value & opt string "BENCH_ingest.json"
      & info [ "json" ] ~docv:"FILE" ~doc:"Where to write the summary.")
  in
  let run host port writers readers seconds batch quick json_path =
    let seconds = if quick then 1.0 else seconds in
    let batch = if quick then 16 else batch in
    let own_server =
      if port = 0 then
        Some
          (Srv.Server.start
             ~config:{ Srv.Server.default_config with host }
             (Srv.Catalog.of_seeded (Sqp_workload.Seeded.standard ())))
      else None
    in
    let port =
      match own_server with Some s -> Srv.Server.port s | None -> port
    in
    let wk = Sqp_workload.Seeded.standard () in
    let side = Sqp_zorder.Space.side wk.Sqp_workload.Seeded.space in
    let die e =
      Printf.eprintf "bench-ingest: request failed: %s\n"
        (Srv.Client.error_to_string e);
      Stdlib.exit 1
    in
    let t0 = Unix.gettimeofday () in
    let deadline = t0 +. seconds in
    let ops_applied = Atomic.make 0 in
    let frames_sent = Atomic.make 0 in
    let writer w =
      Srv.Client.with_connect ~host ~port (fun client ->
          let rng = Rng.create ~seed:(1_000 + w) in
          (* a ring of recently inserted points so deletes mostly hit *)
          let recent = Array.make 256 [| 0; 0 |] in
          let inserted = ref 0 in
          let next_id = ref (w * 10_000_000) in
          while Unix.gettimeofday () < deadline do
            let reply =
              if !inserted >= batch && Rng.int rng 4 = 0 then
                Srv.Client.delete client ~table:"L"
                  (List.init (max 1 (batch / 2)) (fun _ ->
                       recent.(Rng.int rng (min !inserted 256))))
              else
                Srv.Client.insert client ~table:"L"
                  (List.init batch (fun _ ->
                       let p = [| Rng.int rng side; Rng.int rng side |] in
                       recent.(!inserted mod 256) <- p;
                       incr inserted;
                       incr next_id;
                       (p, !next_id)))
            in
            match reply with
            | Ok (applied, _seq) ->
                ignore (Atomic.fetch_and_add ops_applied applied);
                Atomic.incr frames_sent
            | Error e -> die e
          done)
    in
    let read_latencies = Array.make (max 1 readers) [] in
    let reader r =
      Srv.Client.with_connect ~host ~port (fun client ->
          let rng = Rng.create ~seed:(2_000 + r) in
          let ext = max 1 (side / 8) in
          let acc = ref [] in
          while Unix.gettimeofday () < deadline do
            let x = Rng.int rng (side - ext) and y = Rng.int rng (side - ext) in
            let q0 = Unix.gettimeofday () in
            (match
               Srv.Client.live_range client ~table:"L" ~lo:[| x; y |]
                 ~hi:[| x + ext - 1; y + ext - 1 |]
             with
            | Ok _ -> acc := (Unix.gettimeofday () -. q0) :: !acc
            | Error e -> die e);
            read_latencies.(r) <- !acc
          done)
    in
    let threads =
      List.init writers (fun w -> Thread.create writer w)
      @ List.init readers (fun r -> Thread.create reader r)
    in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    (match own_server with Some s -> Srv.Server.stop s | None -> ());
    let ops = Atomic.get ops_applied in
    let throughput = float_of_int ops /. wall in
    let latencies =
      Array.of_list (List.concat (Array.to_list read_latencies))
    in
    Array.sort compare latencies;
    let reads = Array.length latencies in
    let pct p =
      if reads = 0 then 0.0
      else latencies.(min (reads - 1) (p * reads / 100)) *. 1e3
    in
    let lat_max = if reads = 0 then 0.0 else latencies.(reads - 1) *. 1e3 in
    Printf.printf
      "bench-ingest: %d writers, %d readers for %.2fs\n\
       writes: %d ops applied in %d frames (%.0f ops/s sustained)\n\
       reads:  %d live range queries; latency ms: p50 %.2f  p90 %.2f  p99 %.2f  \
       max %.2f\n"
      writers readers wall ops (Atomic.get frames_sent) throughput reads (pct 50)
      (pct 90) (pct 99) lat_max;
    let oc = open_out json_path in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"live_ingest_mixed\",\n\
      \  \"writers\": %d,\n\
      \  \"readers\": %d,\n\
      \  \"batch\": %d,\n\
      \  \"wall_seconds\": %.4f,\n\
      \  \"write_ops_applied\": %d,\n\
      \  \"write_frames\": %d,\n\
      \  \"write_ops_per_s\": %.1f,\n\
      \  \"read_requests\": %d,\n\
      \  \"read_latency_ms\": { \"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, \
       \"max\": %.3f }\n\
       }\n"
      writers readers batch wall ops (Atomic.get frames_sent) throughput reads
      (pct 50) (pct 90) (pct 99) lat_max;
    close_out oc;
    Printf.printf "wrote %s\n" json_path
  in
  Cmd.v
    (Cmd.info "bench-ingest"
       ~doc:
         "Mixed-workload ingest benchmark against the live table of $(b,sqp \
          serve) (or a self-hosted ephemeral server with --port 0): sustained \
          write throughput under concurrent snapshot reads; writes \
          BENCH_ingest.json.")
    Term.(
      const run $ host_arg $ port_arg ~default:0 $ writers_arg $ readers_arg
      $ seconds_arg $ batch_arg $ quick_arg $ json_arg)

(* Optimizer benchmark: for each seeded workload, time the plan the
   cost-based optimizer chooses against every forced alternative (and
   against the statistics-free size heuristic), and write the table to
   BENCH_optimizer.json.  The invariants the JSON records — chosen never
   slower than the worst alternative, and strictly better than the
   heuristic somewhere — are what docs/COST_MODEL.md's calibration
   section points at. *)
let bench_optimizer_cmd =
  let module R = Sqp_relalg in
  let module W = Sqp_workload in
  let module O = Sqp_optimizer in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"CI smoke mode: 3 timing repetitions instead of 9.")
  in
  let json_arg =
    Arg.(
      value & opt string "BENCH_optimizer.json"
      & info [ "json" ] ~docv:"FILE" ~doc:"Where to write the results.")
  in
  let rec force impl plan =
    match plan with
    | R.Plan.Spatial_join { zl; zr; left; right; impl = _ } ->
        R.Plan.Spatial_join
          { zl; zr; left = force impl left; right = force impl right; impl = Some impl }
    | R.Plan.Select (p, t) -> R.Plan.Select (p, force impl t)
    | R.Plan.Project (ns, t) -> R.Plan.Project (ns, force impl t)
    | R.Plan.Project_all (ns, t) -> R.Plan.Project_all (ns, force impl t)
    | R.Plan.Rename (rs, t) -> R.Plan.Rename (rs, force impl t)
    | R.Plan.Sort (ns, t) -> R.Plan.Sort (ns, force impl t)
    | R.Plan.Natural_join (a, b) -> R.Plan.Natural_join (force impl a, force impl b)
    | R.Plan.Product (a, b) -> R.Plan.Product (force impl a, force impl b)
    | R.Plan.Union (a, b) -> R.Plan.Union (force impl a, force impl b)
    | (R.Plan.Scan _ | R.Plan.Scan_stored _) as leaf -> leaf
  in
  let run quick json_path =
    let reps = if quick then 3 else 9 in
    let median_ms f =
      ignore (f ()) (* warm caches (buffer pools, decompose memo) *);
      let samples =
        List.init reps (fun _ ->
            let t0 = Unix.gettimeofday () in
            ignore (f ());
            (Unix.gettimeofday () -. t0) *. 1e3)
      in
      List.nth (List.sort compare samples) (reps / 2)
    in
    let impl_name = function
      | R.Plan.Merge -> "merge"
      | R.Plan.Nested_loop -> "nested_loop"
    in
    (* One join workload: the chosen plan vs both forced implementations
       vs the statistics-free heuristic, all over the same catalog. *)
    let join_workload name (wk : W.Seeded.t) =
      let cat = Srv.Catalog.of_seeded wk in
      let st = Srv.Catalog.analyze cat in
      let plan = R.Plan.optimize (Srv.Catalog.overlap_plan cat) in
      let chosen_plan, decisions = O.Optimizer.choose_plan st plan in
      let d = List.hd decisions in
      let alts =
        [
          ("forced merge", force R.Plan.Merge plan);
          ("forced nested_loop", force R.Plan.Nested_loop plan);
          ("heuristic", plan);
        ]
      in
      let timed =
        List.map (fun (label, p) -> (label, median_ms (fun () -> R.Plan.run p))) alts
      in
      let chosen_ms = median_ms (fun () -> R.Plan.run chosen_plan) in
      let heuristic_ms = List.assoc "heuristic" timed in
      let worst_ms = List.fold_left (fun a (_, ms) -> max a ms) 0.0 timed in
      Printf.printf
        "%s: %.0fx%.0f rows; chosen %s%s %.3f ms | %s | heuristic would %s\n"
        name d.O.Optimizer.left_rows d.O.Optimizer.right_rows
        (impl_name d.O.Optimizer.chosen)
        (if d.O.Optimizer.commuted then " (commuted)" else "")
        chosen_ms
        (String.concat " | "
           (List.map (fun (l, ms) -> Printf.sprintf "%s %.3f ms" l ms) timed))
        (if d.O.Optimizer.heuristic_would_merge then "merge" else "nested_loop");
      Printf.sprintf
        "    { \"workload\": %S,\n\
        \      \"left_rows\": %.0f, \"right_rows\": %.0f,\n\
        \      \"chosen\": { \"impl\": %S, \"commuted\": %b, \"ms\": %.4f },\n\
        \      \"alternatives\": [ %s ],\n\
        \      \"heuristic_impl\": %S,\n\
        \      \"chosen_not_slower_than_worst\": %b,\n\
        \      \"beats_heuristic\": %b }"
        name d.O.Optimizer.left_rows d.O.Optimizer.right_rows
        (impl_name d.O.Optimizer.chosen)
        d.O.Optimizer.commuted chosen_ms
        (String.concat ", "
           (List.map
              (fun (l, ms) -> Printf.sprintf "{ \"label\": %S, \"ms\": %.4f }" l ms)
              timed))
        (if d.O.Optimizer.heuristic_would_merge then "merge" else "nested_loop")
        (chosen_ms <= worst_ms *. 1.05)
        (chosen_ms < heuristic_ms)
    in
    (* Range workload: per query box, the chosen access path (direct
       plain/skip merge at exact decomposition, or the coarsened plan)
       vs every forced method, summed over the batch. *)
    let range_workload (wk : W.Seeded.t) =
      let cat = Srv.Catalog.of_seeded wk in
      let st = Srv.Catalog.analyze cat in
      ignore st;
      let prep = Srv.Catalog.prepared_points cat in
      let boxes =
        wk.W.Seeded.query
        :: Array.to_list (Array.sub wk.W.Seeded.query_boxes 0 5)
      in
      let sum f =
        median_ms (fun () -> List.iter (fun b -> ignore (f b)) boxes)
      in
      let plain_ms = sum (fun b -> Sqp_core.Range_search.search_plain prep b) in
      let skip_ms = sum (fun b -> Sqp_core.Range_search.search_skip prep b) in
      let plan_ms =
        sum (fun b ->
            R.Plan.run
              (R.Plan.optimize
                 (Srv.Catalog.range_plan cat ~lo:(Sqp_geom.Box.lo b)
                    ~hi:(Sqp_geom.Box.hi b))))
      in
      let chosen_one b =
        let lo = Sqp_geom.Box.lo b and hi = Sqp_geom.Box.hi b in
        match Srv.Catalog.range_access cat ~lo ~hi with
        | Srv.Catalog.Direct best -> (
            match best.O.Cost.method_ with
            | O.Cost.Plain -> ignore (Sqp_core.Range_search.search_plain prep b)
            | O.Cost.Skip -> ignore (Sqp_core.Range_search.search_skip prep b))
        | Srv.Catalog.Planned ->
            ignore
              (R.Plan.run
                 (R.Plan.optimize (Srv.Catalog.range_plan cat ~lo ~hi)))
      in
      let chosen_ms = median_ms (fun () -> List.iter chosen_one boxes) in
      let worst_ms = max plain_ms (max skip_ms plan_ms) in
      Printf.printf
        "range batch (%d boxes): chosen %.3f ms | plain %.3f ms | skip %.3f ms \
         | plan %.3f ms\n"
        (List.length boxes) chosen_ms plain_ms skip_ms plan_ms;
      Printf.sprintf
        "    { \"workload\": \"range_batch\",\n\
        \      \"boxes\": %d,\n\
        \      \"chosen\": { \"impl\": \"per-box cost decision\", \"ms\": %.4f },\n\
        \      \"alternatives\": [ { \"label\": \"plain/exact\", \"ms\": %.4f },\n\
        \                         { \"label\": \"skip/exact\", \"ms\": %.4f },\n\
        \                         { \"label\": \"plan path\", \"ms\": %.4f } ],\n\
        \      \"chosen_not_slower_than_worst\": %b }"
        (List.length boxes) chosen_ms plain_ms skip_ms plan_ms
        (chosen_ms <= worst_ms *. 1.05)
    in
    let big = W.Seeded.standard () in
    (* A join whose element product sits {e under} the 20k size-heuristic
       threshold while both sides are big enough that the merge wins:
       the workload where statistics beat the heuristic. *)
    let small =
      let fits k =
        let wk = W.Seeded.standard ~n_objects:k () in
        let l, r = W.Seeded.join_elements wk in
        let p = List.length l * List.length r in
        if p <= 20_000 && p >= 4_000 then Some wk else None
      in
      List.find_map fits [ 24; 20; 16; 12; 10; 8; 6; 4 ]
    in
    let rows =
      join_workload "overlap_join" big
      :: (match small with
         | Some wk -> [ join_workload "small_join" wk ]
         | None -> [])
      @ [ range_workload big ]
    in
    let oc = open_out json_path in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"optimizer_chosen_vs_forced\",\n\
      \  \"repetitions\": %d,\n\
      \  \"workloads\": [\n%s\n  ]\n}\n"
      reps
      (String.concat ",\n" rows);
    close_out oc;
    Printf.printf "wrote %s\n" json_path
  in
  Cmd.v
    (Cmd.info "bench-optimizer"
       ~doc:
         "Cost-based optimizer benchmark: the chosen plan vs every forced \
          alternative (join implementations, range access paths) on the \
          seeded workloads; writes BENCH_optimizer.json.")
    Term.(const run $ quick_arg $ json_arg)

(* Compression benchmark: front-coded pages against the fixed-width
   baseline at the same byte budget — entries per page, data pages
   touched per range query, on-disk dump sizes (v3 vs v2), and the
   latency guardrail on the range path. *)
let bench_compress_cmd =
  let module W = Sqp_workload in
  let module Zi = Sqp_btree.Zindex in
  let module P = Sqp_btree.Persist in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"CI smoke mode: 3 timing repetitions instead of 9.")
  in
  let json_arg =
    Arg.(
      value & opt string "BENCH_compress.json"
      & info [ "json" ] ~docv:"FILE" ~doc:"Where to write the results.")
  in
  let run quick json_path =
    let reps = if quick then 3 else 9 in
    let median_ms f =
      ignore (f ()) (* warm caches *);
      let samples =
        List.init reps (fun _ ->
            let t0 = Unix.gettimeofday () in
            ignore (f ());
            (Unix.gettimeofday () -. t0) *. 1e3)
      in
      List.nth (List.sort compare samples) (reps / 2)
    in
    let wk = W.Seeded.standard () in
    let space = wk.W.Seeded.space in
    let pts = W.Seeded.tagged_points wk in
    let budget = 512 in
    (* The payload is a row id: charge it as a u32, so the density
       comparison measures the key layouts rather than payload padding. *)
    let comp = Zi.of_points ~page_budget:budget ~value_bytes:4 space pts in
    let fixed =
      Zi.of_points ~page_budget:budget ~value_bytes:4 ~compressed:false space
        pts
    in
    let boxes = Array.to_list wk.W.Seeded.query_boxes in
    (* Differential sweep: identical rows, fewer pages. *)
    let pages_comp = ref 0 and pages_fixed = ref 0 and mismatches = ref 0 in
    List.iter
      (fun b ->
        let rc, sc = Zi.range_search comp b in
        let rf, sf = Zi.range_search fixed b in
        if rc <> rf then incr mismatches;
        pages_comp := !pages_comp + sc.Zi.data_pages;
        pages_fixed := !pages_fixed + sf.Zi.data_pages)
      boxes;
    let cstats =
      match Zi.compression_stats comp with
      | Some c -> c
      | None -> assert false (* built with a budget *)
    in
    let fixed_epp = Zi.avg_leaf_entries fixed in
    (* On-disk dumps of the same index in both formats. *)
    let v3_path = Filename.temp_file "sqp_bench_compress" ".v3" in
    let v2_path = Filename.temp_file "sqp_bench_compress" ".v2" in
    let v3_pages = P.save ~format:P.V3 ~path:v3_path ~encode:string_of_int comp in
    let v2_pages = P.save ~format:P.V2 ~path:v2_path ~encode:string_of_int comp in
    let file_size p = (Unix.stat p).Unix.st_size in
    let v3_bytes = file_size v3_path and v2_bytes = file_size v2_path in
    Sys.remove v3_path;
    Sys.remove v2_path;
    (* Latency guardrail: the compressed layout must not slow the range
       path. *)
    let range_ms idx =
      median_ms (fun () ->
          List.iter (fun b -> ignore (Zi.range_search idx b)) boxes)
    in
    let range_comp_ms = range_ms comp and range_fixed_ms = range_ms fixed in
    Printf.printf
      "leaf density (budget %dB): %.1f entries/page front-coded vs %.1f \
       fixed-width (%.2fx, %d vs %d leaves)\n"
      budget cstats.Zi.avg_entries_per_leaf fixed_epp cstats.Zi.ratio
      cstats.Zi.leaves (Zi.data_page_count fixed);
    Printf.printf
      "range batch (%d boxes): %d data pages compressed vs %d fixed (rows %s); \
       %.3f ms vs %.3f ms\n"
      (List.length boxes) !pages_comp !pages_fixed
      (if !mismatches = 0 then "identical" else
         Printf.sprintf "MISMATCH on %d boxes" !mismatches)
      range_comp_ms range_fixed_ms;
    Printf.printf "on disk: v3 %d pages / %d bytes vs v2 %d pages / %d bytes\n"
      v3_pages v3_bytes v2_pages v2_bytes;
    let oc = open_out json_path in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"compressed_vs_fixed_storage\",\n\
      \  \"repetitions\": %d,\n\
      \  \"page_budget_bytes\": %d,\n\
      \  \"leaf_density\": { \"compressed\": %.2f, \"fixed\": %.2f, \"ratio\": \
       %.3f },\n\
      \  \"leaves\": { \"compressed\": %d, \"fixed\": %d },\n\
      \  \"range_batch\": { \"boxes\": %d, \"data_pages_compressed\": %d,\n\
      \                    \"data_pages_fixed\": %d, \"rows_identical\": %b,\n\
      \                    \"ms_compressed\": %.4f, \"ms_fixed\": %.4f },\n\
      \  \"on_disk\": { \"v3_pages\": %d, \"v3_bytes\": %d, \"v2_pages\": %d, \
       \"v2_bytes\": %d },\n\
      \  \"density_ratio_at_least_1_5\": %b,\n\
      \  \"fewer_pages_than_fixed\": %b\n\
       }\n"
      reps budget cstats.Zi.avg_entries_per_leaf fixed_epp cstats.Zi.ratio
      cstats.Zi.leaves (Zi.data_page_count fixed) (List.length boxes)
      !pages_comp !pages_fixed (!mismatches = 0) range_comp_ms range_fixed_ms
      v3_pages v3_bytes v2_pages v2_bytes
      (cstats.Zi.ratio >= 1.5)
      (!pages_comp < !pages_fixed);
    close_out oc;
    Printf.printf "wrote %s\n" json_path;
    if !mismatches > 0 then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "bench-compress"
       ~doc:
         "Prefix-compression benchmark: front-coded vs fixed-width pages at \
          the same byte budget (leaf density, pages per range query, v3 vs v2 \
          dump sizes, range latencies); writes BENCH_compress.json.")
    Term.(const run $ quick_arg $ json_arg)

(* {1 Cluster: shard spawning, the router daemon, the scaling bench} *)

(* Spawn [sqp serve --port 0 --shard spec] as a child process and parse
   the machine-parseable SQP_SERVE_PORT= line off its stdout.  A drain
   thread keeps reading so the child can never block on a full pipe. *)
type spawned_shard = { pid : int; port : int; drain : Thread.t }

let spawn_shard ?(live_empty = false) ~points ~objects ~spec () =
  let exe = Sys.executable_name in
  let args =
    [ exe; "serve"; "--port"; "0"; "--points"; string_of_int points;
      "--objects"; string_of_int objects; "--shard"; spec ]
    @ (if live_empty then [ "--live-empty" ] else [])
  in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let prefix = "SQP_SERVE_PORT=" in
  let rec find_port () =
    let line = input_line ic in
    if String.length line > String.length prefix
       && String.sub line 0 (String.length prefix) = prefix
    then
      int_of_string
        (String.sub line (String.length prefix)
           (String.length line - String.length prefix))
    else find_port ()
  in
  match find_port () with
  | exception _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith (Printf.sprintf "shard %s failed to report a port" spec)
  | port ->
      let drain =
        Thread.create
          (fun () -> try while true do ignore (input_line ic) done with _ -> ())
          ()
      in
      { pid; port; drain }

let stop_shard s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (try Unix.waitpid [] s.pid with Unix.Unix_error _ -> (s.pid, Unix.WEXITED 0));
  Thread.join s.drain

let spawn_even_shards ?(live_empty = false) ~points ~objects n =
  List.init n (fun i ->
      spawn_shard ~live_empty ~points ~objects
        ~spec:(Printf.sprintf "%d/%d" i n) ())

let route_cmd =
  let spawn_arg =
    Arg.(
      value & opt int 0
      & info [ "spawn" ] ~docv:"N"
          ~doc:
            "Spawn $(docv) local shard processes ($(b,sqp serve --shard I/N)) \
             on ephemeral ports and route over them; they are terminated on \
             shutdown.")
  in
  let shards_arg =
    Arg.(
      value & opt (some string) None
      & info [ "shards" ] ~docv:"LIST"
          ~doc:
            "Comma-separated host:port list of already-running shards, in \
             z-range order; shard i must have been started with $(b,--shard \
             i/N).  Mutually exclusive with $(b,--spawn).")
  in
  let points_arg =
    Arg.(
      value & opt int 5000
      & info [ "points" ] ~docv:"N" ~doc:"Points in each spawned shard's seeds.")
  in
  let objects_arg =
    Arg.(
      value & opt int 48
      & info [ "objects" ] ~docv:"N"
          ~doc:"Objects per join side in each spawned shard's seeds.")
  in
  let run host port spawn shards points objects =
    let wk = Sqp_workload.Seeded.standard ~n_points:points ~n_objects:objects () in
    let space = wk.Sqp_workload.Seeded.space in
    let spawned, endpoints =
      match (spawn, shards) with
      | n, None when n > 0 ->
          let ss = spawn_even_shards ~points ~objects n in
          (ss, List.map (fun s -> ("127.0.0.1", s.port)) ss)
      | 0, Some list ->
          ( [],
            List.map
              (fun hp ->
                match String.rindex_opt hp ':' with
                | Some i ->
                    ( String.sub hp 0 i,
                      int_of_string
                        (String.sub hp (i + 1) (String.length hp - i - 1)) )
                | None ->
                    Printf.eprintf "sqp route: bad endpoint %S\n" hp;
                    Stdlib.exit 2)
              (String.split_on_char ',' list) )
      | _ ->
          Printf.eprintf
            "sqp route: give exactly one of --spawn N or --shards LIST\n";
          Stdlib.exit 2
    in
    let map = Srv.Shard_map.even space endpoints in
    let config = { Sqp_cluster.Router.default_config with host; port } in
    let router =
      try Sqp_cluster.Router.start ~config ~space ~map ()
      with e ->
        List.iter stop_shard spawned;
        raise e
    in
    Printf.printf "SQP_ROUTE_PORT=%d\n%!" (Sqp_cluster.Router.port router);
    Printf.printf "sqp route: listening on %s:%d (epoch %d, %d shards)\n%!" host
      (Sqp_cluster.Router.port router)
      map.Srv.Shard_map.epoch (List.length endpoints);
    List.iteri
      (fun i (e : Srv.Shard_map.entry) ->
        Printf.printf "  shard %d: %s:%d z=[%d,%d]\n%!" i e.host e.port e.zlo
          e.zhi)
      map.Srv.Shard_map.entries;
    let stop_requested = ref false in
    let on_signal _ = stop_requested := true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    while not !stop_requested do
      Thread.delay 0.05
    done;
    print_endline "sqp route: draining...";
    Sqp_cluster.Router.stop router;
    List.iter stop_shard spawned;
    print_endline "sqp route: drained; final metrics:";
    print_string
      (Sqp_obs.Metrics.to_text
         (Sqp_obs.Metrics.snapshot (Sqp_obs.Metrics.global ())));
    print_endline "sqp route: bye."
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the cluster router over N z-range shards (spawned locally or \
          already running), speaking the same wire protocol as a single \
          server, until SIGTERM/SIGINT; then drain, stop spawned shards and \
          exit 0.")
    Term.(
      const run $ host_arg $ port_arg ~default:7478 $ spawn_arg $ shards_arg
      $ points_arg $ objects_arg)

let bench_cluster_cmd =
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"CI smoke mode: fewer points and queries.")
  in
  let json_arg =
    Arg.(
      value & opt string "BENCH_cluster.json"
      & info [ "json" ] ~docv:"FILE" ~doc:"Where to write the summary.")
  in
  let clients_arg =
    Arg.(
      value & opt int 2
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let run quick json_path clients =
    let points = if quick then 4000 else 20000 in
    let objects = 48 in
    let queries = if quick then 60 else 400 in
    let wk = Sqp_workload.Seeded.standard ~n_points:points () in
    let space = wk.Sqp_workload.Seeded.space in
    let boxes = wk.Sqp_workload.Seeded.query_boxes in
    (* Throughput scaling on one box comes from data partitioning, not
       extra cores: the statistics-free (Planned) range path costs
       per-query work proportional to the shard's point count, and the
       box cover prunes the fan-out to the overlapping shards — so no
       Refresh_stats here, on purpose. *)
    let run_one n_shards =
      let shards = spawn_even_shards ~points ~objects n_shards in
      Fun.protect ~finally:(fun () -> List.iter stop_shard shards)
      @@ fun () ->
      let map =
        Srv.Shard_map.even space
          (List.map (fun s -> ("127.0.0.1", s.port)) shards)
      in
      let metrics = Sqp_obs.Metrics.create () in
      let router =
        Sqp_cluster.Router.start
          ~config:{ Sqp_cluster.Router.default_config with port = 0 }
          ~metrics ~space ~map ()
      in
      Fun.protect ~finally:(fun () -> Sqp_cluster.Router.stop router)
      @@ fun () ->
      let rport = Sqp_cluster.Router.port router in
      let per_client = queries / clients in
      let t0 = Unix.gettimeofday () in
      let threads =
        List.init clients (fun c ->
            Thread.create
              (fun () ->
                Srv.Client.with_connect ~port:rport (fun client ->
                    for i = 0 to per_client - 1 do
                      let box = boxes.(((c * 131) + i) mod Array.length boxes) in
                      match
                        Srv.Client.range_search client
                          ~lo:(Sqp_geom.Box.lo box) ~hi:(Sqp_geom.Box.hi box)
                      with
                      | Ok _ -> ()
                      | Error e ->
                          Printf.eprintf "bench-cluster: %s\n"
                            (Srv.Client.error_to_string e);
                          Stdlib.exit 1
                    done))
              ())
      in
      List.iter Thread.join threads;
      let wall = Unix.gettimeofday () -. t0 in
      let total = per_client * clients in
      let jt0 = Unix.gettimeofday () in
      let join_rows =
        Srv.Client.with_connect ~port:rport (fun client ->
            match Srv.Client.query client join_wire_plan with
            | Ok rel -> Sqp_relalg.Relation.cardinality rel
            | Error e ->
                Printf.eprintf "bench-cluster: join failed: %s\n"
                  (Srv.Client.error_to_string e);
                Stdlib.exit 1)
      in
      let join_ms = (Unix.gettimeofday () -. jt0) *. 1e3 in
      let qps = float_of_int total /. wall in
      Printf.printf
        "bench-cluster: %d shard%s: %d range queries in %.2fs (%.1f q/s); \
         join %d rows in %.1fms\n\
         %!"
        n_shards
        (if n_shards = 1 then "" else "s")
        total wall qps join_rows join_ms;
      (n_shards, total, wall, qps, join_rows, join_ms)
    in
    let runs = List.map run_one [ 1; 2; 4 ] in
    let monotonic =
      match runs with
      | [ (_, _, _, q1, _, _); (_, _, _, q2, _, _); (_, _, _, q4, _, _) ] ->
          q1 <= q2 && q2 <= q4
      | _ -> false
    in
    let join_consistent =
      match runs with
      | (_, _, _, _, r1, _) :: rest ->
          List.for_all (fun (_, _, _, _, r, _) -> r = r1) rest
      | [] -> false
    in
    if not join_consistent then begin
      Printf.eprintf
        "bench-cluster: join row counts diverge across shard counts\n";
      Stdlib.exit 1
    end;
    if not monotonic then
      Printf.eprintf
        "bench-cluster: WARNING: throughput not monotonic across 1/2/4 shards\n";
    let oc = open_out json_path in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"cluster_scaling_closed_loop\",\n\
      \  \"quick\": %b,\n\
      \  \"points\": %d,\n\
      \  \"clients\": %d,\n\
      \  \"monotonic_1_2_4\": %b,\n\
      \  \"join_rows_consistent\": %b,\n\
      \  \"runs\": [\n%s\n  ]\n\
       }\n"
      quick points clients monotonic join_consistent
      (String.concat ",\n"
         (List.map
            (fun (n, total, wall, qps, jr, jms) ->
              Printf.sprintf
                "    { \"shards\": %d, \"queries\": %d, \"wall_seconds\": \
                 %.4f, \"throughput_qps\": %.1f, \"join_rows\": %d, \
                 \"join_ms\": %.2f }"
                n total wall qps jr jms)
            runs));
    close_out oc;
    Printf.printf "wrote %s\n" json_path
  in
  Cmd.v
    (Cmd.info "bench-cluster"
       ~doc:
         "Cluster scaling benchmark: the same closed-loop range-query \
          workload against a router over 1, 2 and 4 spawned z-range shards; \
          verifies the spatial join answers identically at every shard count \
          and writes BENCH_cluster.json (throughput must grow with the shard \
          count — per-query work shrinks with the shard's slice).")
    Term.(const run $ quick_arg $ json_arg $ clients_arg)

let () =
  let info =
    Cmd.info "sqp" ~version:"1.0.0"
      ~doc:
        "Reproduction of Orenstein's 'Spatial Query Processing in an \
         Object-Oriented Database System' (SIGMOD 1986)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd; figure6_cmd; experiment_cmd; compare_cmd;
            strategies_cmd; policies_cmd; partial_match_cmd; euv_cmd;
            coarsen_cmd; proximity_cmd; join_cmd; overlay_cmd; ccl_cmd;
            interference_cmd; fill_cmd; three_d_cmd; curves_cmd; object_join_cmd;
            all_cmd; query_cmd; fsck_cmd; serve_cmd; shell_cmd; bench_net_cmd;
            bench_ingest_cmd; bench_optimizer_cmd; bench_compress_cmd;
            route_cmd; bench_cluster_cmd;
          ]))
