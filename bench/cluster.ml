(* Cluster scaling: the same closed-loop range-query workload (2
   clients) against a router over 1, 2 and 4 spawned z-range shards,
   then the overlap join through each router.  The join must answer
   identically at every shard count, and every shard must drain to exit
   0 on SIGTERM (exit 1 otherwise).  The shards are [sqp serve]
   processes of the sqp executable built beside this one. *)

module Srv = Sqp_server
module Shard_process = Sqp_cluster.Shard_process

(* _build/default/bench/main.exe -> _build/default/bin/main.exe *)
let sqp () =
  let exe =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "main.exe")
  in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "cluster: %s not found; build it with dune build bin/main.exe\n" exe;
    exit 2
  end;
  exe

let clients = 2

(* Range throughput, then the join's row count and latency, through a
   router over [shards]. *)
let measure ~space ~boxes ~queries shards =
  let map =
    Srv.Shard_map.even space
      (List.map (fun s -> ("127.0.0.1", Shard_process.port s)) shards)
  in
  let router =
    Sqp_cluster.Router.start
      ~config:{ Sqp_cluster.Router.default_config with port = 0 }
      ~metrics:(Sqp_obs.Metrics.create ()) ~space ~map ()
  in
  Fun.protect ~finally:(fun () -> Sqp_cluster.Router.stop router) @@ fun () ->
  let port = Sqp_cluster.Router.port router in
  let failure = Atomic.make None in
  let per_client = queries / clients in
  let t0 = Unix.gettimeofday () in
  List.init clients (fun c ->
      Thread.create
        (fun () ->
          try
            Srv.Client.with_connect ~port (fun client ->
                for i = 0 to per_client - 1 do
                  let box = boxes.(((c * 131) + i) mod Array.length boxes) in
                  match
                    Srv.Client.range_search client ~lo:(Sqp_geom.Box.lo box)
                      ~hi:(Sqp_geom.Box.hi box)
                  with
                  | Ok _ -> ()
                  | Error e -> Atomic.set failure (Some (Srv.Client.error_to_string e))
                done)
          with e -> Atomic.set failure (Some (Printexc.to_string e)))
        ())
  |> List.iter Thread.join;
  let wall = Unix.gettimeofday () -. t0 in
  let jt0 = Unix.gettimeofday () in
  let join =
    Srv.Client.with_connect ~port (fun client -> Srv.Client.query client Join_plan.wire)
  in
  let join_ms = (Unix.gettimeofday () -. jt0) *. 1e3 in
  match (Atomic.get failure, join) with
  | Some e, _ -> Error e
  | None, Error e -> Error (Srv.Client.error_to_string e)
  | None, Ok rel -> Ok (per_client * clients, wall, Sqp_relalg.Relation.cardinality rel, join_ms)

let run ~quick =
  let sqp = sqp () in
  let points = 20000 and objects = 48 in
  let queries = if quick then 60 else 400 in
  let wk = Sqp_workload.Seeded.standard ~n_points:points ~n_objects:objects () in
  (* Throughput scaling on one box comes from data partitioning, not
     extra cores: the statistics-free (Planned) range path costs
     per-query work proportional to the shard's point count, and the box
     cover prunes the fan-out to the overlapping shards — so no
     Refresh_stats here, on purpose. *)
  let run_one n =
    let shards = Shard_process.spawn_even ~sqp ~points ~objects n in
    let measured =
      try
        measure ~space:wk.Sqp_workload.Seeded.space ~boxes:wk.Sqp_workload.Seeded.query_boxes
          ~queries shards
      with e -> Error (Printexc.to_string e)
    in
    let statuses = List.map Shard_process.stop shards in
    if List.exists (fun st -> st <> Unix.WEXITED 0) statuses then
      Row.fail "cluster: a shard of the %d-shard cluster did not exit 0 on SIGTERM" n;
    match measured with
    | Error e -> Row.fail "cluster: %d shards: %s" n e
    | Ok m -> (n, m)
  in
  let runs = List.map run_one [ 1; 2; 4 ] in
  let join_rows = List.map (fun (_, (_, _, rows, _)) -> rows) runs in
  if List.exists (( <> ) (List.hd join_rows)) join_rows then
    Row.fail "cluster: join row counts diverge across 1/2/4 shards: %s"
      (String.concat "/" (List.map string_of_int join_rows));
  List.concat_map
    (fun (n, (total, wall, rows, join_ms)) ->
      let shards = Printf.sprintf "%d shard%s" n (if n = 1 then "" else "s") in
      let range = Row.make Row.Cluster ~seed:Sqp_workload.Seeded.boxes_seed ("range, " ^ shards) in
      let join = "join, " ^ shards and seed = Sqp_workload.Seeded.objects_seed in
      [
        range "queries" "requests" (float_of_int total);
        range "wall" "s" wall;
        range "throughput" "1/s" (float_of_int total /. wall);
        Row.count Row.Cluster ~seed join "rows" rows;
        Row.make Row.Cluster ~seed join "wall" "ms" join_ms;
      ])
    runs
