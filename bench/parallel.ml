(* The parallel path the server runs: the seeded R-S overlap plan under
   [Plan.run_in_pool], whose z-merge shards over the pool through
   [Par_spatial_join] (a 1-domain pool runs the sequential merge).
   Before timing anything, the sharded join must equal the sequential
   merge (pairs and their order) at every shard depth, and the pooled
   plan must return the sequential plan's rows. *)

module W = Sqp_workload
module R = Sqp_relalg
module Pool = Sqp_parallel.Pool

let run ~quick =
  let wk = W.Seeded.standard () in
  let join_l, join_r = W.Seeded.join_elements wk in
  let plan = Sqp_server.Catalog.overlap_plan (Sqp_server.Catalog.of_seeded wk) in
  let pairs = fst (Sqp_core.Zmerge.pairs join_l join_r) in
  let rows = R.Relation.tuples (R.Plan.run plan) in
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun shard_bits ->
          if fst (Sqp_parallel.Par_spatial_join.pairs ~shard_bits pool join_l join_r) <> pairs
          then
            Row.fail "parallel: sharded join at shard depth %d differs from the sequential merge"
              shard_bits)
        [ 0; 1; 3; 5; 8 ];
      if R.Relation.tuples (R.Plan.run_in_pool pool plan) <> rows then
        Row.fail "parallel: the pooled overlap plan differs from Plan.run");
  let seed = W.Seeded.objects_seed in
  let count = Row.count Row.Plan ~seed "overlap plan" in
  let timed =
    List.map
      (fun domains ->
        ( domains,
          Pool.with_pool ~domains (fun pool ->
              Row.median_ms ~quick (fun () -> R.Plan.run_in_pool pool plan)) ))
      [ 1; 2; 4; 8 ]
  in
  let sequential_ms = List.assoc 1 timed in
  [
    count "left_elements" (List.length join_l);
    count "right_elements" (List.length join_r);
    count "pairs" (List.length pairs);
    count "rows" (List.length rows);
  ]
  @ List.concat_map
      (fun (domains, ms) ->
        let row =
          Row.make Row.Plan ~seed (Printf.sprintf "overlap plan, %d-domain pool" domains)
        in
        [ row "wall" "ms" ms; row "speedup" "x" (sequential_ms /. ms) ])
      timed
