(* Properties of the parallel execution layer: the domain pool, the
   z-prefix sharder, per-shard statistics merging, and determinism of the
   parallel drivers across pool sizes and repeated runs. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module W = Sqp_workload
module Par = Sqp_parallel
module Pool = Par.Pool
module Shard = Par.Shard

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Pool} *)

let test_pool_map_order () =
  Pool.with_pool ~domains:3 (fun pool ->
      let input = Array.init 200 Fun.id in
      let out = Pool.map pool (fun x -> x * x) input in
      Array.iteri (fun i y -> check_int "square in order" (i * i) y) out)

let test_pool_single_domain () =
  Pool.with_pool ~domains:1 (fun pool ->
      check_int "no workers" 1 (Pool.domains pool);
      let out = Pool.run pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ] in
      check "sequential degenerate" true (out = [ 1; 2; 3 ]))

let test_pool_empty_batch () =
  Pool.with_pool ~domains:2 (fun pool ->
      check "empty map" true (Pool.map pool Fun.id [||] = [||]);
      check "empty run" true (Pool.run pool [] = []))

exception Boom of int

let test_pool_exception_propagates () =
  Pool.with_pool ~domains:3 (fun pool ->
      (try
         ignore
           (Pool.map pool
              (fun x -> if x = 7 then raise (Boom x) else x)
              (Array.init 20 Fun.id));
         Alcotest.fail "expected Boom"
       with Boom 7 -> ());
      (* The batch drained cleanly: the pool is still usable. *)
      let out = Pool.map pool succ [| 1; 2; 3 |] in
      check "pool survives a failed batch" true (out = [| 2; 3; 4 |]))

let test_pool_many_batches () =
  Pool.with_pool ~domains:4 (fun pool ->
      for batch = 1 to 50 do
        let out = Pool.map pool (fun x -> x + batch) (Array.init 17 Fun.id) in
        Array.iteri (fun i y -> check_int "batch result" (i + batch) y) out
      done)

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 in
  ignore (Pool.map pool Fun.id [| 1 |]);
  Pool.shutdown pool;
  Pool.shutdown pool

let test_pool_invalid () =
  Alcotest.check_raises "domains 0" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0))

(* {1 Sharder} *)

let test_shard_partition () =
  (* The shards tile [0, 2^total - 1] contiguously, in z order, for every
     depth. *)
  List.iter
    (fun (dims, depth) ->
      let space = Z.Space.make ~dims ~depth in
      let total = dims * depth in
      for bits = 0 to min 6 total do
        let shards = Shard.make space ~bits in
        check_int "shard count" (1 lsl bits) (Array.length shards);
        Array.iteri
          (fun i sh ->
            check_int "index" i sh.Shard.index;
            check_int "prefix length" bits (B.length sh.Shard.prefix);
            check_int "zlo length" total (B.length sh.Shard.zlo);
            check_int "zhi length" total (B.length sh.Shard.zhi);
            check_int "zlo as int" sh.Shard.lo (B.to_int sh.Shard.zlo);
            check_int "zhi as int" sh.Shard.hi (B.to_int sh.Shard.zhi);
            if i = 0 then check_int "starts at 0" 0 sh.Shard.lo
            else check_int "contiguous" (shards.(i - 1).Shard.hi + 1) sh.Shard.lo;
            check "non-empty" true (sh.Shard.lo <= sh.Shard.hi))
          shards;
        check_int "ends at 2^total - 1" ((1 lsl total) - 1)
          shards.(Array.length shards - 1).Shard.hi
      done)
    [ (2, 3); (2, 5); (3, 3); (1, 6) ]

let test_shard_of_z_matches_interval () =
  let space = Z.Space.make ~dims:2 ~depth:5 in
  let total = 10 in
  let rng = W.Rng.create ~seed:99 in
  List.iter
    (fun bits ->
      let shards = Shard.make space ~bits in
      for _ = 1 to 500 do
        let z = B.of_int (W.Rng.int rng (1 lsl total)) ~width:total in
        let i = Shard.shard_of_z ~bits z in
        let sh = shards.(i) in
        let zi = B.to_int z in
        check "z in its shard's interval" true (sh.Shard.lo <= zi && zi <= sh.Shard.hi)
      done)
    [ 0; 1; 2; 3; 4; 5; 6 ]

let test_shard_spans_covers () =
  let space = Z.Space.make ~dims:2 ~depth:4 in
  let bits = 3 in
  let shards = Shard.make space ~bits in
  let rng = W.Rng.create ~seed:7 in
  for _ = 1 to 300 do
    let level = W.Rng.int rng 9 (* 0..8 *) in
    let z = B.of_int (W.Rng.int rng (1 lsl level)) ~width:level in
    if level < bits then (
      check "short elements span" true (Shard.spans ~bits z);
      (* A spanner covers exactly the shards extending its prefix:
         2^(bits - level) of them, and is disjoint from the rest. *)
      let covered =
        Array.to_list shards |> List.filter (fun sh -> Shard.covers sh z)
      in
      check_int "covers 2^(bits-level) shards" (1 lsl (bits - level))
        (List.length covered);
      List.iter
        (fun sh -> check "covered shard extends prefix" true
            (B.is_prefix z sh.Shard.prefix))
        covered)
    else (
      check "long elements do not span" false (Shard.spans ~bits z);
      let home = Shard.shard_of_z ~bits z in
      check_int "home shard by prefix" (B.to_int (B.take z bits)) home)
  done

let test_shard_default_bits () =
  let space = Z.Space.make ~dims:2 ~depth:6 (* 12 total bits *) in
  check_int "1 domain -> sequential" 0 (Shard.default_bits space ~domains:1);
  List.iter
    (fun domains ->
      let k = Shard.default_bits space ~domains in
      check "enough shards for 4x fan-out" true (1 lsl k >= min (4 * domains) (1 lsl 12));
      check "within space" true (k <= 12);
      check "within max" true (k <= Shard.max_bits))
    [ 2; 3; 4; 8; 64; 10_000 ];
  let tiny = Z.Space.make ~dims:1 ~depth:2 in
  check "clamped to tiny space" true (Shard.default_bits tiny ~domains:64 <= 2)

(* {1 Stats merging} *)

let pager_workload seed =
  (* A deterministic little pager session, returning its final stats. *)
  let pager = Sqp_storage.Pager.create () in
  let rng = W.Rng.create ~seed in
  let ids = Array.init 30 (fun i -> Sqp_storage.Pager.alloc pager (i * i)) in
  for _ = 1 to 200 do
    let id = ids.(W.Rng.int rng 30) in
    if W.Rng.bool rng then ignore (Sqp_storage.Pager.read pager id)
    else Sqp_storage.Pager.write pager id (W.Rng.int rng 1000)
  done;
  Sqp_storage.Pager.free pager ids.(0);
  Sqp_storage.Stats.snapshot (Sqp_storage.Pager.stats pager)

let test_stats_sum_exact () =
  let module St = Sqp_storage.Stats in
  (* Each parallel task owns its own pager; summed snapshots must equal
     the counters of the same workloads run back to back. *)
  let seeds = Array.init 8 (fun i -> 1000 + i) in
  let parallel_total =
    Pool.with_pool ~domains:4 (fun pool ->
        St.sum (Array.to_list (Pool.map pool pager_workload seeds)))
  in
  let sequential_total = St.sum (Array.to_list (Array.map pager_workload seeds)) in
  check "merged totals equal sequential sum" true (parallel_total = sequential_total);
  (* And the sum really is field-wise. *)
  let singles = Array.map pager_workload seeds in
  check_int "physical_reads add up"
    (Array.fold_left (fun acc s -> acc + s.St.physical_reads) 0 singles)
    parallel_total.St.physical_reads;
  check_int "physical_writes add up"
    (Array.fold_left (fun acc s -> acc + s.St.physical_writes) 0 singles)
    parallel_total.St.physical_writes

(* {1 Determinism of the parallel drivers} *)

(* A range query as the plan runs it in parallel: the point z values
   joined with the box's cover by the sharded z-merge. *)
let range_setup () =
  let space = Z.Space.make ~dims:2 ~depth:6 in
  let side = Z.Space.side space in
  let rng = W.Rng.create ~seed:42 in
  let points =
    Array.to_list
      (Array.map
         (fun (p, id) -> (Z.Interleave.shuffle space p, id))
         (W.Datagen.with_ids (W.Datagen.uniform rng ~side ~n:500 ~dims:2)))
  in
  let qrng = W.Rng.create ~seed:43 in
  let covers =
    Array.init 60 (fun _ ->
        let x1 = W.Rng.int qrng side and x2 = W.Rng.int qrng side in
        let y1 = W.Rng.int qrng side and y2 = W.Rng.int qrng side in
        List.map
          (fun e -> (e, ()))
          (Z.Decompose.decompose_box space ~lo:[| min x1 x2; min y1 y2 |]
             ~hi:[| max x1 x2; max y1 y2 |]))
  in
  (points, covers)

let test_range_deterministic_across_domains () =
  let points, covers = range_setup () in
  let run domains =
    Pool.with_pool ~domains (fun pool ->
        Array.map (Par.Par_spatial_join.pairs ~shard_bits:4 pool points) covers)
  in
  let base = run 1 in
  List.iter
    (fun domains ->
      let got = run domains in
      Array.iteri
        (fun i (res, stats) ->
          let bres, bstats = base.(i) in
          check "results identical across pool sizes" true (res = bres);
          check "stats identical across pool sizes" true (stats = bstats))
        got)
    [ 2; 4 ]

let test_range_deterministic_across_runs () =
  let run () =
    let points, covers = range_setup () in
    Pool.with_pool ~domains:3 (fun pool ->
        Array.map (Par.Par_spatial_join.pairs pool points) covers)
  in
  check "same seed, same everything" true (run () = run ())

let join_setup () =
  let space = Z.Space.make ~dims:2 ~depth:5 in
  let side = Z.Space.side space in
  let rng = W.Rng.create ~seed:77 in
  let opts = { Z.Decompose.max_level = Some 8; max_elements = None } in
  let objects tag n =
    List.init n (fun i ->
        let w = 1 + W.Rng.int rng (side / 3) and h = 1 + W.Rng.int rng (side / 3) in
        let x = W.Rng.int rng (side - w) and y = W.Rng.int rng (side - h) in
        List.map
          (fun e -> (e, tag + i))
          (Z.Decompose.decompose_box ~options:opts space ~lo:[| x; y |]
             ~hi:[| x + w - 1; y + h - 1 |]))
    |> List.concat
  in
  (objects 0 20, objects 500 20)

let test_join_deterministic_across_domains () =
  let left, right = join_setup () in
  let run domains =
    Pool.with_pool ~domains (fun pool ->
        Par.Par_spatial_join.pairs ~shard_bits:4 pool left right)
  in
  let base_pairs, base_stats = run 1 in
  List.iter
    (fun domains ->
      let pairs, stats = run domains in
      check "pairs identical across pool sizes" true (pairs = base_pairs);
      check "stats identical across pool sizes" true (stats = base_stats))
    [ 2; 4 ]

let test_join_spanner_accounting () =
  let left, right = join_setup () in
  let bits = 4 in
  let expected_spanners =
    List.length (List.filter (fun (z, _) -> Shard.spans ~bits z) left)
    + List.length (List.filter (fun (z, _) -> Shard.spans ~bits z) right)
  in
  Pool.with_pool ~domains:2 (fun pool ->
      let _, stats = Par.Par_spatial_join.pairs ~shard_bits:bits pool left right in
      check_int "spanner count" expected_spanners stats.Par.Par_spatial_join.spanners;
      check "sweeps bounded by shards + spanner pass" true
        (stats.Par.Par_spatial_join.shards_swept <= (1 lsl bits) + 1))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "single domain" `Quick test_pool_single_domain;
          Alcotest.test_case "empty batch" `Quick test_pool_empty_batch;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "many batches" `Quick test_pool_many_batches;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "invalid sizes" `Quick test_pool_invalid;
        ] );
      ( "sharder",
        [
          Alcotest.test_case "shards partition z space" `Quick test_shard_partition;
          Alcotest.test_case "shard_of_z matches intervals" `Quick
            test_shard_of_z_matches_interval;
          Alcotest.test_case "spans and covers" `Quick test_shard_spans_covers;
          Alcotest.test_case "default depth" `Quick test_shard_default_bits;
        ] );
      ( "stats merge",
        [ Alcotest.test_case "per-shard sum is exact" `Quick test_stats_sum_exact ] );
      ( "determinism",
        [
          Alcotest.test_case "range: across pool sizes" `Quick
            test_range_deterministic_across_domains;
          Alcotest.test_case "range: across runs" `Quick
            test_range_deterministic_across_runs;
          Alcotest.test_case "join: across pool sizes" `Quick
            test_join_deterministic_across_domains;
          Alcotest.test_case "join: spanner accounting" `Quick
            test_join_spanner_accounting;
        ] );
    ]
