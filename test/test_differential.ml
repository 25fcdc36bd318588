(* Differential-testing oracle suite.

   One seeded harness generates random point sets and query boxes, and
   every range-search engine in the repository must agree on every query:
   Linear_scan (the trivial oracle), the in-memory merges (plain and
   skip), the zkd B+-tree (all four strategies) and the bucket kd-tree.
   The parallel spatial join — which is also how a parallel plan answers
   a range query — must match the sequential containment merge exactly
   (including order) and the nested-loop oracle as a multiset. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module W = Sqp_workload
module RS = Sqp_core.Range_search
module Par = Sqp_parallel
module Zindex = Sqp_btree.Zindex

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Results come back in engine-specific orders (z order, scan order,
   tree order); compare as canonically sorted lists.  Generators produce
   distinct points, so sorting by (point, payload) is a total order. *)
let canon results = List.sort compare results

let random_box rng side =
  let x1 = W.Rng.int rng side and x2 = W.Rng.int rng side in
  let y1 = W.Rng.int rng side and y2 = W.Rng.int rng side in
  Sqp_geom.Box.make ~lo:[| min x1 x2; min y1 y2 |] ~hi:[| max x1 x2; max y1 y2 |]

let range_case ~name ~dataset ~depth ~n ~queries ~seed =
  let space = Z.Space.make ~dims:2 ~depth in
  let side = Z.Space.side space in
  let rng = W.Rng.create ~seed in
  let pts = W.Datagen.with_ids (W.Datagen.generate rng dataset ~side ~n) in
  let linear = Sqp_kdtree.Linear_scan.build ~page_capacity:20 pts in
  let prep = RS.prepare space pts in
  let index = Zindex.of_points ~leaf_capacity:20 space pts in
  let kd = Sqp_kdtree.Paged_kdtree.build ~page_capacity:20 pts in
  let qrng = W.Rng.create ~seed:(seed + 1) in
  for q = 1 to queries do
    let box = random_box qrng side in
    let expected = canon (fst (Sqp_kdtree.Linear_scan.range_search linear box)) in
    let engines =
      [
        ("mem-merge-plain", canon (fst (RS.search_plain prep box)));
        ("mem-merge-skip", canon (fst (RS.search_skip prep box)));
        ("zkd-merge", canon (fst (Zindex.range_search ~strategy:Zindex.Merge index box)));
        ( "zkd-lazy",
          canon (fst (Zindex.range_search ~strategy:Zindex.Lazy_merge index box)) );
        ("zkd-bigmin", canon (fst (Zindex.range_search ~strategy:Zindex.Bigmin index box)));
        ("zkd-scan", canon (fst (Zindex.range_search ~strategy:Zindex.Scan index box)));
        ("paged-kdtree", canon (fst (Sqp_kdtree.Paged_kdtree.range_search kd box)));
      ]
    in
    List.iter
      (fun (engine, got) ->
        if got <> expected then
          Alcotest.failf "%s: %s disagrees with linear scan on query %d (%d vs %d results)"
            name engine q (List.length got) (List.length expected))
      engines
  done

let test_range_uniform () =
  range_case ~name:"uniform" ~dataset:W.Datagen.Uniform ~depth:6 ~n:300
    ~queries:70 ~seed:11

let test_range_clustered () =
  range_case ~name:"clustered" ~dataset:W.Datagen.Clustered ~depth:7 ~n:300
    ~queries:70 ~seed:22

let test_range_diagonal () =
  range_case ~name:"diagonal" ~dataset:W.Datagen.Diagonal ~depth:8 ~n:300
    ~queries:60 ~seed:33

(* The paper's extreme shapes: degenerate, full-space and border-hugging
   query boxes, against every engine. *)
let test_range_extreme_boxes () =
  let space = Z.Space.make ~dims:2 ~depth:6 in
  let side = Z.Space.side space in
  let rng = W.Rng.create ~seed:5 in
  let pts = W.Datagen.with_ids (W.Datagen.uniform rng ~side ~n:250 ~dims:2) in
  let linear = Sqp_kdtree.Linear_scan.build pts in
  let prep = RS.prepare space pts in
  let index = Zindex.of_points ~leaf_capacity:20 space pts in
  let boxes =
    [
      Sqp_geom.Box.of_ranges [ (0, side - 1); (0, side - 1) ];       (* full space *)
      Sqp_geom.Box.of_ranges [ (17, 17); (42, 42) ];                 (* single cell *)
      Sqp_geom.Box.of_ranges [ (side - 1, side - 1); (0, side - 1) ];(* border column *)
      Sqp_geom.Box.of_ranges [ (0, side - 1); (side - 1, side - 1) ];(* border row *)
      Sqp_geom.Box.of_ranges [ (0, 0); (0, 0) ];                     (* origin cell *)
      Sqp_geom.Box.of_ranges [ (side - 1, side - 1); (side - 1, side - 1) ];
      Sqp_geom.Box.of_ranges [ (1, side - 2); (1, side - 2) ];       (* all-crossing *)
    ]
  in
  List.iter
    (fun box ->
      let expected = canon (fst (Sqp_kdtree.Linear_scan.range_search linear box)) in
      check "plain" true (canon (fst (RS.search_plain prep box)) = expected);
      check "skip" true (canon (fst (RS.search_skip prep box)) = expected);
      check "zkd" true (canon (fst (Zindex.range_search index box)) = expected))
    boxes

(* A parallel plan answers a range query as the sharded z-merge of the
   point relation with the box's cover.  Its rows must equal the
   sequential merge's *exactly* — same tuples, same order — at every
   shard depth, and hold the skip merge's points. *)
let test_par_range_bit_identical () =
  let module R = Sqp_relalg in
  let space = Z.Space.make ~dims:2 ~depth:6 in
  let side = Z.Space.side space in
  let rng = W.Rng.create ~seed:7 in
  let pts = W.Datagen.with_ids (W.Datagen.uniform rng ~side ~n:400 ~dims:2) in
  let prep = RS.prepare space pts in
  let points =
    R.Query.points_relation space
      (Array.to_list (Array.map (fun (p, id) -> (id, p)) pts))
  in
  let ids rel =
    List.sort compare
      (List.map
         (fun tu -> R.Relation.get tu (R.Relation.schema rel) "id")
         (R.Relation.tuples rel))
  in
  let qrng = W.Rng.create ~seed:8 in
  Par.Pool.with_pool ~domains:3 (fun pool ->
      for _ = 1 to 200 do
        let box = random_box qrng side in
        let cover = R.Ops.rename [ ("z", "zb") ] (R.Query.box_relation space box) in
        let seq, _ = R.Spatial_join.merge points ~zr:"z" cover ~zs:"zb" in
        let skip_ids =
          List.sort compare
            (List.map (fun (_, id) -> R.Value.Int id) (fst (RS.search_skip prep box)))
        in
        if ids seq <> skip_ids then Alcotest.fail "merge rows differ from the skip merge";
        List.iter
          (fun bits ->
            let par, _ =
              R.Spatial_join.merge_parallel ~shard_bits:bits pool points ~zr:"z" cover
                ~zs:"zb"
            in
            if R.Relation.tuples par <> R.Relation.tuples seq then
              Alcotest.failf "shard_bits %d: order or contents differ" bits)
          [ 0; 1; 3; 5; 8 ]
      done)

(* {1 Spatial join} *)

let join_inputs ~seed ~n ~max_level space =
  let side = Z.Space.side space in
  let rng = W.Rng.create ~seed in
  let objs tag =
    List.init n (fun i ->
        let w = 1 + W.Rng.int rng (side / 4) and h = 1 + W.Rng.int rng (side / 4) in
        let x = W.Rng.int rng (side - w) and y = W.Rng.int rng (side - h) in
        ( tag + i,
          Sqp_geom.Box.make ~lo:[| x; y |] ~hi:[| x + w - 1; y + h - 1 |] ))
  in
  let opts = { Z.Decompose.max_level = Some max_level; max_elements = None } in
  let tag_of objects =
    List.concat_map
      (fun (id, b) ->
        List.map
          (fun e -> (e, id))
          (Z.Decompose.decompose_box ~options:opts space ~lo:(Sqp_geom.Box.lo b)
             ~hi:(Sqp_geom.Box.hi b)))
      objects
  in
  (tag_of (objs 0), tag_of (objs 1000))

let test_par_join_matches_sequential_and_oracle () =
  let space = Z.Space.make ~dims:2 ~depth:5 in
  Par.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun (seed, n, max_level) ->
          let left, right = join_inputs ~seed ~n ~max_level space in
          let seq, seq_stats = Sqp_core.Zmerge.pairs left right in
          let oracle, _ = Sqp_core.Zmerge.pairs_naive left right in
          List.iter
            (fun bits ->
              let par, par_stats =
                Par.Par_spatial_join.pairs ~shard_bits:bits pool left right
              in
              if par <> seq then
                Alcotest.failf "seed %d bits %d: parallel join differs from merge" seed
                  bits;
              check_int "pairs counter exact" seq_stats.Sqp_core.Zmerge.pairs
                par_stats.Par.Par_spatial_join.pairs;
              check "matches nested-loop oracle" true
                (List.sort compare par = List.sort compare oracle))
            [ 0; 2; 4; 6 ])
        [ (101, 12, 6); (202, 20, 8); (303, 30, 10); (404, 8, 4) ])

let test_par_join_relation_level () =
  let space = Z.Space.make ~dims:2 ~depth:5 in
  let module R = Sqp_relalg in
  let schema_of name z =
    R.Schema.make [ (name, R.Value.TInt); (z, R.Value.TZval) ]
  in
  let rel_of name z items =
    R.Relation.make ~name (schema_of name z)
      (List.map (fun (e, id) -> [| R.Value.Int id; R.Value.Zval e |]) items)
  in
  let left, right = join_inputs ~seed:55 ~n:25 ~max_level:8 space in
  let r = rel_of "rid" "zr" left and s = rel_of "sid" "zs" right in
  let seq, seq_stats = R.Spatial_join.merge r ~zr:"zr" s ~zs:"zs" in
  let naive, _ = R.Spatial_join.nested_loop r ~zr:"zr" s ~zs:"zs" in
  Par.Pool.with_pool ~domains:4 (fun pool ->
      let par, par_stats = R.Spatial_join.merge_parallel pool r ~zr:"zr" s ~zs:"zs" in
      check "tuples bit-identical to merge" true
        (R.Relation.tuples par = R.Relation.tuples seq);
      check_int "pairs exact" seq_stats.R.Spatial_join.pairs
        par_stats.R.Spatial_join.pairs;
      check "multiset equals nested loop" true (R.Relation.equal_contents par naive))

let () =
  Alcotest.run "differential"
    [
      ( "range search",
        [
          Alcotest.test_case "uniform dataset" `Quick test_range_uniform;
          Alcotest.test_case "clustered dataset" `Quick test_range_clustered;
          Alcotest.test_case "diagonal dataset" `Quick test_range_diagonal;
          Alcotest.test_case "extreme boxes" `Quick test_range_extreme_boxes;
          Alcotest.test_case "parallel bit-identical" `Quick test_par_range_bit_identical;
        ] );
      ( "spatial join",
        [
          Alcotest.test_case "parallel = merge = oracle" `Quick
            test_par_join_matches_sequential_and_oracle;
          Alcotest.test_case "relation level" `Quick test_par_join_relation_level;
        ] );
    ]
