(* Word-key kernels vs the bitstring oracles (test/oracle) on the query
   hot paths: z compare (via sorting), the Zmerge containment sweep, both
   range-search merges and the relational spatial join.  The two sides
   run identical workloads, so the ratio is the point. *)

module Z = Sqp_zorder
module W = Sqp_workload
module R = Sqp_relalg
module Rs = Sqp_core.Range_search

let run ~quick =
  let wk = W.Seeded.standard () in
  let space = wk.W.Seeded.space in
  let prep = Rs.prepare space (W.Seeded.tagged_points wk) in
  let oracle_prep = Sqp_oracle.prepare space (W.Seeded.tagged_points wk) in
  let join_l, join_r = W.Seeded.join_elements wk in
  let zs_bits = Array.map (fun p -> Z.Interleave.shuffle space p) wk.W.Seeded.points in
  let zs_packed = Array.map Z.Zpacked.of_bitstring zs_bits in
  let boxes = wk.W.Seeded.query_boxes in
  let each_box prep search () = Array.iter (fun b -> ignore (search prep b)) boxes in
  let rel_of name z items =
    R.Relation.make ~name
      (R.Schema.make [ (name, R.Value.TInt); (z, R.Value.TZval) ])
      (List.map (fun (e, id) -> [| R.Value.Int id; R.Value.Zval e |]) items)
  in
  let rel_r = rel_of "rid" "zr" join_l and rel_s = rel_of "sid" "zs" join_r in
  let n_boxes = Array.length boxes in
  List.concat_map
    (fun (workload, seed, reference, packed) ->
      let reference_ms = Row.median_ms ~quick reference in
      let packed_ms = Row.median_ms ~quick packed in
      let row = Row.make Row.Kernel ~seed workload in
      [
        row "reference" "ms" reference_ms;
        row "packed" "ms" packed_ms;
        row "speedup" "x" (reference_ms /. packed_ms);
      ])
    [
      ( "compare(sort 5000 z values)",
        W.Seeded.points_seed,
        (fun () -> Array.sort Z.Bitstring.compare (Array.copy zs_bits)),
        fun () -> Array.sort Z.Zpacked.compare (Array.copy zs_packed) );
      ( "merge(zmerge 48x48 join)",
        W.Seeded.objects_seed,
        (fun () -> ignore (Sqp_oracle.pairs_reference join_l join_r)),
        fun () -> ignore (Sqp_core.Zmerge.pairs join_l join_r) );
      ( Printf.sprintf "range-search-plain(%d boxes)" n_boxes,
        W.Seeded.boxes_seed,
        each_box oracle_prep Sqp_oracle.search_plain_reference,
        each_box prep Rs.search_plain );
      ( Printf.sprintf "range-search-skip(%d boxes)" n_boxes,
        W.Seeded.boxes_seed,
        each_box oracle_prep Sqp_oracle.search_skip_reference,
        each_box prep Rs.search_skip );
      ( "join(spatial-join merge)",
        W.Seeded.objects_seed,
        (fun () -> ignore (Sqp_oracle.merge_reference rel_r ~zr:"zr" rel_s ~zs:"zs")),
        fun () -> ignore (R.Spatial_join.merge rel_r ~zr:"zr" rel_s ~zs:"zs") );
    ]
