(* Front-coded pages against the fixed-width baseline at the same byte
   budget: entries per page, data pages touched by the seeded range
   batch, on-disk dump sizes (v3 vs v2) and the range-path latency
   guardrail.  Both layouts must answer every box with identical rows
   (exit 1). *)

module W = Sqp_workload
module Zi = Sqp_btree.Zindex
module P = Sqp_btree.Persist

let run ~quick =
  let wk = W.Seeded.standard () in
  let space = wk.W.Seeded.space in
  let pts = W.Seeded.tagged_points wk in
  let budget = 512 in
  (* The payload is a row id: charge it as a u32, so the density
     comparison measures the key layouts rather than payload padding. *)
  let comp = Zi.of_points ~page_budget:budget ~value_bytes:4 space pts in
  let fixed = Zi.of_points ~page_budget:budget ~value_bytes:4 ~compressed:false space pts in
  let boxes = Array.to_list wk.W.Seeded.query_boxes in
  let pages_comp = ref 0 and pages_fixed = ref 0 in
  List.iter
    (fun b ->
      let rc, sc = Zi.range_search comp b in
      let rf, sf = Zi.range_search fixed b in
      if rc <> rf then Row.fail "compress: compressed and fixed-width rows differ on a box";
      pages_comp := !pages_comp + sc.Zi.data_pages;
      pages_fixed := !pages_fixed + sf.Zi.data_pages)
    boxes;
  let cstats = Option.get (Zi.compression_stats comp) (* built with a budget *) in
  let dump format =
    let path = Filename.temp_file "sqp_bench_compress" ".dump" in
    let pages = P.save ~format ~path ~encode:string_of_int comp in
    let bytes = (Unix.stat path).Unix.st_size in
    Sys.remove path;
    (pages, bytes)
  in
  let v3_pages, v3_bytes = dump P.V3 and v2_pages, v2_bytes = dump P.V2 in
  let range_ms idx =
    Row.median_ms ~quick (fun () -> List.iter (fun b -> ignore (Zi.range_search idx b)) boxes)
  in
  let seed = W.Seeded.points_seed in
  let leaves = Printf.sprintf "%d points, %d-byte pages" (Array.length pts) budget in
  let batch = Printf.sprintf "range batch, %d boxes" (List.length boxes) in
  let disk = "on-disk dump" in
  Row.
    [
      count Index ~seed leaves "leaves_compressed" cstats.Zi.leaves;
      count Index ~seed leaves "leaves_fixed" (Zi.data_page_count fixed);
      make Index ~seed leaves "entries_per_leaf_compressed" "entries"
        cstats.Zi.avg_entries_per_leaf;
      make Index ~seed leaves "entries_per_leaf_fixed" "entries" (Zi.avg_leaf_entries fixed);
      make Index ~seed leaves "density_ratio" "x" cstats.Zi.ratio;
      count Index ~seed:W.Seeded.boxes_seed batch "data_pages_compressed" !pages_comp;
      count Index ~seed:W.Seeded.boxes_seed batch "data_pages_fixed" !pages_fixed;
      make Index ~seed:W.Seeded.boxes_seed batch "compressed" "ms" (range_ms comp);
      make Index ~seed:W.Seeded.boxes_seed batch "fixed" "ms" (range_ms fixed);
      count Index ~seed disk "v3_pages" v3_pages;
      count Index ~seed disk "v3_bytes" v3_bytes;
      count Index ~seed disk "v2_pages" v2_pages;
      count Index ~seed disk "v2_bytes" v2_bytes;
    ]
