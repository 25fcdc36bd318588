(* The cost-based optimizer's choice against every forced alternative:
   for each seeded join, the chosen plan vs both forced join
   implementations and the statistics-free size heuristic; for a range
   batch, the per-box access decision vs each fixed path.  The chosen
   plan must not be slower than the worst alternative (exit 1);
   docs/COST_MODEL.md's calibration section reads these rows. *)

module R = Sqp_relalg
module W = Sqp_workload
module O = Sqp_optimizer
module Catalog = Sqp_server.Catalog

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

let check_not_slower workload chosen_ms alternatives =
  let worst = List.fold_left (fun a (_, ms) -> Float.max a ms) 0.0 alternatives in
  if chosen_ms > worst *. 1.05 then
    Row.fail "optimizer: %s: chosen plan %.3f ms is slower than the worst alternative %.3f ms"
      workload chosen_ms worst

let join_rows ~quick workload (wk : W.Seeded.t) =
  let cat = Catalog.of_seeded wk in
  let plan = R.Plan.optimize (Catalog.overlap_plan cat) in
  let chosen_plan, decisions = O.Optimizer.choose_plan (Catalog.analyze cat) plan in
  let d = List.hd decisions in
  let time p = Row.median_ms ~quick (fun () -> R.Plan.run p) in
  let alternatives =
    [
      ("forced merge", time (force R.Plan.Merge plan));
      ("forced nested_loop", time (force R.Plan.Nested_loop plan));
      ("heuristic", time plan);
    ]
  in
  let chosen_ms = time chosen_plan in
  check_not_slower workload chosen_ms alternatives;
  let seed = W.Seeded.objects_seed in
  let count = Row.count Row.Plan ~seed workload in
  let ms = Row.make Row.Plan ~seed workload in
  [
    count "left_rows" (Float.to_int d.O.Optimizer.left_rows);
    count "right_rows" (Float.to_int d.O.Optimizer.right_rows);
    count "chosen_merge" (Bool.to_int (d.O.Optimizer.chosen = R.Plan.Merge));
    count "commuted" (Bool.to_int d.O.Optimizer.commuted);
    count "heuristic_merge" (Bool.to_int d.O.Optimizer.heuristic_would_merge);
    ms "chosen" "ms" chosen_ms;
  ]
  @ List.map (fun (label, t) -> ms label "ms" t) alternatives

(* Per query box, the chosen access path (direct plain/skip merge at
   exact decomposition, or the coarsened plan) vs every forced method,
   summed over the batch. *)
let range_rows ~quick (wk : W.Seeded.t) =
  let cat = Catalog.of_seeded wk in
  ignore (Catalog.analyze cat);
  let prep = Catalog.prepared_points cat in
  let boxes = wk.W.Seeded.query :: Array.to_list (Array.sub wk.W.Seeded.query_boxes 0 5) in
  let batch f = Row.median_ms ~quick (fun () -> List.iter (fun b -> ignore (f b)) boxes) in
  let planned lo hi = ignore (R.Plan.run (R.Plan.optimize (Catalog.range_plan cat ~lo ~hi))) in
  let alternatives =
    [
      ("plain/exact", batch (Sqp_core.Range_search.search_plain prep));
      ("skip/exact", batch (Sqp_core.Range_search.search_skip prep));
      ("plan path", batch (fun b -> planned (Sqp_geom.Box.lo b) (Sqp_geom.Box.hi b)));
    ]
  in
  let chosen_ms =
    batch (fun b ->
        let lo = Sqp_geom.Box.lo b and hi = Sqp_geom.Box.hi b in
        match Catalog.range_access cat ~lo ~hi with
        | Catalog.Direct { O.Cost.method_ = O.Cost.Plain; _ } ->
            ignore (Sqp_core.Range_search.search_plain prep b)
        | Catalog.Direct { O.Cost.method_ = O.Cost.Skip; _ } ->
            ignore (Sqp_core.Range_search.search_skip prep b)
        | Catalog.Planned -> planned lo hi)
  in
  check_not_slower "range_batch" chosen_ms alternatives;
  let ms = Row.make Row.Plan ~seed:W.Seeded.boxes_seed "range_batch" in
  Row.count Row.Plan ~seed:W.Seeded.boxes_seed "range_batch" "boxes" (List.length boxes)
  :: ms "chosen" "ms" chosen_ms
  :: List.map (fun (label, t) -> ms label "ms" t) alternatives

let run ~quick =
  let big = W.Seeded.standard () in
  (* A join whose element product sits {e under} the 20k size-heuristic
     threshold while both sides are big enough that the merge wins: the
     workload where statistics beat the heuristic. *)
  let small =
    List.find_map
      (fun k ->
        let wk = W.Seeded.standard ~n_objects:k () in
        let l, r = W.Seeded.join_elements wk in
        let p = List.length l * List.length r in
        if p <= 20_000 && p >= 4_000 then Some wk else None)
      [ 24; 20; 16; 12; 10; 8; 6; 4 ]
  in
  join_rows ~quick "overlap_join" big
  @ (match small with Some wk -> join_rows ~quick "small_join" wk | None -> [])
  @ range_rows ~quick big
