module B = Sqp_zorder.Bitstring

type stats = {
  pairs : int;
  comparisons : int;
  sorted_items : int;
  max_stack : int;
}

let out_schema r s =
  Schema.concat (Relation.schema r) (Relation.schema s)

let zval_of schema attr tu =
  match Relation.get tu schema attr with
  | Value.Zval z -> z
  | _ -> invalid_arg "Spatial_join: z attribute does not hold an element"

(* Observability: one span per join with its work counters, plus running
   totals in the ambient metrics registry.  One branch when tracing is
   off. *)
let observed name join =
  if not (Sqp_obs.Trace.global_enabled ()) then join ()
  else begin
    let tracer = Sqp_obs.Trace.global () in
    Sqp_obs.Trace.span_begin tracer name;
    let ((_, s) as r) = join () in
    Sqp_obs.Trace.span_end
      ~attrs:(fun () ->
        Sqp_obs.Trace.
          [
            ("pairs", Int s.pairs);
            ("comparisons", Int s.comparisons);
            ("sorted_items", Int s.sorted_items);
            ("max_stack", Int s.max_stack);
          ])
      tracer;
    let m = Sqp_obs.Metrics.global () in
    let bump suffix n =
      Sqp_obs.Metrics.add (Sqp_obs.Metrics.counter m (name ^ "." ^ suffix)) n
    in
    bump "joins" 1;
    bump "pairs" s.pairs;
    bump "comparisons" s.comparisons;
    Sqp_obs.Metrics.record_max
      (Sqp_obs.Metrics.gauge m (name ^ ".max_stack"))
      s.max_stack;
    r
  end

let nested_loop_impl r ~zr s ~zs =
  let schema = out_schema r s in
  let sr = Relation.schema r and ss = Relation.schema s in
  let comparisons = ref 0 in
  let tuples =
    List.concat_map
      (fun tr ->
        let zrv = zval_of sr zr tr in
        List.filter_map
          (fun ts ->
            let zsv = zval_of ss zs ts in
            incr comparisons;
            if B.is_prefix zrv zsv || B.is_prefix zsv zrv then
              Some (Array.append tr ts)
            else None)
          (Relation.tuples s))
      (Relation.tuples r)
  in
  ( Relation.make schema tuples,
    {
      pairs = List.length tuples;
      comparisons = !comparisons;
      sorted_items = 0;
      max_stack = 0;
    } )

let nested_loop r ~zr s ~zs = observed "spatial_join.nested_loop" (fun () -> nested_loop_impl r ~zr s ~zs)

(* Both sides' z values word-keyed, sorted by stable permutation and
   swept with the flat-array kernel; ties take the R side first. *)
let merge_impl r ~zr s ~zs =
  let sr = Relation.schema r and ss = Relation.schema s in
  let tr = Array.of_list (Relation.tuples r)
  and ts = Array.of_list (Relation.tuples s) in
  let comparisons = ref 0 in
  let keyed schema attr tuples =
    let pack tu = Sqp_zorder.Zpacked.of_bitstring (zval_of schema attr tu) in
    Sqp_zorder.Zkernel.sort_keyed ~comparisons (Array.map pack tuples)
  in
  let perm_r, kr = keyed sr zr tr and perm_s, ks = keyed ss zs ts in
  let out = ref [] in
  let emit li ri = out := Array.append tr.(perm_r.(li)) ts.(perm_s.(ri)) :: !out in
  let st = Sqp_zorder.Zkernel.sweep_pairs_keyed ~comparisons kr ks emit in
  ( Relation.make (out_schema r s) (List.rev !out),
    {
      pairs = st.Sqp_zorder.Zkernel.pairs;
      comparisons = !comparisons;
      sorted_items = Array.length tr + Array.length ts;
      max_stack = st.Sqp_zorder.Zkernel.max_stack;
    } )

let merge r ~zr s ~zs = observed "spatial_join.merge" (fun () -> merge_impl r ~zr s ~zs)
