module B = Sqp_zorder.Bitstring

type stats = { pairs : int; items : int; comparisons : int }

(* Observability: one span per merge with its work counters, plus running
   totals in the ambient metrics registry.  One branch when tracing is
   off, so the hot sequential path is unchanged. *)
let observed name merge left right =
  if not (Sqp_obs.Trace.global_enabled ()) then merge left right
  else begin
    let tracer = Sqp_obs.Trace.global () in
    Sqp_obs.Trace.span_begin tracer name;
    let ((_, s) as r) = merge left right in
    Sqp_obs.Trace.span_end
      ~attrs:(fun () ->
        Sqp_obs.Trace.
          [
            ("pairs", Int s.pairs);
            ("items", Int s.items);
            ("comparisons", Int s.comparisons);
          ])
      tracer;
    let m = Sqp_obs.Metrics.global () in
    let bump suffix n =
      Sqp_obs.Metrics.add (Sqp_obs.Metrics.counter m (name ^ "." ^ suffix)) n
    in
    bump "merges" 1;
    bump "pairs" s.pairs;
    bump "items" s.items;
    bump "comparisons" s.comparisons;
    r
  end

(* Word-key both sides, sort each by stable permutation and sweep with
   the flat-array kernel.  Equal z values take the left side first —
   exactly the order a stable sort of left-then-right would produce. *)
let pairs_impl left right =
  let comparisons = ref 0 in
  let keyed side =
    Sqp_zorder.Zkernel.sort_keyed ~comparisons
      (Array.of_list (List.map (fun (z, _) -> Sqp_zorder.Zpacked.of_bitstring z) side))
  in
  let perm_l, kl = keyed left and perm_r, kr = keyed right in
  let pl = Array.of_list (List.map snd left)
  and pr = Array.of_list (List.map snd right) in
  let out = ref [] in
  let emit li ri = out := (pl.(perm_l.(li)), pr.(perm_r.(ri))) :: !out in
  let st = Sqp_zorder.Zkernel.sweep_pairs_keyed ~comparisons kl kr emit in
  ( List.rev !out,
    {
      pairs = st.Sqp_zorder.Zkernel.pairs;
      items = Array.length pl + Array.length pr;
      comparisons = !comparisons;
    } )

let pairs left right = observed "zmerge.pairs" pairs_impl left right

let pairs_naive_impl left right =
  let comparisons = ref 0 in
  let out = ref [] and count = ref 0 in
  List.iter
    (fun (za, a) ->
      List.iter
        (fun (zb, b) ->
          incr comparisons;
          if B.is_prefix za zb || B.is_prefix zb za then begin
            incr count;
            out := (a, b) :: !out
          end)
        right)
    left;
  ( List.rev !out,
    {
      pairs = !count;
      items = List.length left + List.length right;
      comparisons = !comparisons;
    } )

let pairs_naive left right = observed "zmerge.pairs_naive" pairs_naive_impl left right
