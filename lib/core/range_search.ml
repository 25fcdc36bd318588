module Z = Sqp_zorder

type space = Z.Space.t

type 'a prepared = {
  space : space;
  keys : int array;
      (* sorted word keys ({!Z.Zpacked} words) of the points: the
         kernels merge over this flat int array *)
  pts : (Sqp_geom.Point.t * 'a) array; (* aligned with keys *)
}

let prepare space points =
  let keyed =
    Array.map (fun (p, v) -> ((Z.Zpacked.shuffle space p).Z.Zpacked.w, (p, v))) points
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) keyed;
  { space; keys = Array.map fst keyed; pts = Array.map snd keyed }

let prepared_length p = Array.length p.keys

type counters = {
  point_steps : int;
  element_steps : int;
  point_jumps : int;
  element_jumps : int;
  comparisons : int;
}

(* The scan ranges of a box as bare word keys: two flat int arrays —
   per-query range construction is a large share of a cache-warm search,
   so it is kept allocation-lean. *)
let key_ranges prep box =
  let total = Z.Space.total_bits prep.space in
  let lo = Sqp_geom.Box.lo box and hi = Sqp_geom.Box.hi box in
  let els = Z.Decompose.decompose_box prep.space ~lo ~hi in
  let n = List.length els in
  let klo = Array.make n 0 and khi = Array.make n 0 in
  List.iteri
    (fun j e ->
      let lo_k, hi_k = Z.Zkernel.element_keys ~total (Z.Zpacked.of_bitstring e) in
      klo.(j) <- lo_k;
      khi.(j) <- hi_k)
    els;
  { Z.Zkernel.klo; khi }

let clip prep box =
  Sqp_geom.Box.clip box ~side:(Z.Space.side prep.space)

(* Observability: one span per search carrying the merge's work counters
   (probes = comparisons, skips = random accesses), plus running totals in
   the ambient metrics registry.  A single branch when tracing is off. *)
let observed name search prep box =
  if not (Sqp_obs.Trace.global_enabled ()) then search prep box
  else begin
    let tracer = Sqp_obs.Trace.global () in
    Sqp_obs.Trace.span_begin tracer name;
    let ((results, c) as r) = search prep box in
    Sqp_obs.Trace.span_end
      ~attrs:(fun () ->
        Sqp_obs.Trace.
          [
            ("rows", Int (List.length results));
            ("comparisons", Int c.comparisons);
            ("point_steps", Int c.point_steps);
            ("element_steps", Int c.element_steps);
            ("point_jumps", Int c.point_jumps);
            ("element_jumps", Int c.element_jumps);
          ])
      tracer;
    let m = Sqp_obs.Metrics.global () in
    let bump suffix n =
      Sqp_obs.Metrics.add (Sqp_obs.Metrics.counter m (name ^ "." ^ suffix)) n
    in
    bump "queries" 1;
    bump "rows" (List.length results);
    bump "comparisons" c.comparisons;
    bump "skips" (c.point_jumps + c.element_jumps);
    r
  end

let no_counters =
  { point_steps = 0; element_steps = 0; point_jumps = 0; element_jumps = 0; comparisons = 0 }

let counters_of_kernel (c : Z.Zkernel.range_counters) =
  {
    point_steps = c.Z.Zkernel.point_steps;
    element_steps = c.element_steps;
    point_jumps = c.point_jumps;
    element_jumps = c.element_jumps;
    comparisons = c.comparisons;
  }

(* Both merges run on the word-key kernels; [merge] is one of them. *)
let search_with merge prep box =
  match clip prep box with
  | None -> ([], no_counters)
  | Some box ->
      let acc = ref [] in
      let emit i = acc := prep.pts.(i) :: !acc in
      let c = merge prep.keys (key_ranges prep box) emit in
      (List.rev !acc, counters_of_kernel c)

let search_plain prep box =
  observed "range_search.plain" (search_with Z.Zkernel.range_plain_keys) prep box

let search_skip prep box =
  observed "range_search.skip" (search_with Z.Zkernel.range_skip_keys) prep box

type trace_step = {
  description : string;
  point_z : string option;
  element_z : string option;
}

let search_trace prep box =
  match clip prep box with
  | None -> ([], [ { description = "query box outside the grid"; point_z = None; element_z = None } ])
  | Some box ->
      let total = Z.Space.total_bits prep.space in
      let zs = Array.map (fun (p, _) -> Z.Interleave.shuffle prep.space p) prep.pts in
      let lo = Sqp_geom.Box.lo box and hi = Sqp_geom.Box.hi box in
      let els = Array.of_list (Z.Decompose.decompose_box prep.space ~lo ~hi) in
      let ranges =
        Array.map
          (fun e ->
            (e, Z.Bitstring.pad_to e total false, Z.Bitstring.pad_to e total true))
          els
      in
      let np = Array.length zs and nb = Array.length ranges in
      let steps = ref [] and acc = ref [] in
      let note description i j =
        steps :=
          {
            description;
            point_z = (if i < np then Some (Z.Bitstring.to_string zs.(i)) else None);
            element_z =
              (if j < nb then
                 let e, _, _ = ranges.(j) in
                 Some (Z.Bitstring.to_string e)
               else None);
          }
          :: !steps
      in
      (* First index of zs with zs.(i) >= z (binary search). *)
      let lower_bound z =
        let lo = ref 0 and hi = ref np in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if Z.Bitstring.compare zs.(mid) z < 0 then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      let i = ref 0 and j = ref 0 in
      while !i < np && !j < nb do
        let z = zs.(!i) in
        let e, rlo, rhi = ranges.(!j) in
        if Z.Bitstring.compare z rlo < 0 then begin
          note
            (Printf.sprintf "point z %s before element %s: random access into P"
               (Z.Bitstring.to_string z) (Z.Bitstring.to_string e))
            !i !j;
          i := lower_bound rlo
        end
        else if Z.Bitstring.compare z rhi > 0 then begin
          note
            (Printf.sprintf "point z %s after element %s: advance B"
               (Z.Bitstring.to_string z) (Z.Bitstring.to_string e))
            !i !j;
          let z' = z in
          let rec bump () =
            if !j < nb then
              let _, _, rhi = ranges.(!j) in
              if Z.Bitstring.compare rhi z' < 0 then begin
                incr j;
                bump ()
              end
          in
          bump ()
        end
        else begin
          let p, _ = prep.pts.(!i) in
          note
            (Printf.sprintf "point z %s inside element %s: report %s"
               (Z.Bitstring.to_string z) (Z.Bitstring.to_string e)
               (Format.asprintf "%a" Sqp_geom.Point.pp p))
            !i !j;
          acc := prep.pts.(!i) :: !acc;
          incr i
        end
      done;
      note "merge exhausted" !i !j;
      (List.rev !acc, List.rev !steps)
