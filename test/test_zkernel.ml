(* Differential suite for the word-key kernels: the fast paths of Zmerge,
   Range_search and Spatial_join must reproduce the bitstring reference
   implementations bit for bit (same rows, same order — and for range
   search, the same counters) on the seeded workloads, and at the tier
   boundary — z values of 63 bits take the kernels, 64 bits and beyond
   the reference — both sides must still agree. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module P = Z.Zpacked
module K = Z.Zkernel
module W = Sqp_workload
module RS = Sqp_core.Range_search
module Zmerge = Sqp_core.Zmerge
module SJ = Sqp_relalg.Spatial_join

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let wk = lazy (W.Seeded.standard ())

(* The tier boundary: 3 x 21 = 63 bits (one word, kernel path),
   2 x 32 = 64 bits and 3 x 43 = 129 bits (reference path). *)
let tier_spaces = [ (3, 21); (2, 32); (3, 43) ]

let tier_name (dims, depth) =
  let bits = dims * depth in
  Printf.sprintf "%d-bit space %s" bits
    (if bits <= P.word_bits then "takes word keys" else "falls back")

(* --- Sorting a z sequence: Zkernel.sort_keyed ------------------------ *)

let pack_exn b =
  match P.of_bitstring b with Some p -> p | None -> assert false

let test_sort_keyed_stable () =
  let comparisons = ref 0 in
  let labels = [| "a"; "b"; "c"; "d"; "e" |] in
  let zs = Array.map (fun s -> pack_exn (B.of_string s)) [| "10"; "01"; "10"; "0"; "10" |] in
  match K.sort_keyed ~comparisons zs with
  | None -> Alcotest.fail "short strings must key"
  | Some (perm, _) ->
      Alcotest.(check (list string))
        "z order, ties in input order" [ "d"; "b"; "a"; "c"; "e" ]
        (Array.to_list (Array.map (fun i -> labels.(i)) perm));
      check "counted sort work" true (!comparisons > 0)

let test_sort_keyed_refuses_wide () =
  let comparisons = ref 0 in
  let value bits = pack_exn (B.init bits (fun i -> i mod 2 = 0)) in
  let keys bits = K.sort_keyed ~comparisons [| P.empty; value bits |] in
  check "63 bits -> keyed" true (Option.is_some (keys P.word_bits));
  check "64 bits -> None" true (keys (P.word_bits + 1) = None);
  check "uniform 63 bits -> keys" true
    (Option.is_some (K.uniform_word_keys [| value P.word_bits |]));
  check "uniform 64 bits -> None" true
    (K.uniform_word_keys [| value (P.word_bits + 1) |] = None)

(* --- Zmerge: kernel vs reference vs naive ---------------------------- *)

let canon pairs = List.sort Stdlib.compare pairs

let test_zmerge_differential () =
  let left, right = W.Seeded.join_elements (Lazy.force wk) in
  let fast, fs = Zmerge.pairs left right in
  let ref_, rs = Zmerge.pairs_reference left right in
  check "identical pairs in identical order" true (fast = ref_);
  check_int "same pair count" fs.Zmerge.pairs rs.Zmerge.pairs;
  check_int "same item count" fs.items rs.items;
  let naive, ns = Zmerge.pairs_naive left right in
  check "multiset equals the oracle" true (canon fast = canon naive);
  check_int "naive pair count" fs.Zmerge.pairs ns.Zmerge.pairs

let test_zmerge_fallback_long_elements () =
  (* 130-bit elements exceed even Zpacked.max_bits: pairs must silently
     use the reference sweep and still match the naive oracle. *)
  let base = B.init 128 (fun i -> i mod 3 = 0) in
  let extend bits = B.concat base (B.of_string bits) in
  let left = [ (base, "l0"); (extend "01", "l1"); (B.empty, "l2") ] in
  let right = [ (extend "0", "r0"); (extend "11", "r1"); (base, "r2") ] in
  let fast, fs = Zmerge.pairs left right in
  let ref_, rs = Zmerge.pairs_reference left right in
  let naive, _ = Zmerge.pairs_naive left right in
  check "fallback = reference" true (fast = ref_);
  check "fallback stats = reference" true (fs = rs);
  check "fallback = oracle (multiset)" true (canon fast = canon naive)

let test_zmerge_empty_sides () =
  let some = [ (B.of_string "01", 1) ] in
  List.iter
    (fun (l, r) ->
      let fast, fs = Zmerge.pairs l r in
      let ref_, rs = Zmerge.pairs_reference l r in
      check "empty-side equal" true (fast = ref_);
      check_int "empty-side pairs" fs.Zmerge.pairs rs.Zmerge.pairs)
    [ ([], []); (some, []); ([], some) ]

(* Decomposed boxes near the origin of a tier space, tagged by object:
   the same element workload at every depth. *)
let tier_elements ~seed (dims, depth) =
  let space = Z.Space.make ~dims ~depth in
  let rng = W.Rng.create ~seed in
  List.concat
    (List.init 10 (fun id ->
         let lo = Array.init dims (fun _ -> W.Rng.int rng 8) in
         let hi = Array.map (fun l -> l + 1 + W.Rng.int rng 4) lo in
         List.map (fun e -> (e, id)) (Z.Decompose.decompose_box space ~lo ~hi)))

(* The counters the two sweeps share.  Sort comparisons are not among
   them (the kernel sorts word keys, the reference sorts lists), so
   [comparisons] must match only where the reference path ran. *)
let test_zmerge_tier tier () =
  let left = tier_elements ~seed:31 tier and right = tier_elements ~seed:32 tier in
  let fast, fs = Zmerge.pairs left right in
  let ref_, rs = Zmerge.pairs_reference left right in
  let naive, _ = Zmerge.pairs_naive left right in
  check "pairs = reference" true (fast = ref_);
  check "some pairs" true (fast <> []);
  check_int "pair count" rs.Zmerge.pairs fs.Zmerge.pairs;
  check_int "item count" rs.items fs.items;
  let dims, depth = tier in
  if dims * depth > P.word_bits then
    check_int "reference path: comparisons" rs.comparisons fs.comparisons;
  check "= oracle (multiset)" true (canon fast = canon naive)

(* --- Range search: kernel vs reference, rows AND counters ------------ *)

let counters_equal (a : RS.counters) (b : RS.counters) =
  a.point_steps = b.point_steps
  && a.element_steps = b.element_steps
  && a.point_jumps = b.point_jumps
  && a.element_jumps = b.element_jumps
  && a.comparisons = b.comparisons

let test_range_search_differential () =
  let wk = Lazy.force wk in
  let prep = RS.prepare wk.W.Seeded.space (W.Seeded.tagged_points wk) in
  let boxes = Array.to_list (Array.sub wk.W.Seeded.query_boxes 0 120) in
  List.iteri
    (fun qi box ->
      let rows_p, cp = RS.search_plain prep box in
      let rows_pr, cpr = RS.search_plain_reference prep box in
      if rows_p <> rows_pr then Alcotest.failf "plain rows differ on box %d" qi;
      if not (counters_equal cp cpr) then
        Alcotest.failf "plain counters differ on box %d" qi;
      let rows_s, cs = RS.search_skip prep box in
      let rows_sr, csr = RS.search_skip_reference prep box in
      if rows_s <> rows_sr then Alcotest.failf "skip rows differ on box %d" qi;
      if not (counters_equal cs csr) then
        Alcotest.failf "skip counters differ on box %d" qi;
      if rows_p <> rows_s then Alcotest.failf "plain <> skip on box %d" qi)
    (wk.W.Seeded.query :: boxes)

let test_range_search_tier (dims, depth) () =
  (* Points near the origin of the space; every search must equal its
     reference (rows and counters) and a brute-force filter. *)
  let space = Z.Space.make ~dims ~depth in
  let rng = W.Rng.create ~seed:2024 in
  let pts = Array.init 200 (fun i -> (Array.init dims (fun _ -> W.Rng.int rng 64), i)) in
  let prep = RS.prepare space pts in
  let boxes =
    Sqp_geom.Box.make ~lo:(Array.make dims 8) ~hi:(Array.make dims 40)
    :: List.init 8 (fun _ ->
           let lo = Array.init dims (fun _ -> W.Rng.int rng 56) in
           Sqp_geom.Box.make ~lo ~hi:(Array.map (fun l -> l + W.Rng.int rng 24) lo))
  in
  List.iteri
    (fun qi box ->
      let inside (p, _) = Sqp_geom.Box.contains_point box p in
      let expected = List.sort Stdlib.compare (List.filter inside (Array.to_list pts)) in
      let rows_p, cp = RS.search_plain prep box in
      let rows_pr, cpr = RS.search_plain_reference prep box in
      let rows_s, cs = RS.search_skip prep box in
      let rows_sr, csr = RS.search_skip_reference prep box in
      if rows_p <> rows_pr || not (counters_equal cp cpr) then
        Alcotest.failf "plain <> reference on box %d" qi;
      if rows_s <> rows_sr || not (counters_equal cs csr) then
        Alcotest.failf "skip <> reference on box %d" qi;
      if List.sort Stdlib.compare rows_s <> expected then
        Alcotest.failf "skip <> brute force on box %d" qi;
      if rows_p <> rows_s then Alcotest.failf "plain <> skip on box %d" qi)
    boxes

(* --- Spatial join: kernel merge vs reference merge ------------------- *)

let rel_pair left right =
  let module R = Sqp_relalg in
  let rel_of name z items =
    R.Relation.make ~name
      (R.Schema.make [ (name, R.Value.TInt); (z, R.Value.TZval) ])
      (List.map (fun (e, id) -> [| R.Value.Int id; R.Value.Zval e |]) items)
  in
  (rel_of "rid" "zr" left, rel_of "sid" "zs" right)

let check_join_matches_reference ~wide r s =
  let module Rel = Sqp_relalg.Relation in
  let joined, st = SJ.merge r ~zr:"zr" s ~zs:"zs" in
  let joined_ref, st_ref = SJ.merge_reference r ~zr:"zr" s ~zs:"zs" in
  check "identical tuples in identical order" true
    (Rel.tuples joined = Rel.tuples joined_ref);
  check_int "pairs" st.SJ.pairs st_ref.SJ.pairs;
  check_int "sorted_items" st.sorted_items st_ref.sorted_items;
  check_int "max_stack" st.max_stack st_ref.max_stack;
  if wide then check_int "reference path: comparisons" st_ref.comparisons st.comparisons;
  let _, st_nested = SJ.nested_loop r ~zr:"zr" s ~zs:"zs" in
  check_int "pairs vs nested oracle" st.SJ.pairs st_nested.SJ.pairs

let test_spatial_join_differential () =
  let left, right = W.Seeded.join_elements (Lazy.force wk) in
  let r, s = rel_pair left right in
  check_join_matches_reference ~wide:false r s

let test_spatial_join_tier ((dims, depth) as tier) () =
  let r, s = rel_pair (tier_elements ~seed:31 tier) (tier_elements ~seed:32 tier) in
  check_join_matches_reference ~wide:(dims * depth > P.word_bits) r s

let tier_cases test =
  List.map
    (fun tier -> Alcotest.test_case (tier_name tier) `Quick (test tier))
    tier_spaces

let () =
  Alcotest.run "zkernel"
    [
      ( "zseq",
        [
          Alcotest.test_case "stable sort" `Quick test_sort_keyed_stable;
          Alcotest.test_case "refuses long z" `Quick test_sort_keyed_refuses_wide;
        ] );
      ( "zmerge",
        [
          Alcotest.test_case "packed = reference = oracle" `Quick test_zmerge_differential;
          Alcotest.test_case "fallback beyond 126 bits" `Quick test_zmerge_fallback_long_elements;
          Alcotest.test_case "empty sides" `Quick test_zmerge_empty_sides;
        ]
        @ tier_cases test_zmerge_tier );
      ( "range search",
        Alcotest.test_case "packed = reference (rows + counters)" `Quick
          test_range_search_differential
        :: tier_cases test_range_search_tier );
      ( "spatial join",
        Alcotest.test_case "packed merge = reference merge" `Quick
          test_spatial_join_differential
        :: tier_cases test_spatial_join_tier );
    ]
