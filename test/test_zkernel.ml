(* Differential suite for the word-key kernels: Zmerge, Range_search and
   Spatial_join must reproduce the bitstring oracles of test/oracle bit
   for bit — same rows in the same order, same counters — on the seeded
   workloads and on the widest spaces Space.make accepts (61 bits). *)

module Z = Sqp_zorder
module B = Z.Bitstring
module P = Z.Zpacked
module K = Z.Zkernel
module W = Sqp_workload
module RS = Sqp_core.Range_search
module Zmerge = Sqp_core.Zmerge
module SJ = Sqp_relalg.Spatial_join
module O = Sqp_oracle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let wk = lazy (W.Seeded.standard ())

(* The widest spaces: 1 x 61 and 2 x 30 (the 2-D maximum, 60 bits). *)
let widest_spaces = [ (1, 61); (2, 30) ]

(* --- Sorting a z sequence: Zkernel.sort_keyed ------------------------ *)

let test_sort_keyed_stable () =
  let comparisons = ref 0 in
  let labels = [| "a"; "b"; "c"; "d"; "e" |] in
  let zs =
    Array.map (fun s -> P.of_bitstring (B.of_string s)) [| "10"; "01"; "10"; "0"; "10" |]
  in
  let perm, _ = K.sort_keyed ~comparisons zs in
  Alcotest.(check (list string))
    "z order, ties in input order" [ "d"; "b"; "a"; "c"; "e" ]
    (Array.to_list (Array.map (fun i -> labels.(i)) perm));
  check "counted sort work" true (!comparisons > 0)

let test_sort_keyed_refuses_long () =
  let value bits = B.init bits (fun i -> i mod 2 = 0) in
  let perm, _ =
    K.sort_keyed ~comparisons:(ref 0) [| P.of_bitstring (value 61); P.empty |]
  in
  check "61 bits sort" true (perm = [| 1; 0 |]);
  match P.of_bitstring (value 62) with
  | _ -> Alcotest.fail "62 bits must not pack"
  | exception Invalid_argument _ -> ()

(* --- Comparisons shared with the oracle ------------------------------ *)

(* The kernels sort word keys and the oracle sorts lists, so their sort
   comparisons differ by design.  What follows the sort — the two-way
   merge of the sorted sides and the stack sweep — must cost exactly the
   same comparisons. *)
let kernel_sort_comparisons side =
  let c = ref 0 in
  let zs = Array.of_list (List.map (fun (z, _) -> P.of_bitstring z) side) in
  ignore (K.sort_keyed ~comparisons:c zs);
  !c

let list_sort_comparisons side =
  let c = ref 0 in
  ignore
    (List.sort
       (fun (a, _) (b, _) ->
         incr c;
         B.compare a b)
       side);
  !c

let check_sweep_comparisons ~kernel ~oracle left right =
  check_int "merge + sweep comparisons"
    (oracle - list_sort_comparisons left - list_sort_comparisons right)
    (kernel - kernel_sort_comparisons left - kernel_sort_comparisons right)

(* --- Zmerge: kernel vs oracle vs naive ------------------------------- *)

let canon pairs = List.sort Stdlib.compare pairs

let check_zmerge_matches_oracle left right =
  let fast, fs = Zmerge.pairs left right in
  let ref_, rs = O.pairs_reference left right in
  check "identical pairs in identical order" true (fast = ref_);
  check_int "same pair count" rs.Zmerge.pairs fs.Zmerge.pairs;
  check_int "same item count" rs.items fs.items;
  check_sweep_comparisons ~kernel:fs.comparisons ~oracle:rs.comparisons left right;
  let naive, ns = Zmerge.pairs_naive left right in
  check "multiset equals the naive oracle" true (canon fast = canon naive);
  check_int "naive pair count" ns.Zmerge.pairs fs.Zmerge.pairs;
  fast

let test_zmerge_differential () =
  let left, right = W.Seeded.join_elements (Lazy.force wk) in
  ignore (check_zmerge_matches_oracle left right)

let test_zmerge_refuses_long_elements () =
  (* 61-bit elements are the widest the kernel takes; one bit more is
     refused. *)
  let base = B.init 59 (fun i -> i mod 3 = 0) in
  let extend bits = B.concat base (B.of_string bits) in
  let left = [ (base, "l0"); (extend "01", "l1"); (B.empty, "l2") ] in
  let right = [ (extend "0", "r0"); (extend "11", "r1"); (base, "r2") ] in
  check "61 bits: some pairs" true (check_zmerge_matches_oracle left right <> []);
  match Zmerge.pairs [ (extend "010", "l") ] right with
  | _ -> Alcotest.fail "a 62-bit element must be refused"
  | exception Invalid_argument _ -> ()

let test_zmerge_empty_sides () =
  let some = [ (B.of_string "01", 1) ] in
  List.iter
    (fun (l, r) -> check "empty side" true (check_zmerge_matches_oracle l r = []))
    [ ([], []); (some, []); ([], some) ]

(* Decomposed boxes near the origin of a space, tagged by object: the
   same element workload at every depth. *)
let space_elements ~seed (dims, depth) =
  let space = Z.Space.make ~dims ~depth in
  let rng = W.Rng.create ~seed in
  List.concat
    (List.init 10 (fun id ->
         let lo = Array.init dims (fun _ -> W.Rng.int rng 8) in
         let hi = Array.map (fun l -> l + 1 + W.Rng.int rng 4) lo in
         List.map (fun e -> (e, id)) (Z.Decompose.decompose_box space ~lo ~hi)))

let test_zmerge_widest () =
  List.iter
    (fun dd ->
      let left = space_elements ~seed:31 dd and right = space_elements ~seed:32 dd in
      check "some pairs" true (check_zmerge_matches_oracle left right <> []))
    widest_spaces

(* --- Range search: kernel vs oracle, rows AND counters --------------- *)

let counters_equal (a : RS.counters) (b : RS.counters) =
  a.point_steps = b.point_steps
  && a.element_steps = b.element_steps
  && a.point_jumps = b.point_jumps
  && a.element_jumps = b.element_jumps
  && a.comparisons = b.comparisons

let check_range_matches_oracle space pts boxes =
  let prep = RS.prepare space pts and oracle = O.prepare space pts in
  List.iteri
    (fun qi box ->
      let rows_p, cp = RS.search_plain prep box in
      let rows_pr, cpr = O.search_plain_reference oracle box in
      if rows_p <> rows_pr then Alcotest.failf "plain rows differ on box %d" qi;
      if not (counters_equal cp cpr) then
        Alcotest.failf "plain counters differ on box %d" qi;
      let rows_s, cs = RS.search_skip prep box in
      let rows_sr, csr = O.search_skip_reference oracle box in
      if rows_s <> rows_sr then Alcotest.failf "skip rows differ on box %d" qi;
      if not (counters_equal cs csr) then
        Alcotest.failf "skip counters differ on box %d" qi;
      if rows_p <> rows_s then Alcotest.failf "plain <> skip on box %d" qi;
      let inside (p, _) = Sqp_geom.Box.contains_point box p in
      let expected = List.sort Stdlib.compare (List.filter inside (Array.to_list pts)) in
      if List.sort Stdlib.compare rows_s <> expected then
        Alcotest.failf "skip <> brute force on box %d" qi)
    boxes

let test_range_search_differential () =
  let wk = Lazy.force wk in
  check_range_matches_oracle wk.W.Seeded.space (W.Seeded.tagged_points wk)
    (wk.W.Seeded.query :: Array.to_list (Array.sub wk.W.Seeded.query_boxes 0 120))

let test_range_search_widest () =
  List.iter
    (fun (dims, depth) ->
      (* Points near the origin of the space, some boxes clipped by it. *)
      let rng = W.Rng.create ~seed:2024 in
      let pts = Array.init 200 (fun i -> (Array.init dims (fun _ -> W.Rng.int rng 64), i)) in
      let boxes =
        Sqp_geom.Box.make ~lo:(Array.make dims 8) ~hi:(Array.make dims 40)
        :: List.init 8 (fun _ ->
               let lo = Array.init dims (fun _ -> W.Rng.int rng 56) in
               Sqp_geom.Box.make ~lo ~hi:(Array.map (fun l -> l + W.Rng.int rng 24) lo))
      in
      check_range_matches_oracle (Z.Space.make ~dims ~depth) pts boxes)
    widest_spaces

(* --- Spatial join: kernel merge vs oracle merge ---------------------- *)

let rel_pair left right =
  let module R = Sqp_relalg in
  let rel_of name z items =
    R.Relation.make ~name
      (R.Schema.make [ (name, R.Value.TInt); (z, R.Value.TZval) ])
      (List.map (fun (e, id) -> [| R.Value.Int id; R.Value.Zval e |]) items)
  in
  (rel_of "rid" "zr" left, rel_of "sid" "zs" right)

let check_join_matches_oracle left right =
  let module Rel = Sqp_relalg.Relation in
  let r, s = rel_pair left right in
  let joined, st = SJ.merge r ~zr:"zr" s ~zs:"zs" in
  let joined_ref, st_ref = O.merge_reference r ~zr:"zr" s ~zs:"zs" in
  check "identical tuples in identical order" true
    (Rel.tuples joined = Rel.tuples joined_ref);
  check "some tuples" true (Rel.tuples joined <> []);
  check_int "pairs" st_ref.SJ.pairs st.SJ.pairs;
  check_int "sorted_items" st_ref.sorted_items st.sorted_items;
  check_int "max_stack" st_ref.max_stack st.max_stack;
  (* The join oracle sorts R and S as one list, the kernel each side and
     then merges them — the Zmerge oracle's shape, so its comparisons are
     the ones the kernel must match. *)
  let _, zs_ref = O.pairs_reference left right in
  check_sweep_comparisons ~kernel:st.comparisons ~oracle:zs_ref.Zmerge.comparisons left
    right;
  let _, st_nested = SJ.nested_loop r ~zr:"zr" s ~zs:"zs" in
  check_int "pairs vs nested oracle" st_nested.SJ.pairs st.SJ.pairs

let test_spatial_join_differential () =
  let left, right = W.Seeded.join_elements (Lazy.force wk) in
  check_join_matches_oracle left right

let test_spatial_join_widest () =
  List.iter
    (fun dd ->
      check_join_matches_oracle (space_elements ~seed:31 dd) (space_elements ~seed:32 dd))
    widest_spaces

let () =
  Alcotest.run "zkernel"
    [
      ( "zseq",
        [
          Alcotest.test_case "stable sort" `Quick test_sort_keyed_stable;
          Alcotest.test_case "refuses long z" `Quick test_sort_keyed_refuses_long;
        ] );
      ( "zmerge",
        [
          Alcotest.test_case "packed = reference = oracle" `Quick test_zmerge_differential;
          Alcotest.test_case "refuses long elements" `Quick
            test_zmerge_refuses_long_elements;
          Alcotest.test_case "empty sides" `Quick test_zmerge_empty_sides;
          Alcotest.test_case "widest spaces = oracle" `Quick test_zmerge_widest;
        ] );
      ( "range search",
        [
          Alcotest.test_case "packed = reference (rows + counters)" `Quick
            test_range_search_differential;
          Alcotest.test_case "widest spaces = oracle" `Quick test_range_search_widest;
        ] );
      ( "spatial join",
        [
          Alcotest.test_case "packed merge = reference merge" `Quick
            test_spatial_join_differential;
          Alcotest.test_case "widest spaces = oracle" `Quick test_spatial_join_widest;
        ] );
    ]
