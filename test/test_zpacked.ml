(* Differential fuzz: Zpacked must agree with Bitstring — the reference
   representation — on every observation for every length up to
   Space.max_total_bits (61), and refuse anything longer. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module P = Z.Zpacked
module Rng = Sqp_workload.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let max_bits = Z.Space.max_total_bits

let pack_exn = P.of_bitstring

let refused what f =
  match f () with
  | _ -> Alcotest.failf "%s should raise" what
  | exception Invalid_argument _ -> ()

let random_bits rng len = B.init len (fun _ -> Rng.bool rng)

(* Pairs biased toward the interesting cases: exact prefixes, one-bit
   perturbations near the end, shared long prefixes — plus independent
   strings. *)
let random_pair rng =
  let a = random_bits rng (Rng.int rng (max_bits + 1)) in
  let b =
    match Rng.int rng 4 with
    | 0 ->
        (* extension of a *)
        let extra = Rng.int rng (max_bits + 1 - B.length a) in
        B.concat a (random_bits rng extra)
    | 1 when not (B.is_empty a) ->
        (* flip one bit *)
        let i = Rng.int rng (B.length a) in
        B.set a i (not (B.get a i))
    | 2 when not (B.is_empty a) ->
        (* a prefix of a *)
        B.take a (Rng.int rng (B.length a + 1))
    | _ -> random_bits rng (Rng.int rng (max_bits + 1))
  in
  (a, b)

let sign x = Stdlib.compare x 0

let test_agree_with_bitstring () =
  let rng = Rng.create ~seed:4242 in
  for _ = 1 to 3000 do
    let a, b = random_pair rng in
    let pa = pack_exn a and pb = pack_exn b in
    check_int "compare" (sign (B.compare a b)) (sign (P.compare pa pb));
    check "equal" (B.equal a b) (P.equal pa pb);
    check "is_prefix a b" (B.is_prefix a b) (P.is_prefix pa pb);
    check "is_prefix b a" (B.is_prefix b a) (P.is_prefix pb pa);
    check "contains" (P.is_prefix pa pb) (P.contains pa pb);
    check_int "common_prefix_len" (B.common_prefix_len a b)
      (P.common_prefix_len pa pb)
  done

let test_observation_roundtrip () =
  let rng = Rng.create ~seed:77001 in
  for _ = 1 to 500 do
    let a = random_bits rng (Rng.int rng (max_bits + 1)) in
    let pa = pack_exn a in
    check_int "length" (B.length a) (P.length pa);
    for i = 0 to B.length a - 1 do
      check "get" (B.get a i) (P.get pa i)
    done;
    check "to_bitstring roundtrip" true (B.equal (P.to_bitstring pa) a)
  done

let test_pad_to () =
  let rng = Rng.create ~seed:31337 in
  for _ = 1 to 500 do
    let a = random_bits rng (Rng.int rng (max_bits + 1)) in
    let pa = pack_exn a in
    let n = Rng.int_in rng (B.length a) max_bits in
    List.iter
      (fun bit ->
        check "pad_to agrees" true
          (B.equal (P.to_bitstring (P.pad_to pa n bit)) (B.pad_to a n bit)))
      [ false; true ]
  done;
  refused "pad_to shorter" (fun () -> P.pad_to (pack_exn (B.of_string "01")) 1 false);
  refused "pad_to beyond 61 bits" (fun () -> P.pad_to P.empty (max_bits + 1) true)

let test_long_refused () =
  let rng = Rng.create ~seed:555 in
  (* exactly 61 bits packs... *)
  let at = random_bits rng max_bits in
  check "61-bit roundtrip" true (B.equal (P.to_bitstring (pack_exn at)) at);
  (* ...one more does not, however it is built *)
  refused "of_bitstring 62 bits" (fun () -> P.of_bitstring (random_bits rng (max_bits + 1)));
  refused "append past 61 bits" (fun () ->
      P.append_bytes (pack_exn at) ~bytes:"\x80" ~pos:0 ~nbits:1)

let test_word_boundary_cases () =
  (* Hand-picked strings at the bottom of the word, where the last bits
     of a 61-bit value live. *)
  let zeros n = B.init n (fun _ -> false) in
  let ones n = B.init n (fun _ -> true) in
  let cases =
    [
      zeros 59; zeros 60; zeros 61; ones 59; ones 60; ones 61;
      B.concat (zeros 60) (ones 1);
      B.concat (ones 60) (zeros 1);
      B.concat (zeros 30) (ones 31);
      B.empty;
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let pa = pack_exn a and pb = pack_exn b in
          check_int "compare" (sign (B.compare a b)) (sign (P.compare pa pb));
          check "is_prefix" (B.is_prefix a b) (P.is_prefix pa pb);
          check_int "common_prefix_len" (B.common_prefix_len a b)
            (P.common_prefix_len pa pb))
        cases)
    cases

let test_shuffle_unshuffle () =
  let rng = Rng.create ~seed:90210 in
  let spaces =
    [
      Z.Space.make ~dims:2 ~depth:10;
      Z.Space.make ~dims:2 ~depth:30;
      Z.Space.make ~dims:3 ~depth:20;
      Z.Space.make ~dims:1 ~depth:61;
      Z.Space.make ~dims:7 ~depth:8; (* odd arity *)
    ]
  in
  List.iter
    (fun space ->
      for _ = 1 to 100 do
        let coords =
          Array.init (Z.Space.dims space) (fun _ ->
              Rng.int rng (Z.Space.side space))
        in
        let p = P.shuffle space coords in
        let b = Z.Interleave.shuffle space coords in
        check "shuffle agrees" true (B.equal (P.to_bitstring p) b);
        let up = P.unshuffle space p and ub = Z.Interleave.unshuffle space b in
        check "unshuffle agrees" true (up = ub);
        check "coords roundtrip" true (Array.map fst up = coords)
      done)
    spaces;
  (* partial (element) z values unshuffle identically too *)
  let space = Z.Space.make ~dims:2 ~depth:10 in
  for _ = 1 to 200 do
    let z = random_bits rng (Rng.int rng (Z.Space.total_bits space + 1)) in
    check "partial unshuffle" true
      (P.unshuffle space (pack_exn z) = Z.Interleave.unshuffle space z)
  done

let test_widest_spaces_pack () =
  (* In a 61-bit space the word of a pixel's z value is its z-curve
     rank; narrower spaces shift it up to the top of the word. *)
  List.iter
    (fun (dims, depth) ->
      let space = Z.Space.make ~dims ~depth in
      let total = Z.Space.total_bits space in
      List.iter
        (fun c ->
          let coords = Array.make dims c in
          check_int "word = rank, top-aligned"
            (Z.Interleave.rank space coords lsl (max_bits - total))
            (P.shuffle space coords).P.w)
        [ 0; 1; Z.Space.side space - 1 ])
    [ (1, 61); (2, 30); (3, 20); (61, 1) ];
  refused "a 62-bit space" (fun () -> Z.Space.make ~dims:2 ~depth:31)

let test_order_is_total () =
  (* Sorting packed and reference representations of the same set must
     produce the same sequence. *)
  let rng = Rng.create ~seed:60902 in
  let bits = Array.init 500 (fun _ -> random_bits rng (Rng.int rng (max_bits + 1))) in
  let packed = Array.map pack_exn bits in
  let b = Array.copy bits and p = Array.copy packed in
  Array.sort B.compare b;
  Array.sort P.compare p;
  Array.iteri
    (fun i pb -> check "same sort order" true (B.equal (P.to_bitstring pb) b.(i)))
    p

(* The Zrun building blocks: take / suffix_bytes / append_bytes must
   compose back to the identity at every split point, and the stored
   suffix must match a reference bit-by-bit extraction. *)
let test_surgery_roundtrip () =
  let rng = Rng.create ~seed:880 in
  for _ = 1 to 800 do
    let a = random_bits rng (Rng.int rng (max_bits + 1)) in
    let pa = pack_exn a in
    let s = Rng.int rng (B.length a + 1) in
    check "take agrees" true
      (B.equal (P.to_bitstring (P.take pa s)) (B.take a s));
    let tail = P.length pa - s in
    let suffix = P.suffix_bytes pa ~pos:s in
    check_int "suffix byte count" ((tail + 7) / 8) (String.length suffix);
    (* bits pack MSB-first; padding past the last bit is zero *)
    String.iteri
      (fun i c ->
        let c = Char.code c in
        for bit = 0 to 7 do
          let idx = s + (8 * i) + bit in
          let expect = idx < P.length pa && P.get pa idx in
          check "suffix bit" expect (c land (0x80 lsr bit) <> 0)
        done)
      suffix;
    check "split/rejoin identity" true
      (P.equal pa (P.append_bytes (P.take pa s) ~bytes:suffix ~pos:0 ~nbits:tail));
    (* reading the suffix out of a larger buffer, as Zrun does *)
    let embedded = "\xAA\xBB" ^ suffix ^ "\xCC" in
    check "embedded rejoin" true
      (P.equal pa (P.append_bytes (P.take pa s) ~bytes:embedded ~pos:2 ~nbits:tail))
  done;
  (* grafting a suffix onto a different prefix keeps exactly those bits *)
  let rng = Rng.create ~seed:881 in
  for _ = 1 to 300 do
    let a = pack_exn (random_bits rng (Rng.int rng (max_bits + 1))) in
    let s = Rng.int rng (P.length a + 1) in
    let prefix_len = Rng.int rng (max_bits - (P.length a - s) + 1) in
    let prefix = pack_exn (random_bits rng prefix_len) in
    let tail = P.length a - s in
    let grafted =
      P.append_bytes prefix ~bytes:(P.suffix_bytes a ~pos:s) ~pos:0 ~nbits:tail
    in
    check_int "grafted length" (prefix_len + tail) (P.length grafted);
    check "grafted prefix" true (P.equal prefix (P.take grafted prefix_len));
    for i = 0 to tail - 1 do
      check "grafted suffix bit" (P.get a (s + i)) (P.get grafted (prefix_len + i))
    done
  done

let test_surgery_guards () =
  let p = pack_exn (B.of_string "10110") in
  (match P.take p 6 with
  | _ -> Alcotest.fail "take beyond length should raise"
  | exception Invalid_argument _ -> ());
  (match P.take p (-1) with
  | _ -> Alcotest.fail "negative take should raise"
  | exception Invalid_argument _ -> ());
  (match P.suffix_bytes p ~pos:6 with
  | _ -> Alcotest.fail "suffix_bytes beyond length should raise"
  | exception Invalid_argument _ -> ());
  (match P.suffix_bytes p ~pos:(-1) with
  | _ -> Alcotest.fail "negative suffix_bytes pos should raise"
  | exception Invalid_argument _ -> ());
  let full = pack_exn (B.init max_bits (fun _ -> true)) in
  (match P.append_bytes full ~bytes:"\xff" ~pos:0 ~nbits:1 with
  | _ -> Alcotest.fail "append past 61 bits should raise"
  | exception Invalid_argument _ -> ());
  (match P.append_bytes P.empty ~bytes:"\xff" ~pos:0 ~nbits:9 with
  | _ -> Alcotest.fail "append past the buffer should raise"
  | exception Invalid_argument _ -> ());
  (* boundary cases that must NOT raise *)
  check "empty suffix of empty" true (P.suffix_bytes P.empty ~pos:0 = "");
  check "append nothing" true
    (P.equal p (P.append_bytes p ~bytes:"" ~pos:0 ~nbits:0));
  check_int "append up to 61 bits" max_bits
    (P.length
       (P.append_bytes (P.take full 55)
          ~bytes:(P.suffix_bytes full ~pos:55) ~pos:0 ~nbits:6))

let test_hash_consistent () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 200 do
    let a = random_bits rng (Rng.int rng (max_bits + 1)) in
    check_int "hash stable across conversions" (P.hash (pack_exn a))
      (P.hash (pack_exn (P.to_bitstring (pack_exn a))))
  done

let () =
  Alcotest.run "zpacked"
    [
      ( "differential",
        [
          Alcotest.test_case "agrees with Bitstring" `Quick test_agree_with_bitstring;
          Alcotest.test_case "get/length/to_bitstring" `Quick test_observation_roundtrip;
          Alcotest.test_case "pad_to" `Quick test_pad_to;
          Alcotest.test_case "sorting agreement" `Quick test_order_is_total;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "longer than one word refused" `Quick test_long_refused;
          Alcotest.test_case "word straddling" `Quick test_word_boundary_cases;
          Alcotest.test_case "widest spaces pack" `Quick test_widest_spaces_pack;
        ] );
      ( "interleaving",
        [
          Alcotest.test_case "shuffle/unshuffle" `Quick test_shuffle_unshuffle;
        ] );
      ( "bit surgery",
        [
          Alcotest.test_case "split/rejoin roundtrip" `Quick
            test_surgery_roundtrip;
          Alcotest.test_case "guards" `Quick test_surgery_guards;
        ] );
      ( "misc",
        [ Alcotest.test_case "hash" `Quick test_hash_consistent ] );
    ]
