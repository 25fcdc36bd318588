(* Properties of the domain pool: task order, the 1-domain degenerate
   case, failed batches, reuse and shutdown. *)

module Pool = Sqp_parallel.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_pool_map_order () =
  Pool.with_pool ~domains:3 (fun pool ->
      let input = Array.init 200 Fun.id in
      let out = Pool.map pool (fun x -> x * x) input in
      Array.iteri (fun i y -> check_int "square in order" (i * i) y) out)

let test_pool_single_domain () =
  Pool.with_pool ~domains:1 (fun pool ->
      check_int "no workers" 1 (Pool.domains pool);
      let out = Pool.run pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ] in
      check "sequential degenerate" true (out = [ 1; 2; 3 ]))

let test_pool_empty_batch () =
  Pool.with_pool ~domains:2 (fun pool ->
      check "empty map" true (Pool.map pool Fun.id [||] = [||]);
      check "empty run" true (Pool.run pool [] = []))

exception Boom of int

let test_pool_exception_propagates () =
  Pool.with_pool ~domains:3 (fun pool ->
      (try
         ignore
           (Pool.map pool
              (fun x -> if x = 7 then raise (Boom x) else x)
              (Array.init 20 Fun.id));
         Alcotest.fail "expected Boom"
       with Boom 7 -> ());
      (* The batch drained cleanly: the pool is still usable. *)
      let out = Pool.map pool succ [| 1; 2; 3 |] in
      check "pool survives a failed batch" true (out = [| 2; 3; 4 |]))

let test_pool_many_batches () =
  Pool.with_pool ~domains:4 (fun pool ->
      for batch = 1 to 50 do
        let out = Pool.map pool (fun x -> x + batch) (Array.init 17 Fun.id) in
        Array.iteri (fun i y -> check_int "batch result" (i + batch) y) out
      done)

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 in
  ignore (Pool.map pool Fun.id [| 1 |]);
  Pool.shutdown pool;
  Pool.shutdown pool

let test_pool_invalid () =
  Alcotest.check_raises "domains 0" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "single domain" `Quick test_pool_single_domain;
          Alcotest.test_case "empty batch" `Quick test_pool_empty_batch;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "many batches" `Quick test_pool_many_batches;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "invalid sizes" `Quick test_pool_invalid;
        ] );
    ]
