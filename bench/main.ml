(* The benchmark harness: [main.exe [NAME...] [--quick]].

   Every bench returns rows of one record ({!Row.t}).  A full run
   prints them and re-records BENCH_<NAME>.json in the current
   directory; --quick cuts repetitions (and, for chaos and cluster,
   request counts), prints the rows, writes no file and gates every
   count row against the committed BENCH_<NAME>.json, failing closed.
   With no NAME it runs every bench.  Exit 1 on a failed gate or
   invariant, 2 on a bad argument. *)

let benches =
  [
    ("kernels", Kernels.run);
    ("obs", Obs.run);
    ("optimizer", Optimizer.run);
    ("compress", Compress.run);
    ("chaos", Chaos.run);
    ("cluster", Cluster.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let names = List.filter (( <> ) "--quick") args in
  (match List.find_opt (fun n -> not (List.mem_assoc n benches)) names with
  | Some arg ->
      Printf.eprintf "bench: unknown argument %s\nusage: %s [%s]... [--quick]\n" arg
        Sys.argv.(0)
        (String.concat "|" (List.map fst benches));
      exit 2
  | None -> ());
  let names = if names = [] then List.map fst benches else names in
  let gates =
    List.map
      (fun name ->
        let rows = (List.assoc name benches) ~quick in
        Row.print name rows;
        if quick then Row.gate name rows
        else begin
          Row.write name rows;
          true
        end)
      names
  in
  if not (List.for_all Fun.id gates) then exit 1
