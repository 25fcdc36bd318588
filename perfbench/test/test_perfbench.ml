(* The traced replay's counts are a function of the seed alone: two
   replays with one seed must agree on every page, comparison, element,
   row, response byte and fan-out total, or the per-layer ladder cannot
   attribute a change to a layer. *)

module Replay = Perfbench.Replay
module Streams = Perfbench.Streams

let sizes = { Replay.warm = 40; boxes = 30; joins = 2; steps = 12 }

let counts workload =
  (Replay.run ~sizes ~seed:5 ~workload (Perfbench.Spans.create ())).Replay.counts

let repeats workload () =
  let first = counts workload and second = counts workload in
  Alcotest.(check (list (pair string int))) "counts repeat" first second;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is counted") true (List.assoc name first > 0))
    [ "decompose.elements"; "range_search.comparisons"; "served.rows"; "zindex.data_pages";
      "router.fanout"; "join.comparisons"; "join.page_reads"; "ingest.response_bytes" ]

let () =
  Alcotest.run "perfbench"
    [
      ("replay", [ Alcotest.test_case "range counts repeat" `Quick (repeats Streams.Range) ]);
    ]
