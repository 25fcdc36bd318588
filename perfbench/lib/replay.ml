(* The traced replay: each workload's seeded request stream, run
   in-process through each layer's public function, one span per call.

   The replay is organised in passes.  A pass resets the process-wide
   decompose cache, sends its warm-up requests untimed, then times its
   measured requests; so every layer sees the cache a server answering
   only that stream would have (misses on fresh boxes, hits only by
   chance) and no pass warms another.

   The served pass mirrors what [Server.handle] does for a
   [Range_search] frame (decode, access decision, the chosen range path,
   encode); the other passes isolate one layer each.  Everything that is
   a count (elements, comparisons, rows, pages, bytes, fan-out) depends
   only on the seed and the sizes, which is what the test of this
   directory checks. *)

module R = Sqp_relalg
module Z = Sqp_zorder
module O = Sqp_optimizer
module P = Sqp_server.Protocol
module Catalog = Sqp_server.Catalog
module Shard_map = Sqp_server.Shard_map
module Box = Sqp_geom.Box
module RS = Sqp_core.Range_search
module Live = Sqp_btree.Live
module Zindex = Sqp_btree.Zindex
module Pool = Sqp_parallel.Pool
module Io = Sqp_storage.Stats

type sizes = {
  warm : int;  (** untimed box requests before each box pass *)
  boxes : int;  (** measured box requests per box pass *)
  joins : int;  (** measured join requests (after one untimed) *)
  steps : int;  (** measured ingest writer steps (after [lag] untimed) *)
}

let default_sizes = { warm = 400; boxes = 200; joins = 10; steps = 60 }

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  counts : (string * int) list;  (** totals that must repeat exactly *)
}

let now = Spans.now

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let us l = median l *. 1e6

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* A probe either records (measured requests) or just runs (warm-up). *)
type probe = { span : 'a. string -> (unit -> 'a) -> 'a; on : bool }

let off = { span = (fun _ f -> f ()); on = false }

type times = (string, float list) Hashtbl.t  (* span name -> durations, oldest first *)

(* What a pass measured: span durations by name, and the decompose
   cache's hits and misses over the measured requests alone. *)
type measured = { times : times; hits : int; misses : int }

let pass spans ~name ~warm ~measured f =
  Z.Decompose.reset_cache ();
  Array.iter (f off) warm;
  let c0 = Z.Decompose.cache_stats () in
  let times = Hashtbl.create 8 in
  Spans.with_span spans ~req:(-1) ("replay." ^ name) (fun () ->
      Array.iteri
        (fun k x ->
          let span : type a. string -> (unit -> a) -> a =
           fun n g ->
            let t0 = now () in
            let r = Spans.with_span spans ~req:k n g in
            let d = now () -. t0 in
            Hashtbl.replace times n (d :: Option.value ~default:[] (Hashtbl.find_opt times n));
            r
          in
          f { span; on = true } x)
        measured);
  let c1 = Z.Decompose.cache_stats () in
  {
    times;
    hits = c1.Z.Decompose.hits - c0.Z.Decompose.hits;
    misses = c1.Z.Decompose.misses - c0.Z.Decompose.misses;
  }

let get m name = List.rev (Option.value ~default:[] (Hashtbl.find_opt m.times name))

(* Pairwise sum of two spans recorded once per request. *)
let sum2 m a b = List.map2 ( +. ) (get m a) (get m b)

let frame request = P.encode_request { P.deadline_ms = None; idem = None; request }

let decode_request s = ignore (P.decode_request s)

let respond resp =
  let s = P.encode_response resp in
  ignore (P.decode_response s);
  String.length s

(* The coordinate rows the server answers a direct-path range with. *)
let coord_rows entries =
  R.Relation.make ~name:"range"
    (R.Schema.make [ ("x0", R.Value.TInt); ("x1", R.Value.TInt) ])
    (List.map (fun (p, _) -> [| R.Value.Int p.(0); R.Value.Int p.(1) |]) entries)

let live_rows entries =
  R.Relation.make ~name:"live"
    (R.Schema.make [ ("id", R.Value.TInt); ("x0", R.Value.TInt); ("x1", R.Value.TInt) ])
    (List.map
       (fun (p, id) -> [| R.Value.Int id; R.Value.Int p.(0); R.Value.Int p.(1) |])
       entries)

(* The served range path: [Server.range_search]'s choice between the
   direct kernel and the plan interpreter. *)
let served_range cat pool access ~lo ~hi =
  match access with
  | Catalog.Direct best ->
      let search =
        match best.O.Cost.method_ with
        | O.Cost.Plain -> RS.search_plain
        | O.Cost.Skip -> RS.search_skip
      in
      coord_rows (fst (search (Catalog.prepared_points cat) (Box.make ~lo ~hi)))
  | Catalog.Planned ->
      R.Plan.run_in_pool pool (R.Plan.optimize (Catalog.range_plan cat ~lo ~hi))

(* [Server.instantiate]: resolve, push-down-optimize, and let the
   cost-based optimizer choose once statistics exist. *)
let instantiate cat wplan =
  let plan = R.Plan.optimize (R.Wire.to_plan ~resolve:(Catalog.resolve cat) wplan) in
  match Catalog.stats cat with
  | None -> plan
  | Some st -> fst (O.Optimizer.choose_plan st plan)

let stored_io cat =
  List.filter_map
    (fun name ->
      match Catalog.resolve cat name with
      | Some (R.Plan.Scan_stored s) -> Some (R.Stored.stats s)
      | _ -> None)
    [ "R"; "S" ]

let io_total stats = Io.sum (List.map Io.snapshot stats)

let rec attr_sum name (n : R.Plan.node_report) =
  Option.value ~default:0 (List.assoc_opt name n.R.Plan.node_attrs)
  + List.fold_left (fun acc c -> acc + attr_sum name c) 0 n.R.Plan.children

(* The router's fan-out rule ([Router.read_targets]): a coarse cover
   of the box, kept shards are those whose z range it overlaps, all of
   them when none does.  [routing] is the router's cover budget. *)
let routing = { Z.Decompose.max_level = Some 8; max_elements = Some 64 }

let fanout space map box =
  let cover = Z.Decompose.decompose_box ~options:routing space ~lo:(Box.lo box) ~hi:(Box.hi box) in
  match Shard_map.overlapping map (Z.Zrange.elements_to_intervals space cover) with
  | [] -> List.length map.Shard_map.entries
  | targets -> List.length targets

(* The map of the 2-shard deployment [router.hop_ms] runs on: [sqp serve
   --shard i/2] owns the [i]th of two even z ranges, as [sqp route]
   assumes. *)
let cluster_map space = Shard_map.even space [ ("127.0.0.1", 1); ("127.0.0.1", 2) ]

let run ?(sizes = default_sizes) ~seed ~workload spans =
  let wk = Streams.dataset () in
  let space = wk.Sqp_workload.Seeded.space in
  let cat = Catalog.of_seeded wk in
  let analyzed = Catalog.of_seeded wk in
  ignore (Catalog.analyze analyzed);
  let prep = Catalog.prepared_points cat in
  let pindex = Catalog.point_index cat in
  let pool = Pool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let next_box = Streams.replay_boxes ~seed in
  let all = Array.init (sizes.warm + sizes.boxes) (fun _ -> next_box ()) in
  let warm = Array.sub all 0 sizes.warm in
  let boxes = Array.sub all sizes.warm sizes.boxes in
  let n = sizes.boxes in
  let bounds b = (Box.lo b, Box.hi b) in
  (* {2 The served range path} *)
  let direct = ref 0 and served_rows = ref 0 and served_bytes = ref 0 in
  let served =
    pass spans ~name:"served_range" ~warm ~measured:boxes (fun p b ->
        let lo, hi = bounds b in
        p.span "request" (fun () ->
            p.span "protocol.request" (fun () -> decode_request (frame (P.Range_search { lo; hi })));
            let access =
              p.span "catalog.decide" (fun () ->
                  ignore (Catalog.validate_bounds cat ~lo ~hi);
                  Catalog.range_access cat ~lo ~hi)
            in
            let rel = p.span "plan.range" (fun () -> served_range cat pool access ~lo ~hi) in
            let bytes = p.span "protocol.response" (fun () -> respond (P.Rows rel)) in
            if p.on then begin
              (match access with Catalog.Direct _ -> incr direct | Catalog.Planned -> ());
              served_rows := !served_rows + R.Relation.cardinality rel;
              served_bytes := !served_bytes + bytes
            end))
  in
  (* {2 One layer per pass} *)
  let elements = ref 0 in
  let decompose =
    pass spans ~name:"decompose" ~warm ~measured:boxes (fun p b ->
        let lo, hi = bounds b in
        let els = p.span "decompose.box" (fun () -> Z.Decompose.decompose_box space ~lo ~hi) in
        if p.on then elements := !elements + List.length els)
  in
  let comparisons = ref 0 and rows = ref 0 and examined = ref 0 in
  let skip =
    pass spans ~name:"range_search.skip" ~warm ~measured:boxes (fun p b ->
        let entries, c = p.span "range_search.skip" (fun () -> RS.search_skip prep b) in
        if p.on then begin
          comparisons := !comparisons + c.RS.comparisons;
          rows := !rows + List.length entries;
          examined := !examined + c.RS.point_steps + c.RS.point_jumps
        end)
  in
  let plain =
    pass spans ~name:"range_search.plain" ~warm ~measured:boxes (fun p b ->
        ignore (p.span "range_search.plain" (fun () -> RS.search_plain prep b)))
  in
  let decide_analyzed =
    pass spans ~name:"catalog.decide_analyzed" ~warm ~measured:boxes (fun p b ->
        let lo, hi = bounds b in
        ignore (p.span "catalog.decide_analyzed" (fun () -> Catalog.range_access analyzed ~lo ~hi)))
  in
  let pages = ref 0 and zresults = ref 0 and efficiency = ref 0. in
  let zindex =
    pass spans ~name:"zindex" ~warm ~measured:boxes (fun p b ->
        let _, st = p.span "zindex.range" (fun () -> Zindex.range_search pindex b) in
        if p.on then begin
          pages := !pages + st.Zindex.data_pages;
          zresults := !zresults + st.Zindex.results;
          efficiency := !efficiency +. Zindex.efficiency pindex st
        end)
  in
  let map = cluster_map space in
  let fan = ref 0 in
  ignore
    (pass spans ~name:"router.fanout" ~warm:[||] ~measured:boxes (fun p b ->
         let f = p.span "router.targets" (fun () -> fanout space map b) in
         if p.on then fan := !fan + f));
  (* {2 The join stream} *)
  let jbytes = ref 0 and jpairs = ref 0 and io = ref (Io.create ()) in
  let stats = stored_io cat in
  let join =
    pass spans ~name:"join" ~warm:[| () |] ~measured:(Array.make sizes.joins ()) (fun p () ->
        p.span "request" (fun () ->
            p.span "protocol.request" (fun () -> decode_request (frame (P.Query Streams.join_plan)));
            let before = io_total stats in
            let rel =
              p.span "plan.join" (fun () ->
                  R.Plan.run_in_pool pool (instantiate cat Streams.join_plan))
            in
            let delta = Io.diff ~after:(io_total stats) ~before in
            let bytes = p.span "protocol.response" (fun () -> respond (P.Rows rel)) in
            if p.on then begin
              io := Io.add !io delta;
              jbytes := !jbytes + bytes;
              jpairs := !jpairs + R.Relation.cardinality rel
            end))
  in
  let join_comparisons =
    let a = R.Plan.run_analyze_in_pool pool (instantiate cat Streams.join_plan) in
    attr_sum "comparisons" a.R.Plan.report
  in
  (* {2 The ingest stream: writer frames beside reader frames} *)
  let live = Option.get (Catalog.live cat "L") in
  let writer = Streams.writer ~seed in
  let next_live_box = Streams.live_boxes ~seed in
  let seq = ref 0 in
  let lbytes = ref 0 and lrows = ref 0 and lscanned = ref 0 in
  let mutation p request ops =
    p.span "request" (fun () ->
        incr seq;
        let idem = { P.client_id = 1; request_seq = !seq } in
        p.span "protocol.request" (fun () ->
            decode_request (P.encode_request { P.deadline_ms = None; idem = Some idem; request }));
        (match
           p.span "catalog.dedup_begin" (fun () ->
               Catalog.dedup_begin cat ~client_id:1 ~seq:!seq)
         with
        | Catalog.Fresh -> ()
        | _ -> failwith "replay: dedup window refused a fresh key");
        let s, applied = p.span "live.apply" (fun () -> Live.apply live ops) in
        let ack = P.encode_response (P.Ack { applied; seq = s }) in
        let bytes = p.span "protocol.response" (fun () -> respond (P.Ack { applied; seq = s })) in
        p.span "catalog.dedup_commit" (fun () ->
            Catalog.dedup_commit cat ~client_id:1 ~seq:!seq ack);
        if p.on then lbytes := !lbytes + bytes)
  in
  let step p (st : Streams.step) =
    mutation p
      (P.Insert { table = "L"; points = st.Streams.insert })
      (List.map (fun (pt, id) -> Live.Insert (pt, id)) st.Streams.insert);
    if st.Streams.delete <> [] then
      mutation p
        (P.Delete { table = "L"; points = st.Streams.delete })
        (List.map (fun pt -> Live.Delete pt) st.Streams.delete);
    let b = next_live_box () in
    let lo, hi = bounds b in
    p.span "request" (fun () ->
        p.span "protocol.request" (fun () ->
            decode_request (frame (P.Live_range { table = "L"; lo; hi })));
        let entries, sc =
          p.span "live.range" (fun () ->
              match Catalog.packed_index cat "L" with
              | Some (idx, s) when s = Live.seq live ->
                  let e, st = Zindex.range_search idx b in
                  (e, st.Zindex.entries_scanned)
              | _ ->
                  let e, st = Live.range_search (Live.snapshot live) b in
                  (e, st.Live.entries_scanned))
        in
        let bytes = p.span "protocol.response" (fun () -> respond (P.Rows (live_rows entries))) in
        if p.on then begin
          lbytes := !lbytes + bytes;
          lrows := !lrows + List.length entries;
          lscanned := !lscanned + sc
        end)
  in
  let steps = Array.init (Streams.lag + sizes.steps) (fun _ -> Streams.next_step writer) in
  let ingest =
    pass spans ~name:"ingest" ~warm:(Array.sub steps 0 Streams.lag)
      ~measured:(Array.sub steps Streams.lag sizes.steps) step
  in
  let ingest_frames = List.length (get ingest "protocol.request") in
  (* {2 The metrics} *)
  let frame_us, resp_bytes =
    match workload with
    | Streams.Range ->
        (us (sum2 served "protocol.request" "protocol.response"), ratio !served_bytes n)
    | Streams.Join ->
        (us (sum2 join "protocol.request" "protocol.response"), ratio !jbytes sizes.joins)
    | Streams.Ingest ->
        (us (sum2 ingest "protocol.request" "protocol.response"), ratio !lbytes ingest_frames)
  in
  let page_reads = !io.Io.physical_reads in
  let lookups = !io.Io.pool_hits + !io.Io.pool_misses in
  let metrics =
    [
      ("protocol.frame_us", frame_us, "us");
      ("protocol.response_bytes", resp_bytes, "bytes");
      ("catalog.decide_us", us (get served "catalog.decide"), "us");
      ("catalog.decide_analyzed_us", us (get decide_analyzed "catalog.decide_analyzed"), "us");
      ("catalog.direct_frac", ratio !direct n, "frac");
      ("catalog.dedup_us", us (sum2 ingest "catalog.dedup_begin" "catalog.dedup_commit"), "us");
      ("decompose.box_us", us (get decompose "decompose.box"), "us");
      ("decompose.elements_per_box", ratio !elements n, "count");
      ("decompose.cache_hit_frac", ratio served.hits (served.hits + served.misses), "frac");
      ("range_search.skip_us", us (get skip "range_search.skip"), "us");
      ("range_search.plain_us", us (get plain "range_search.plain"), "us");
      ("range_search.comparisons_per_box", ratio !comparisons n, "count");
      ("range_search.rows_per_box", ratio !rows n, "count");
      ("range_search.useful_frac", ratio !rows !examined, "frac");
      ("plan.range_us", us (get served "plan.range"), "us");
      ("plan.join_us", us (get join "plan.join"), "us");
      ("spatial_join.comparisons_per_join", float_of_int join_comparisons, "count");
      ("stored.page_reads_per_join", ratio page_reads sizes.joins, "count");
      ("stored.pool_hit_frac", ratio !io.Io.pool_hits lookups, "frac");
      ("zindex.data_pages_per_query", ratio !pages n, "count");
      ("zindex.efficiency", !efficiency /. float_of_int n, "frac");
      ("zindex.range_us", us (get zindex "zindex.range"), "us");
      ("live.apply_us_per_batch", us (get ingest "live.apply"), "us");
      ("live.range_us", us (get ingest "live.range"), "us");
      ("router.fanout_per_query", ratio !fan n, "count");
    ]
  in
  let counts =
    [
      ("served.rows", !served_rows);
      ("served.response_bytes", !served_bytes);
      ("served.direct", !direct);
      ("decompose.cache_hits", served.hits);
      ("decompose.elements", !elements);
      ("range_search.comparisons", !comparisons);
      ("range_search.rows", !rows);
      ("range_search.examined", !examined);
      ("zindex.data_pages", !pages);
      ("zindex.results", !zresults);
      ("router.fanout", !fan);
      ("join.pairs", !jpairs);
      ("join.comparisons", join_comparisons);
      ("join.page_reads", page_reads);
      ("join.pool_hits", !io.Io.pool_hits);
      ("join.response_bytes", !jbytes);
      ("live.rows", !lrows);
      ("live.entries_scanned", !lscanned);
      ("ingest.response_bytes", !lbytes);
    ]
  in
  { metrics; counts }
