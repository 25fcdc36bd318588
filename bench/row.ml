(* The one benchmark result record.  Every bench returns a list of
   rows; [write] records them as BENCH_<name>.json (one JSON object per
   line, in a JSON array) and [gate] reads that file back.

   Unit ["count"] is reserved for deterministic counts (pages, rows,
   elements, bytes): a --quick run reproduces them exactly, so [gate]
   compares them against the committed baseline.  Tallies that move
   with timing or with --quick's smaller request volume name what they
   count instead ("requests", "frames", "retries"). *)

type layer = Kernel | Index | Plan | Loopback | Cluster

type t = {
  layer : layer;
  workload : string;
  metric : string;
  value : float;
  unit : string;
  seed : int;
  cores : int;
}

let layer_name = function
  | Kernel -> "kernel"
  | Index -> "index"
  | Plan -> "plan"
  | Loopback -> "loopback"
  | Cluster -> "cluster"

let cores = Domain.recommended_domain_count ()

let make layer ~seed workload metric unit value =
  { layer; workload; metric; value; unit; seed; cores }

let count layer ~seed workload metric n =
  make layer ~seed workload metric "count" (float_of_int n)

(* Invariant violations end the run with exit 1. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

(* Median wall time of [f] in ms, after one warm-up call (buffer pools,
   decompose cache): 9 repetitions, or 3 under --quick. *)
let median_ms ~quick f =
  let reps = if quick then 3 else 9 in
  ignore (f ());
  let samples =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  Array.sort compare samples;
  samples.(reps / 2)

let value_text r =
  if r.unit = "count" then Printf.sprintf "%.0f" r.value
  else Printf.sprintf "%.6g" r.value

let print name rows =
  Printf.printf "\n%s (%d cores)\n" name cores;
  List.iter
    (fun r ->
      Printf.printf "  %-8s %-34s %-28s %12s %s\n" (layer_name r.layer)
        r.workload r.metric (value_text r) r.unit)
    rows

let file name = Printf.sprintf "BENCH_%s.json" name

(* Names are plain ASCII, so OCaml's %S quoting is JSON string syntax,
   and [Scanf]'s %S reads it back. *)
let write name rows =
  let line r =
    Printf.sprintf
      {|  {"layer": %S, "workload": %S, "metric": %S, "value": %s, "unit": %S, "seed": %d, "cores": %d}|}
      (layer_name r.layer) r.workload r.metric (value_text r) r.unit r.seed
      r.cores
  in
  Out_channel.with_open_text (file name) (fun oc ->
      Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" (List.map line rows)));
  Printf.printf "  -> %s\n" (file name)

(* The count rows of a BENCH file, keyed by (layer, workload, metric). *)
let read_counts path =
  let parse line =
    try
      Scanf.sscanf line
        {| {"layer": %S, "workload": %S, "metric": %S, "value": %f, "unit": %S, "seed": %d, "cores": %d}|}
        (fun layer workload metric value unit _ _ ->
          Some ((layer, workload, metric), unit, value))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map parse

(* The --quick gate, closed on every failure: false (after saying why
   on stderr) if the committed baseline is missing or unreadable, if a
   count row is on one side only, or if a count differs. *)
let gate name rows =
  let path = file name in
  let counts l =
    List.filter_map (fun (k, unit, v) -> if unit = "count" then Some (k, v) else None) l
  in
  let problems =
    match read_counts path with
    | exception Sys_error msg -> [ "no baseline: " ^ msg ]
    | [] -> [ path ^ " holds no result rows" ]
    | base ->
        let base = counts base in
        let now =
          counts
            (List.map
               (fun r -> ((layer_name r.layer, r.workload, r.metric), r.unit, r.value))
               rows)
        in
        let show (l, w, m) = Printf.sprintf "%s / %s / %s" l w m in
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k base with
            | None -> Some (Printf.sprintf "%s = %.0f is not in %s" (show k) v path)
            | Some b when b <> v ->
                Some (Printf.sprintf "%s = %.0f, baseline %.0f" (show k) v b)
            | Some _ -> None)
          now
        @ List.filter_map
            (fun (k, _) ->
              if List.mem_assoc k now then None
              else Some (Printf.sprintf "%s is in %s but was not measured" (show k) path))
            base
  in
  List.iter (Printf.eprintf "%s: %s\n" name) problems;
  if problems = [] then
    Printf.printf "%s: every count matches %s\n" name path;
  problems = []
