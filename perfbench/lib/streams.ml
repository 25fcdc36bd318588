(* The seeded request streams of the three workloads.

   Every stream is a pure function of the benchmark seed: the load
   generator, the traced replay and the answer oracles all draw from
   here, so "request k of the range workload under seed 7" names the
   same box everywhere.  The data set itself is not seeded by the
   benchmark: it is the server's canonical catalog
   ({!Sqp_workload.Seeded.standard}, 5000 points, 48 objects per join
   side), which [sqp serve] builds from its own fixed seeds. *)

module Box = Sqp_geom.Box
module Rng = Sqp_workload.Rng
module Seeded = Sqp_workload.Seeded

type workload = Range | Join | Ingest

let workloads = [ Range; Join; Ingest ]

let name = function
  | Range -> "range"
  | Join -> "join"
  | Ingest -> "ingest"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* Every workload's load comes from this many closed-loop connections
   (the [ingest] pair is one writer and one reader). *)
let connections = 2

let data = lazy (Seeded.standard ())

let dataset () = Lazy.force data

let side () = Seeded.side (dataset ())

(* Independent generators per (seed, stream, client): the salt keeps the
   range boxes, the ingest reader's boxes and the ingest writer's
   points from sharing a sequence. *)
let rng ~seed ~salt ~client =
  Rng.create ~seed:((seed * 7919) + (salt * 104_729) + client)

(* A box up to a quarter of the grid side on each axis — the same
   distribution as the canonical 400 query boxes, from another seed. *)
let draw_box rng =
  let side = side () in
  let w = 1 + Rng.int rng (side / 4) and h = 1 + Rng.int rng (side / 4) in
  let x = Rng.int rng (side - w) and y = Rng.int rng (side - h) in
  Box.of_ranges [ (x, x + w - 1); (y, y + h - 1) ]

(* [range]: client [c]'s fresh boxes, generated on demand. *)
let range_boxes ~seed ~client =
  let r = rng ~seed ~salt:1 ~client in
  fun () -> draw_box r

(* [ingest]: the reader's [Live_range] boxes. *)
let live_boxes ~seed =
  let r = rng ~seed ~salt:2 ~client:0 in
  fun () -> draw_box r

(* The boxes that fill the server's decompose cache before the window
   opens (see [fill_count]); a stream of its own, so the window's boxes
   stay fresh. *)
let fill_boxes ~seed =
  let r = rng ~seed ~salt:3 ~client:0 in
  fun () -> draw_box r

(* Enough fresh boxes to fill the server's 512-entry decompose cache and
   start evicting, so the window sees the cache's steady state. *)
let fill_count = 640

(* The box stream the traced replay's range-path layers see: the
   [range] workload's boxes, interleaved round-robin across clients as
   the server receives them.  [join] and [ingest] replay it too, since
   their requests never reach those layers. *)
let replay_boxes ~seed =
  let gens = Array.init connections (fun client -> range_boxes ~seed ~client) in
  let k = ref 0 in
  fun () ->
    let b = gens.(!k mod Array.length gens) () in
    incr k;
    b

(* The join workload's only request: the canonical R ⋈ S overlap plan,
   exactly as a client sends it. *)
let join_plan =
  Sqp_relalg.Wire.(
    Project
      ( [ "rid"; "sid" ],
        Spatial_join { zl = "zr"; zr = "zs"; left = Scan "R"; right = Scan "S" } ))

(* {1 Ingest writer}

   Step [i] inserts batch [i] ([batch] fresh points, ids from
   [first_insert_id]) and, once [i >= lag], deletes batch [i - lag].
   The live table therefore stays between [initial + lag * batch] and
   [initial + (lag + 1) * batch] entries whatever the writer's speed.
   Inserted points avoid the canonical points and every inserted point
   still live, so each delete removes exactly the entry its batch
   inserted and the table's contents are known at every acked step. *)

let batch = 16

let lag = 8

let first_insert_id = 1_000_000

type step = {
  index : int;
  insert : (int array * int) list;  (** (point, id) *)
  delete : int array list;  (** batch [index - lag]'s points, or [] *)
}

type writer = {
  wrng : Rng.t;
  taken : (int * int, unit) Hashtbl.t;  (* canonical + live inserted points *)
  batches : (int, (int array * int) list) Hashtbl.t;  (* not yet deleted *)
  point_of_id : (int, int array) Hashtbl.t;  (* every id ever inserted *)
  mutable next : int;
}

let writer ~seed =
  let taken = Hashtbl.create 8192 in
  Array.iter (fun p -> Hashtbl.replace taken (p.(0), p.(1)) ()) (dataset ()).Seeded.points;
  {
    wrng = rng ~seed ~salt:4 ~client:0;
    taken;
    batches = Hashtbl.create 64;
    point_of_id = Hashtbl.create 4096;
    next = 0;
  }

let next_step w =
  let side = side () in
  let i = w.next in
  w.next <- i + 1;
  let insert =
    List.init batch (fun j ->
        let rec fresh () =
          let p = [| Rng.int w.wrng side; Rng.int w.wrng side |] in
          if Hashtbl.mem w.taken (p.(0), p.(1)) then fresh () else p
        in
        let p = fresh () in
        Hashtbl.replace w.taken (p.(0), p.(1)) ();
        let id = first_insert_id + (i * batch) + j in
        Hashtbl.replace w.point_of_id id p;
        (p, id))
  in
  Hashtbl.replace w.batches i insert;
  let delete =
    match Hashtbl.find_opt w.batches (i - lag) with
    | None -> []
    | Some old ->
        Hashtbl.remove w.batches (i - lag);
        List.map
          (fun (p, _) ->
            Hashtbl.remove w.taken (p.(0), p.(1));
            p)
          old
  in
  { index = i; insert; delete }

let inserted_point w id = Hashtbl.find_opt w.point_of_id id
