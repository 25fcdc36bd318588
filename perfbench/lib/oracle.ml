(* Answer checking.  During a run the load generator keeps only a
   digest of each response (or, for live reads, its rows); after the
   timed window these functions compute what the answer should have
   been, in-process and independently of the server:

   - range boxes: a linear scan of the canonical points;
   - the join: [Plan.run] of [Catalog.overlap_plan] on a catalog built
     here from the same seeds;
   - live reads: every canonical point in the box with its id, plus only
     inserted points the writer generated, at their generated places.

   Rows are compared as sets: the served range path answers with the
   duplicate-free [Project] of the coordinates, and the canonical points
   are distinct anyway. *)

module R = Sqp_relalg
module Box = Sqp_geom.Box
module Seeded = Sqp_workload.Seeded

let ints_digest (a : int array) =
  let b = Buffer.create (Array.length a * 8) in
  Array.iter (fun v -> Buffer.add_string b (string_of_int v); Buffer.add_char b ',') a;
  Digest.string (Buffer.contents b)

let sorted_distinct (a : int array) =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let out = ref [ a.(0) ] in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) then out := a.(i) :: !out
    done;
    Array.of_list (List.rev !out)
  end

let column rel name =
  let schema = R.Relation.schema rel in
  let i = R.Schema.index schema name in
  fun (tu : R.Relation.tuple) -> R.Value.to_int tu.(i)

(* A coordinate-row response ([x0], [x1]) as a digest of its point set. *)
let points_digest rel =
  let side = Streams.side () in
  let x = column rel "x0" and y = column rel "x1" in
  let keys = Array.of_list (List.map (fun tu -> (x tu * side) + y tu) (R.Relation.tuples rel)) in
  ints_digest (sorted_distinct keys)

let expected_points = Hashtbl.create 512

let range_expected box =
  let key = (Box.lo box, Box.hi box) in
  match Hashtbl.find_opt expected_points key with
  | Some d -> d
  | None ->
      let side = Streams.side () in
      let keys =
        Array.of_list
          (Array.fold_left
             (fun acc p -> if Box.contains_point box p then ((p.(0) * side) + p.(1)) :: acc else acc)
             [] (Streams.dataset ()).Seeded.points)
      in
      let d = ints_digest (sorted_distinct keys) in
      Hashtbl.replace expected_points key d;
      d

(* An [(rid, sid)] response as a digest of its pair set. *)
let pairs_digest rel =
  let rid = column rel "rid" and sid = column rel "sid" in
  let keys =
    Array.of_list (List.map (fun tu -> (rid tu * 1_000_000) + sid tu) (R.Relation.tuples rel))
  in
  ints_digest (sorted_distinct keys)

let join_expected =
  lazy
    (let cat = Sqp_server.Catalog.of_seeded (Streams.dataset ()) in
     pairs_digest (R.Plan.run (Sqp_server.Catalog.overlap_plan cat)))

(* A live read's rows as [id; x0; x1] triples. *)
let live_rows rel =
  let id = column rel "id" and x = column rel "x0" and y = column rel "x1" in
  Array.of_list (List.map (fun tu -> (id tu, x tu, y tu)) (R.Relation.tuples rel))

(* Canonical ids answer exactly the canonical points in the box;
   anything else must be a point the writer inserted, where it put it. *)
let live_read_ok writer box rows =
  let points = (Streams.dataset ()).Seeded.points in
  let in_box x y = Box.contains_point box [| x; y |] in
  let canonical = ref [] and ok = ref true in
  Array.iter
    (fun (id, x, y) ->
      if not (in_box x y) then ok := false
      else if id >= 0 && id < Array.length points then begin
        let p = points.(id) in
        if p.(0) <> x || p.(1) <> y then ok := false;
        canonical := id :: !canonical
      end
      else
        match Streams.inserted_point writer id with
        | Some p when p.(0) = x && p.(1) = y -> ()
        | _ -> ok := false)
    rows;
  let expected = ref [] in
  Array.iteri (fun id p -> if Box.contains_point box p then expected := id :: !expected) points;
  !ok && List.sort compare !canonical = List.sort compare !expected
