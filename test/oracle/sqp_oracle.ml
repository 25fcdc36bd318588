(* Bitstring oracles for the library's word-key merges.

   Range_search, Zmerge and Spatial_join each run one implementation, the
   flat-array kernels of Sqp_zorder.Zkernel.  These are the list- and
   bitstring-based sweeps the kernels mirror, kept here so the
   differential tests (test_zkernel) can check them row for row and
   counter for counter, and so bench/kernels.ml can time them as the
   baseline.  They work on Bitstring z values throughout and share no
   code with the kernels. *)

module Z = Sqp_zorder
module B = Z.Bitstring
module RS = Sqp_core.Range_search
module Zmerge = Sqp_core.Zmerge
module Relalg = Sqp_relalg

(* {1 Range search (Section 3.3)} *)

type 'a prepared = {
  space : Z.Space.t;
  zs : B.t array; (* sorted *)
  pts : (Sqp_geom.Point.t * 'a) array; (* aligned with zs *)
}

(* Step 1 as Range_search.prepare does it, on bitstrings: the same
   [Array.sort] over the same input order, so equal z values (duplicate
   points) land in the same order. *)
let prepare space points =
  let tagged = Array.map (fun (p, v) -> (Z.Interleave.shuffle space p, (p, v))) points in
  Array.sort (fun (a, _) (b, _) -> B.compare a b) tagged;
  { space; zs = Array.map fst tagged; pts = Array.map snd tagged }

type range = { zlo : B.t; zhi : B.t }

let box_ranges prep box =
  let total = Z.Space.total_bits prep.space in
  let lo = Sqp_geom.Box.lo box and hi = Sqp_geom.Box.hi box in
  let els = Z.Decompose.decompose_box prep.space ~lo ~hi in
  Array.of_list
    (List.map (fun e -> { zlo = B.pad_to e total false; zhi = B.pad_to e total true }) els)

let clip prep box = Sqp_geom.Box.clip box ~side:(Z.Space.side prep.space)

let no_counters =
  { RS.point_steps = 0; element_steps = 0; point_jumps = 0; element_jumps = 0; comparisons = 0 }

let search_plain_reference prep box =
  match clip prep box with
  | None -> ([], no_counters)
  | Some box ->
      let ranges = box_ranges prep box in
      let np = Array.length prep.zs and nb = Array.length ranges in
      let point_steps = ref 0 and element_steps = ref 0 and comparisons = ref 0 in
      let acc = ref [] in
      let i = ref 0 and j = ref 0 in
      while !i < np && !j < nb do
        let z = prep.zs.(!i) and r = ranges.(!j) in
        incr comparisons;
        if B.compare z r.zlo < 0 then begin
          incr i;
          incr point_steps
        end
        else begin
          incr comparisons;
          if B.compare z r.zhi > 0 then begin
            incr j;
            incr element_steps
          end
          else begin
            acc := prep.pts.(!i) :: !acc;
            incr i;
            incr point_steps
          end
        end
      done;
      ( List.rev !acc,
        {
          RS.point_steps = !point_steps;
          element_steps = !element_steps;
          point_jumps = 0;
          element_jumps = 0;
          comparisons = !comparisons;
        } )

(* First index in [zs[lo, hi)] with zs.(i) >= z (binary search = random
   access). *)
let lower_bound_z ?(lo = 0) zs z comparisons =
  let lo = ref lo and hi = ref (Array.length zs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr comparisons;
    if B.compare zs.(mid) z < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index in [ranges] with zhi >= z. *)
let first_live_range ranges z comparisons =
  let lo = ref 0 and hi = ref (Array.length ranges) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr comparisons;
    if B.compare ranges.(mid).zhi z < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let search_skip_reference prep box =
  match clip prep box with
  | None -> ([], no_counters)
  | Some box ->
      let ranges = box_ranges prep box in
      let np = Array.length prep.zs and nb = Array.length ranges in
      let point_steps = ref 0 and element_steps = ref 0 in
      let point_jumps = ref 0 and element_jumps = ref 0 in
      let comparisons = ref 0 in
      let acc = ref [] in
      let i = ref 0 and j = ref 0 in
      if np > 0 && nb > 0 then begin
        (* Initial random access: position P at the box's first z value. *)
        i := lower_bound_z prep.zs ranges.(0).zlo comparisons;
        incr point_jumps
      end;
      while !i < np && !j < nb do
        let z = prep.zs.(!i) and r = ranges.(!j) in
        incr comparisons;
        if B.compare z r.zlo < 0 then begin
          (* Point is before the current element: jump P forward, never
             behind the cursor (zs is sorted). *)
          i := lower_bound_z ~lo:!i prep.zs r.zlo comparisons;
          incr point_jumps
        end
        else begin
          incr comparisons;
          if B.compare z r.zhi > 0 then begin
            (* Point is past the current element: jump B forward. *)
            j := first_live_range ranges z comparisons;
            incr element_jumps
          end
          else begin
            acc := prep.pts.(!i) :: !acc;
            incr i;
            incr point_steps
          end
        end
      done;
      ( List.rev !acc,
        {
          RS.point_steps = !point_steps;
          element_steps = !element_steps;
          point_jumps = !point_jumps;
          element_jumps = !element_jumps;
          comparisons = !comparisons;
        } )

(* {1 Containment sweeps (Section 4)} *)

type ('a, 'b) item = Left of 'a | Right of 'b

(* Each side is stable-sorted separately and the two sorted lists are
   merged tagged in a single pass — equal z values take the left side
   first, which is exactly the order a stable sort of left-then-right
   would produce.  One open-element stack per side. *)
let pairs_reference left right =
  let comparisons = ref 0 in
  let cmp (za, _) (zb, _) =
    incr comparisons;
    B.compare za zb
  in
  let sl = List.sort cmp left and sr = List.sort cmp right in
  let items =
    let rec go l r acc =
      match (l, r) with
      | [], [] -> List.rev acc
      | (z, a) :: tl, [] -> go tl [] ((z, Left a) :: acc)
      | [], (z, b) :: tr -> go [] tr ((z, Right b) :: acc)
      | ((zl, a) :: tl as l'), ((zr, b) :: tr as r') ->
          incr comparisons;
          if B.compare zl zr <= 0 then go tl r' ((zl, Left a) :: acc)
          else go l' tr ((zr, Right b) :: acc)
    in
    go sl sr []
  in
  let stack_l = ref [] and stack_r = ref [] in
  let pop_closed z stack =
    let rec go = function
      | (ze, _) :: rest
        when (incr comparisons;
              not (B.is_prefix ze z)) ->
          go rest
      | kept -> kept
    in
    stack := go !stack
  in
  let out = ref [] and count = ref 0 in
  List.iter
    (fun (z, item) ->
      pop_closed z stack_l;
      pop_closed z stack_r;
      match item with
      | Left a ->
          List.iter
            (fun (_, b) ->
              incr count;
              out := (a, b) :: !out)
            !stack_r;
          stack_l := (z, a) :: !stack_l
      | Right b ->
          List.iter
            (fun (_, a) ->
              incr count;
              out := (a, b) :: !out)
            !stack_l;
          stack_r := (z, b) :: !stack_r)
    items;
  ( List.rev !out,
    { Zmerge.pairs = !count; items = List.length items; comparisons = !comparisons } )

type side = R | S

let zval_of schema attr tu =
  match Relalg.Relation.get tu schema attr with
  | Relalg.Value.Zval z -> z
  | _ -> invalid_arg "Sqp_oracle: z attribute does not hold an element"

(* The spatial join's sweep over one stable sort of R's items then S's. *)
let merge_reference r ~zr s ~zs =
  let sr = Relalg.Relation.schema r and ss = Relalg.Relation.schema s in
  let schema = Relalg.Schema.concat sr ss in
  let comparisons = ref 0 in
  let items =
    List.map (fun tu -> (zval_of sr zr tu, R, tu)) (Relalg.Relation.tuples r)
    @ List.map (fun tu -> (zval_of ss zs tu, S, tu)) (Relalg.Relation.tuples s)
  in
  let items =
    List.sort
      (fun (za, _, _) (zb, _, _) ->
        incr comparisons;
        B.compare za zb)
      items
  in
  (* Stacks of open (containing) elements per side; an element stays open
     while the sweep position is within its z range, i.e. while it is a
     prefix of the current item's z value. *)
  let stack_r = ref [] and stack_s = ref [] in
  let max_stack = ref 0 in
  let note_depth () =
    let d = List.length !stack_r + List.length !stack_s in
    if d > !max_stack then max_stack := d
  in
  let pop_closed z stack =
    let rec go = function
      | (ze, _) :: rest
        when (incr comparisons;
              not (B.is_prefix ze z)) ->
          go rest
      | kept -> kept
    in
    stack := go !stack
  in
  let out = ref [] and pairs = ref 0 in
  List.iter
    (fun (z, side, tu) ->
      pop_closed z stack_r;
      pop_closed z stack_s;
      (match side with
      | R ->
          List.iter
            (fun (_, ts) ->
              incr pairs;
              out := Array.append tu ts :: !out)
            !stack_s;
          stack_r := (z, tu) :: !stack_r
      | S ->
          List.iter
            (fun (_, tr) ->
              incr pairs;
              out := Array.append tr tu :: !out)
            !stack_r;
          stack_s := (z, tu) :: !stack_s);
      note_depth ())
    items;
  ( Relalg.Relation.make schema (List.rev !out),
    {
      Relalg.Spatial_join.pairs = !pairs;
      comparisons = !comparisons;
      sorted_items = List.length items;
      max_stack = !max_stack;
    } )
