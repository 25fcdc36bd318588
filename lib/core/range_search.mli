(** The range-search algorithm of Section 3.3, on in-memory sequences.

    Step 1 builds the z-ordered point sequence P, step 2 the z-ordered
    element sequence B (the decomposed box), step 3 merges them looking
    for points contained in elements.  Two merge variants are provided:
    the plain O(|P| + |B|) merge and the optimized merge that uses random
    accesses (binary search) to skip dead stretches of either sequence —
    plus a step-by-step trace used to reproduce Figure 5.

    Both merges run on the word-key kernels of {!Sqp_zorder.Zkernel} —
    every z value of a space is one [int] ({!Sqp_zorder.Space.make} caps
    a space at 61 bits).  The bitstring implementations they mirror,
    counter for counter, are test oracles in [test/oracle].

    The disk-resident version of the same algorithm lives in
    {!Sqp_btree.Zindex}; this module is the algorithmic core, with exact
    work counters, suitable for analysis and benchmarks. *)

type space = Sqp_zorder.Space.t

type 'a prepared
(** The sorted point sequence P: word-key z values and the points with
    their payloads, in z order. *)

val prepare : space -> (Sqp_geom.Point.t * 'a) array -> 'a prepared
(** Step 1: shuffle every point and sort by z value.
    @raise Invalid_argument on a point outside the space. *)

val prepared_length : 'a prepared -> int

type counters = {
  point_steps : int;    (** sequential advances in P *)
  element_steps : int;  (** sequential advances in B *)
  point_jumps : int;    (** random accesses into P *)
  element_jumps : int;  (** random accesses into B *)
  comparisons : int;
}

val search_plain :
  'a prepared -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a) list * counters
(** The unoptimized merge: walk both sequences entry by entry
    ({!Sqp_zorder.Zkernel.range_plain_keys}). *)

val search_skip :
  'a prepared -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a) list * counters
(** The optimized merge: when the current point z value leaves the
    current element, binary-search the other sequence ("parts of the
    space that could not possibly contribute are skipped")
    ({!Sqp_zorder.Zkernel.range_skip_keys}). *)

type trace_step = {
  description : string;
  point_z : string option;   (** current P record's z value *)
  element_z : string option; (** current B record's element *)
}

val search_trace :
  'a prepared -> Sqp_geom.Box.t -> (Sqp_geom.Point.t * 'a) list * trace_step list
(** The skip merge, narrated step by step (Figure 5's walkthrough), on
    the bitstring z values it prints. *)
