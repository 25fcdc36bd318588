(** The spatial join [R\[zr <> zs\]S] (Section 4).

    Both relations carry an element-valued attribute.  The join emits a
    combined tuple for every pair whose elements are related by
    containment in either direction — which, for decomposed objects,
    means the objects overlap.

    Two implementations:
    - [merge]: sort both inputs into z order and sweep once, keeping a
      stack of currently "open" (containing) elements per side — the
      z-order analogue of sort-merge join.  O(n log n + output).  Every
      plan's z-merge join runs it, on the calling domain.
    - [nested_loop]: compare all pairs; the correctness oracle. *)

type stats = {
  pairs : int;         (** tuples emitted *)
  comparisons : int;   (** element comparisons performed *)
  sorted_items : int;  (** total items sorted (merge only) *)
  max_stack : int;
      (** deepest combined open-element stack the sweep reached ([merge]
          only; 0 for [nested_loop]) *)
}

val merge :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** Runs on the word-key kernel
    ({!Sqp_zorder.Zkernel.sweep_pairs_keyed}); tuples come out in the
    order of the list-based bitstring sweep kept as the test oracle.
    @raise Invalid_argument if attribute names of the two relations
    clash (rename first), the z attributes hold non-[Zval] values, or a
    z value is longer than [Space.max_total_bits] (61) bits. *)

val nested_loop :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** Compare all pairs directly — O(|R| * |S|), the correctness oracle
    and the planner's choice for small inputs.  Same preconditions as
    {!merge}. *)
