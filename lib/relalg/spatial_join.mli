(** The spatial join [R\[zr <> zs\]S] (Section 4).

    Both relations carry an element-valued attribute.  The join emits a
    combined tuple for every pair whose elements are related by
    containment in either direction — which, for decomposed objects,
    means the objects overlap.

    Three implementations:
    - [merge]: sort both inputs into z order and sweep once, keeping a
      stack of currently "open" (containing) elements per side — the
      z-order analogue of sort-merge join.  O(n log n + output).
    - [merge_parallel]: the same sweep, z-sharded over a domain pool
      ({!Sqp_parallel.Par_spatial_join}); output identical to [merge],
      including tuple order.
    - [nested_loop]: compare all pairs; the correctness oracle. *)

type stats = {
  pairs : int;         (** tuples emitted *)
  comparisons : int;   (** element comparisons performed *)
  sorted_items : int;  (** total items sorted (merge only) *)
  max_stack : int;
      (** deepest combined open-element stack the sweep reached ([merge]
          only; 0 for [nested_loop] and the sharded plan) *)
}

val merge :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** Runs on the word-key kernel
    ({!Sqp_zorder.Zkernel.sweep_pairs_keyed}) when every z value fits one
    63-bit word ([Zpacked.word_bits]) and on {!merge_reference}
    otherwise; both produce the same tuples in the same order.
    @raise Invalid_argument if attribute names of the two relations
    clash (rename first) or the z attributes hold non-[Zval] values. *)

val merge_reference :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** The list-based bitstring sweep (any z length) — the differential
    oracle for {!merge} and the benchmark baseline.  Same preconditions
    as {!merge}. *)

val nested_loop :
  Relation.t -> zr:string -> Relation.t -> zs:string -> Relation.t * stats
(** Compare all pairs directly — O(|R| * |S|), the correctness oracle
    and the planner's choice for small inputs.  Same preconditions as
    {!merge}. *)

val merge_parallel :
  ?shard_bits:int ->
  Sqp_parallel.Pool.t ->
  Relation.t ->
  zr:string ->
  Relation.t ->
  zs:string ->
  Relation.t * stats
(** Same result (and tuple order) as {!merge}, computed shard-by-shard on
    the pool.  [stats.comparisons] reflects the parallel plan's own work,
    so it differs from [merge]'s count; [pairs] is always equal. *)

val merge_parallel_detailed :
  ?shard_bits:int ->
  Sqp_parallel.Pool.t ->
  Relation.t ->
  zr:string ->
  Relation.t ->
  zs:string ->
  Relation.t * stats * Sqp_parallel.Par_spatial_join.shard_report list
(** {!merge_parallel}, additionally returning the per-shard work
    breakdown ({!Sqp_parallel.Par_spatial_join.shard_report}) that
    EXPLAIN ANALYZE renders as its shard table. *)
