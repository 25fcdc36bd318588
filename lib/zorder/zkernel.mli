(** Index-based merge kernels over word-encoded z values.

    The inner loops of [Zmerge], [Range_search] and [Spatial_join] — the
    only implementation of each merge in the library: flat-array,
    allocation-free per step, with the same control flow (and hence the
    same exact work counters) as the list-based bitstring sweeps kept as
    differential oracles in [test/oracle].  All functions take or return
    a [comparisons] count that is incremented once per z comparison or
    prefix test actually performed.

    Every z value is one {!Zpacked} word ({!Space.make} caps a space at 61
    bits), used directly as the key: a non-negative [int] whose native
    order is z order, so the hot loops run over flat [int array]s — one
    machine comparison per z comparison, one masked xor per prefix
    test. *)

type keyed
(** A batch in z-sorted order, pre-decoded to the flat word-key / length
    / prefix-mask arrays the containment sweep reads — built once by
    {!sort_keyed} so {!sweep_pairs_keyed} never touches the boxed
    records. *)

val sort_keyed : comparisons:int ref -> Zpacked.t array -> int array * keyed
(** Stable z sort fused with sweep preparation: [(perm, keyed)] where
    [zs.(perm.(0)) <= zs.(perm.(1)) <= ...] (equal z values keep their
    input order — the tie rule of [List.sort] on a tagged list) and
    [keyed] holds the values in that order. *)

val element_keys : total:int -> Zpacked.t -> int * int
(** [(klo, khi)] word keys of a decomposed element's inclusive scan range
    in a space of [total] bits — [pad_to total false] / [pad_to total
    true] without building the padded values.
    @raise Invalid_argument if [total > Space.max_total_bits] or the
    element is longer than [total]. *)

type sweep_stats = { pairs : int; max_stack : int }
(** [pairs]: emissions; [max_stack]: deepest combined open-element stack
    (measured after each arrival, as [Spatial_join.merge] does). *)

val sweep_pairs_keyed :
  comparisons:int ref -> keyed -> keyed -> (int -> int -> unit) -> sweep_stats
(** [sweep_pairs_keyed ~comparisons l r emit] merges the two sorted sides
    (ties take the left side, matching a stable sort of left-then-right)
    and sweeps with one open-element stack per side, calling [emit li ri]
    with sorted positions for every containment pair — newest open
    element first, exactly the emission order of the list sweeps. *)

type range_counters = {
  point_steps : int;
  element_steps : int;
  point_jumps : int;
  element_jumps : int;
  comparisons : int;
}

type key_ranges = { klo : int array; khi : int array }
(** The ascending scan ranges of a query, as word keys (built per query
    with {!element_keys} — two flat int arrays).  Point z values all
    share one length and range bounds are padded to that same length, so
    in the merges below word order alone decides every comparison. *)

val range_plain_keys : int array -> key_ranges -> (int -> unit) -> range_counters
(** Figure 5's plain two-sequence merge over the sorted point keys (the
    first argument: the {!Zpacked} words of the z-sorted points) and the
    ascending ranges; [emit i] is called for each reported point index,
    in ascending order.  Counter-for-counter identical to the bitstring
    oracle's plain merge. *)

val range_skip_keys : int array -> key_ranges -> (int -> unit) -> range_counters
(** The skip variant: binary-search jumps over the points and the ranges
    instead of stepping, exactly mirroring the bitstring oracle's skip
    merge; arguments as in {!range_plain_keys}. *)
