(** Containment merge of two z-ordered element sequences — the engine
    behind the spatial join, reusable outside the relational layer.

    Input sequences need not be sorted (they are sorted internally) and
    may contain nested elements.  A pair [(a, b)] is produced whenever
    [a]'s element contains [b]'s or vice versa. *)

type stats = { pairs : int; items : int; comparisons : int }

val pairs :
  (Sqp_zorder.Element.t * 'a) list ->
  (Sqp_zorder.Element.t * 'b) list ->
  ('a * 'b) list * stats
(** Stack-based single sweep, O(n log n + output), on the word-key
    kernel ({!Sqp_zorder.Zkernel.sweep_pairs_keyed}).  Pairs come out in
    the order of the list-based bitstring sweep kept as the test oracle.
    @raise Invalid_argument if an element is longer than
    [Space.max_total_bits] (61) bits. *)

val pairs_naive :
  (Sqp_zorder.Element.t * 'a) list ->
  (Sqp_zorder.Element.t * 'b) list ->
  ('a * 'b) list * stats
(** All-pairs containment test; the oracle. *)
