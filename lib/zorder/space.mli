(** Description of the discrete space being indexed.

    The paper assumes a [2^d x ... x 2^d] grid in [k] dimensions, split
    recursively into equal halves with the split axis cycling
    [x, y, x, y, ...] (Section 3.1, assumptions 1-3).  A [Space.t] packages
    [k] and [d]; every element / z-value operation takes one.

    A space has at most {!max_total_bits} = 61 bits per full-resolution z
    value, so every z value — and every z interval bound — is one
    non-negative OCaml [int]; {!Zpacked}, {!Zkernel}, {!Zrange} and
    {!Bigmin} rely on it. *)

type t = private { dims : int; depth : int }
(** [dims] is k (number of dimensions), [depth] is d (bits per axis). *)

val max_total_bits : int
(** 61: the widest z value a space may have ([dims * depth]). *)

val make : dims:int -> depth:int -> t
(** @raise Invalid_argument unless [1 <= dims], [0 <= depth] and
    [dims * depth <= max_total_bits]. *)

val dims : t -> int
val depth : t -> int

val side : t -> int
(** [2^depth], the number of grid positions per axis. *)

val total_bits : t -> int
(** [dims * depth]: the length of a full-resolution (pixel) z value. *)

val axis_of_level : t -> int -> int
(** [axis_of_level s level] is the axis discriminated by the split at tree
    depth [level] (0-based): [level mod dims].  Level 0 splits on axis 0
    (x), matching the paper's convention of interleaving starting with X. *)

val cells : t -> float
(** Total number of pixels, [2^(dims*depth)], as a float (may be huge). *)

val valid_coord : t -> int -> bool
(** Whether a coordinate lies in [0, side - 1]. *)

val pp : Format.formatter -> t -> unit
