(** Fixed-width packed z values.

    A z value (Section 3.1 of the paper) is a variable-length bitstring;
    {!Bitstring} stores one byte-at-a-time in a [Bytes.t].  This module is
    the compact fixed-width representation — what {!Zrun}, [Live] and
    [Persist] store, and what {!Zkernel} derives its word keys from: a
    length plus {e one} word.  Every z value of a space fits, because
    {!Space.make} caps a space at {!Space.max_total_bits} = 61 bits.  Bit
    [i] of the bitstring (MSB-first, [0 <= i < len]) lives at bit
    [60 - i] of [w]; bits at positions [>= len] are kept zero, so [w] is
    the value zero-padded to 61 bits, a non-negative [int], and order and
    prefix tests are pure word arithmetic:

    {v
      z value   b0 b1 ... b60
                ^ bit 60 of w
      compare   w, then length
      prefix    (w lxor w') masked to the prefix length = 0
    v}

    [compare], [is_prefix], [common_prefix_len] and friends are
    allocation-free.  The two representations agree bit-for-bit
    (property-tested in [test/test_zpacked.ml]). *)

type t = private { len : int; w : int }
(** Exposed (read-only) so the flat kernels in {!Zkernel} can use the
    word directly as a key; construct only through the functions below,
    which maintain the bits-beyond-[len]-are-zero invariant. *)

(** {1 Construction} *)

val empty : t

val of_bitstring : Bitstring.t -> t
(** Lossless packing.
    @raise Invalid_argument if [Bitstring.length b > Space.max_total_bits]. *)

val to_bitstring : t -> Bitstring.t
(** Inverse of {!of_bitstring}: [to_bitstring (of_bitstring b) = b]. *)

(** {1 Observation} *)

val length : t -> int

val get : t -> int -> bool
(** @raise Invalid_argument if the index is out of bounds. *)

(** {1 Order and containment} *)

val compare : t -> t -> int
(** Lexicographic order, proper prefixes first — identical to
    {!Bitstring.compare} on the unpacked values.  Two int compares, no
    allocation, no loop. *)

val equal : t -> t -> bool

val is_prefix : t -> t -> bool
(** [is_prefix p t] iff [p] is a (non-strict) prefix of [t]; one masked
    xor. *)

val contains : t -> t -> bool
(** Element containment = prefix testing (Proposition 1): alias of
    {!is_prefix}. *)

val common_prefix_len : t -> t -> int
(** Length of the longest common prefix, via count-leading-zeros on the
    xor of the words. *)

val pad_to : t -> int -> bool -> t
(** [pad_to t n b] appends copies of [b] until the length is [n] — the
    packed analogue of {!Bitstring.pad_to}, used to turn a decomposed
    element into its \[zlo, zhi\] scan range in O(1).
    @raise Invalid_argument if [n < length t] or
    [n > Space.max_total_bits]. *)

(** {1 Bit surgery}

    The primitives behind {!Zrun}'s front coding: split a value into a
    shared prefix and a byte-packed suffix, and rebuild it from its
    predecessor's prefix plus the stored suffix bytes. *)

val take : t -> int -> t
(** [take t n] is the first [n] bits of [t].
    @raise Invalid_argument unless [0 <= n <= length t]. *)

val suffix_bytes : t -> pos:int -> string
(** Bits [\[pos, length t)] packed MSB-first into bytes (trailing bits of
    the last byte zero) — the stored form of a front-coded suffix.
    @raise Invalid_argument unless [0 <= pos <= length t]. *)

val append_bytes : t -> bytes:string -> pos:int -> nbits:int -> t
(** [append_bytes t ~bytes ~pos ~nbits] appends [nbits] bits read
    MSB-first from [bytes] starting at byte [pos] — the inverse of
    pairing {!take} with {!suffix_bytes}.
    @raise Invalid_argument if the result would exceed
    {!Space.max_total_bits} or [bytes] is too short. *)

(** {1 Interleaving} *)

val shuffle : Space.t -> int array -> t
(** Bit interleaving straight into the packed word; agrees with
    {!Interleave.shuffle}.
    @raise Invalid_argument on bad coordinates. *)

val unshuffle : Space.t -> t -> (int * int) array
(** Per-axis [(value, bits)] prefixes; agrees with
    {!Interleave.unshuffle}.
    @raise Invalid_argument if [length t > Space.total_bits space]. *)

(** {1 Misc} *)

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as ["0110"]; the empty string prints as ["<>"] (same
    convention as {!Bitstring.pp}). *)
