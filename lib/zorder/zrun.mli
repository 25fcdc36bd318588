(** Delta-encoded (front-coded) runs of packed z values.

    Z-order clusters nearby points onto nearby keys, so consecutive
    sorted z values share long common prefixes — on the standard seeded
    workload the average shared prefix between neighbors is ~12 of 20
    bits.  A run stores the values in sorted (or any caller-chosen)
    order, the first of each {e restart block} whole and every other as
    [(shared-prefix-length, suffix-bytes)] against its predecessor.
    Restart points every [restart_interval] entries bound the decode
    chain, so point lookups and {!lower_bound} stay logarithmic over
    restarts plus a short linear tail — the classic LevelDB block
    layout, adapted to bit-granular keys via {!Zpacked.take} /
    {!Zpacked.suffix_bytes} / {!Zpacked.append_bytes}.

    Serialized layout (all integers big-endian):
    {v
      u8  flags              bit 0: fixed-length mode
      u8  fixed_len          value length in bits (0 unless fixed)
      u8  restart_interval
      u16 count
      u16 n_restarts         = ceil(count / interval)
      u16 x n_restarts       body offset of each restart entry
      body:
        restart entry        [len:u8 if variable] key bytes (MSB-first)
        delta entry          shared:u8 [len:u8 if variable] suffix bytes
    v}

    In {e fixed-length mode} every value has the same bit length
    (the common case: full-resolution keys are always
    [Space.total_bits] long), so per-entry length bytes are elided —
    this is what pushes the compression ratio past the 1.5x bar.

    Consumers: v3 {!Sqp_btree.Persist} data pages and [Live] checkpoint
    base chunks. *)

type t
(** An immutable parsed run; a view into its backing string. *)

(** {1 Encoding} *)

val encode : ?restart_interval:int -> ?fixed_len:int -> Zpacked.t array -> t
(** Front-code the values in the order given.  [restart_interval]
    defaults to 16 and must be in [\[1, 255\]]; pass [fixed_len] when
    every value has exactly that bit length to elide per-entry lengths.
    @raise Invalid_argument on more than 65535 values, a length
    mismatch in fixed mode, or a body too large for 16-bit restart
    offsets. *)

val to_string : t -> string
(** The serialized bytes, self-contained (header included). *)

val of_string : ?pos:int -> ?len:int -> string -> t
(** Parse a run serialized at [pos] (default 0) spanning [len] bytes
    (default: to the end of the string).  Validates the header and
    restart-table shape only — use {!validate} for a full structural
    walk (fsck does).
    @raise Invalid_argument on a malformed header. *)

(** {1 Observation} *)

val count : t -> int

val byte_length : t -> int
(** Total serialized size, header included. *)

val restart_interval : t -> int

val fixed_len : t -> int option

val raw_bytes : t -> int
(** Bytes the same values would occupy without front coding
    ([ceil(len/8)] per value, plus a length byte each in variable
    mode) — the numerator of the compression ratio. *)

(** {1 Decoding} *)

val decode : t -> Zpacked.t array
(** Materialize every value. *)

val get : t -> int -> Zpacked.t
(** Decode the value at an index, walking from the nearest restart.
    @raise Invalid_argument if out of range. *)

val lower_bound : t -> Zpacked.t -> int
(** Index of the first value [>= z] in {!Zpacked.compare} order
    ([count] if none) — meaningful only on sorted runs.  Binary search
    over restart keys, then a linear walk within one block. *)

type cursor
(** A forward iterator that materializes one value at a time — the
    kernels' lazy read path; O(1) state, no array allocation. *)

val cursor : ?from:int -> t -> cursor
(** Start at value [from] (default 0), which must be a restart point
    (a multiple of the interval) or [count]. *)

val cursor_index : cursor -> int
(** Index of the next value {!next} will return. *)

val next : cursor -> Zpacked.t option
(** The next value, or [None] past the end.
    @raise Invalid_argument on a corrupt entry (truncated suffix,
    shared prefix longer than the predecessor, ...). *)

(** {1 Integrity} *)

val validate : t -> (unit, string) result
(** Decode every entry, checking each restart offset lands exactly on
    an entry boundary and the body is consumed exactly — the fsck-side
    deep check for v3 pages. *)
