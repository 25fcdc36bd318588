(** Structured tracing: nestable, timed spans with key/value attributes.

    The paper argues about {e counts} — elements generated, stretches
    skipped, pages touched — so the observability layer's job is to make
    those counts visible per query and per operator, not just as global
    totals.  A {e span} is one timed region of execution (a range-search
    merge, one spatial join, one plan operator); spans nest, carry
    attributes, and are delivered to a pluggable {e sink}.

    The [Null] sink is the off switch: every entry point checks it first
    and returns before allocating, taking a timestamp, or touching a
    lock, so instrumented code paths cost one branch when tracing is
    disabled (the [test_obs] suite checks the null path allocates
    nothing).  The [Collect] sink keeps finished spans in a bounded ring
    buffer for inspection and for export as a Chrome [trace_event] JSON
    file (load it at [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto} for a flame chart). *)

type value =
  | Int of int
  | Float of float
  | Str of string  (** Attribute values. *)

type attrs = (string * value) list
(** Per-span key/value attributes (elements emitted, skips taken, pages
    hit/missed, ...). *)

type span = {
  name : string;        (** what ran, e.g. ["range_search.skip"] *)
  depth : int;          (** nesting depth at [span_begin] (0 = root) *)
  start : float;        (** seconds on the tracer's clock *)
  duration : float;     (** seconds between begin and end *)
  tid : int;            (** id of the domain that ran the span *)
  attrs : attrs;        (** attributes attached at [span_end] *)
}
(** One finished span, as delivered to sinks. *)

type sink =
  | Null                      (** drop everything; zero overhead *)
  | Collect                   (** keep finished spans in the ring buffer *)
  | Emit of (span -> unit)    (** stream each finished span to a callback *)

type t
(** A tracer: a sink, a clock, a bounded ring of finished spans, and one
    open-span stack per domain (so worker-domain spans nest correctly). *)

val create : ?capacity:int -> sink -> t
(** [create ~capacity sink]: a fresh tracer whose ring keeps the most
    recent [capacity] finished spans (default 4096).
    @raise Invalid_argument if [capacity < 1]. *)

val null : t
(** The shared always-off tracer. *)

val enabled : t -> bool
(** [false] exactly for [Null]-sink tracers. *)

val capacity : t -> int
(** Ring-buffer bound this tracer was created with. *)

val set_clock : t -> (unit -> float) -> unit
(** Replace the time source (default [Unix.gettimeofday]).  Timestamps
    only ever feed durations and trace output, so any monotonic-enough
    seconds counter works; tests inject deterministic clocks here. *)

val span_begin : t -> string -> unit
(** Open a span on the calling domain's stack.  A no-op on a disabled
    tracer. *)

val span_end : ?attrs:(unit -> attrs) -> t -> unit
(** Close the innermost open span of the calling domain, attaching
    [attrs] (the thunk runs only when the tracer is enabled, so building
    the attribute list costs nothing when tracing is off).  A no-op on a
    disabled tracer or when no span is open on this domain. *)

val with_span : ?attrs:(unit -> attrs) -> t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f]: [f ()] inside a [name] span; the span is closed
    (and [attrs] forced) even if [f] raises.  On a disabled tracer this
    is exactly [f ()]. *)

val open_depth : t -> int
(** Open (unclosed) spans on the calling domain — 0 when every
    [span_begin] has been balanced by a [span_end]. *)

val spans : t -> span list
(** Finished spans currently in the ring, oldest first.  At most
    {!capacity} spans; older ones are overwritten. *)

val dropped : t -> int
(** Finished spans overwritten (lost) because the ring was full. *)

val clear : t -> unit
(** Empty the ring and reset {!dropped}; open spans are unaffected. *)

(** {1 The ambient tracer}

    Library instrumentation (storage, range search, merges, plan
    execution) reports to a process-global tracer, [null] by default, so
    enabling observability is one call and disabling it costs one
    branch. *)

val set_global : t -> unit
(** Install [t] as the ambient tracer. *)

val global : unit -> t
(** The ambient tracer ([null] until {!set_global}). *)

val global_enabled : unit -> bool
(** [enabled (global ())], as a single cheap test — the guard every
    instrumented code path uses. *)

(** {1 Chrome trace export} *)

val to_chrome_json : span list -> string
(** The spans as a Chrome [trace_event] JSON document (an object with a
    ["traceEvents"] array of complete — ["ph": "X"] — events; durations
    in microseconds; span attributes under ["args"]). *)

val write_chrome : string -> span list -> unit
(** [write_chrome path spans]: {!to_chrome_json} to a file. *)
