(** A small reusable pool of worker domains.

    It fans a batch of independent tasks out over OCaml 5 domains and
    collects the results in task order.  The pool spawns its workers once
    (domain spawn costs milliseconds) and reuses them for every
    subsequent batch.  No query path uses it: queries run sequentially.
    The ingest tests drive concurrent writers with it, and the serving
    benchmark's replay passes one to [Plan.run_in_pool],
    which ignores it.

    The caller participates in each batch, so a pool created with
    [~domains:1] spawns no worker domains at all and degenerates to plain
    sequential execution — handy for differential testing and for running
    the same code path on single-core machines. *)

type t

val create : domains:int -> t
(** [create ~domains:n] spawns [n - 1] worker domains ([n] total
    execution streams counting the caller).
    @raise Invalid_argument if [n < 1]. *)

val domains : t -> int
(** Total execution streams, including the calling domain. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f items] applies [f] to every item, running tasks on the
    worker domains and the calling domain, and returns the results in
    input order (execution order is nondeterministic; the result array is
    not).  If any task raises, one of the raised exceptions is re-raised
    in the caller after the whole batch has drained.

    Batches are not reentrant: do not call [map] from inside a task of
    the same pool.  Concurrent batches from {e different} threads or
    domains are safe, however: each batch tracks its own completion
    under the pool mutex, callers opportunistically execute whatever
    task is at the head of the shared queue (work from another batch
    included), and nobody blocks on a batch that is not their own. *)

val run : t -> (unit -> 'a) list -> 'a list
(** [run t thunks]: {!map} over a list of thunks. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  The pool must not be
    used afterwards. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f]: create, run [f], always shutdown. *)
