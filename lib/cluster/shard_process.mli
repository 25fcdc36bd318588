(** Local shard processes: [sqp serve --port 0 --shard I/N] children
    started from a given [sqp] executable, for [sqp route --spawn] and
    the cluster benchmark.

    The child prints the machine-parseable [SQP_SERVE_PORT=<port>] line
    on stdout once it listens; a drain thread keeps reading the rest of
    its stdout so it can never block on a full pipe. *)

type t

val spawn_even : sqp:string -> points:int -> objects:int -> int -> t list
(** [spawn_even ~sqp ~points ~objects n] runs [sqp serve --port 0
    --points points --objects objects --shard i/n] for [i = 0 .. n-1]
    and waits for each port line.
    @raise Failure (after stopping the shards already started) if a
    child exits without reporting its port. *)

val port : t -> int
(** The loopback port the shard reported. *)

val stop : t -> Unix.process_status
(** Send SIGTERM, wait for the child and return how it exited: a
    graceful drain is [WEXITED 0], anything else a shard that crashed or
    failed its drain. *)
