(** Dump / restore a {!Zindex} through the file-backed page store.

    The on-disk form is the paper's "preprocessing" artifact: the point
    set with payloads, packed onto fixed-size pages in z order, plus a
    metadata page (space shape, leaf capacity).  Loading rebuilds the
    prefix B+-tree by bulk load, so a reloaded index answers queries
    identically to the original.

    Two page formats coexist:

    - {b v2} ([SQPX]): fixed-width entries — coords as [i32] each, then
      a length-prefixed payload.
    - {b v3} ([SQPZ], the default): each data page stores its entries'
      full-resolution z values as one front-coded
      {!Sqp_zorder.Zrun} (restart points every 16 entries), followed by
      the length-prefixed payloads; points are recovered by unshuffling.
      On the standard workload this packs ~1.6x more entries per page.
      The metadata page additionally records the index's in-memory page
      budget so {!load} rebuilds with the same compressed geometry.

    {!load} sniffs the metadata magic, so v2 files written by previous
    releases keep loading transparently.  Container-level durability is
    unchanged: {!save} writes the whole index as one journaled batch
    into [path ^ ".tmp"], then atomically renames it over [path] — a
    crash at any point leaves the previous index (or none) intact, never
    a half-written one.  {!load} runs the store's normal crash recovery
    on open. *)

type format = V2 | V3

val save :
  ?io:Sqp_storage.Faulty_io.injector ->
  ?format:format ->
  path:string ->
  ?page_bytes:int ->
  encode:('a -> string) ->
  'a Zindex.t ->
  int
(** Write the index contents; returns the number of data pages written.
    [page_bytes] defaults to 4096.  [format] defaults to [V3] (every
    space's z values fit one {!Sqp_zorder.Zpacked} word); pass [V2] to
    write the legacy format explicitly.  [io] (for fault-injection tests)
    defaults to passthrough.
    @raise Invalid_argument if an encoded payload is larger than a page
    can hold. *)

val load :
  ?io:Sqp_storage.Faulty_io.injector ->
  ?lenient:bool ->
  path:string ->
  decode:(string -> 'a) ->
  unit ->
  'a Zindex.t
(** Rebuild an index from a file written by {!save} (either format).
    With [~lenient:true] (used after {!Sqp_storage.Fsck.salvage}) a
    mismatch between the metadata entry count and the entries actually
    present is tolerated: whatever survived is loaded.
    @raise Sqp_storage.Storage_error.Corrupt on format or checksum
    errors, including a metadata page whose space {!Sqp_zorder.Space.make}
    refuses ([dims = 0], or wider than 61 bits). *)

(** {1 Inspection} *)

type info = {
  version : int;  (** 2 or 3 *)
  dims : int;
  depth : int;
  count : int;  (** entries per the metadata page *)
  found : int;  (** entries decoded from intact data pages *)
  data_pages : int;
  page_budget : int option;  (** v3: recorded in-memory byte budget *)
  page_errors : (int * string) list;
      (** slot, problem — for v3 pages this includes full restart-point
          structure validation ({!Sqp_zorder.Zrun.validate}) *)
}

val inspect :
  ?io:Sqp_storage.Faulty_io.injector -> path:string -> unit -> info
(** Index-format report for [sqp fsck]: the format version plus per-page
    structural problems, without rebuilding the index.  Unlike {!load},
    a damaged data page is reported, not fatal.
    @raise Sqp_storage.Storage_error.Corrupt only when the store has no
    readable metadata page (a bad magic, or a space {!load} refuses). *)
