module Z = Sqp_zorder
module FP = Sqp_storage.File_pager
module Storage_error = Sqp_storage.Storage_error
module Faulty_io = Sqp_storage.Faulty_io

(* v2 metadata page payload: "SQPX" | dims:u8 | depth:u8 |
   leaf_capacity:u16 | entry_count:i64.
   v2 entry encoding: coords (dims x i32) | payload_len:u16 | payload;
   data pages hold entries back to back, in z order.

   v3 metadata page payload: "SQPZ" | dims:u8 | depth:u8 |
   leaf_capacity:u16 | entry_count:i64 | page_budget:u32 (0 = entry-count
   pages).  v3 data page payload: nentries:u16 | run_bytes:u16 |
   front-coded z run ({!Sqp_zorder.Zrun}, fixed-length mode) | payloads
   (payload_len:u16 | payload, one per entry, in run order).  Points are
   recovered by unshuffling the full-resolution z values. *)

let meta_magic_v2 = "SQPX"
let meta_magic_v3 = "SQPZ"

type format = V2 | V3

let restart_interval = 16

let encode_meta_v2 ~dims ~depth ~leaf_capacity ~count =
  let buf = Bytes.create (4 + 1 + 1 + 2 + 8) in
  Bytes.blit_string meta_magic_v2 0 buf 0 4;
  Bytes.set_uint8 buf 4 dims;
  Bytes.set_uint8 buf 5 depth;
  Bytes.set_uint16_be buf 6 leaf_capacity;
  Bytes.set_int64_be buf 8 (Int64.of_int count);
  buf

let encode_meta_v3 ~dims ~depth ~leaf_capacity ~count ~page_budget =
  let buf = Bytes.create (4 + 1 + 1 + 2 + 8 + 4) in
  Bytes.blit_string meta_magic_v3 0 buf 0 4;
  Bytes.set_uint8 buf 4 dims;
  Bytes.set_uint8 buf 5 depth;
  Bytes.set_uint16_be buf 6 leaf_capacity;
  Bytes.set_int64_be buf 8 (Int64.of_int count);
  Bytes.set_int32_be buf 16 (Int32.of_int page_budget);
  buf

type meta = {
  version : int;
  space : Z.Space.t;
  leaf_capacity : int;
  count : int;
  page_budget : int option;  (* v3 only, [None] when 0 / v2 *)
}

let decode_meta ~path buf =
  if Bytes.length buf < 16 then
    Storage_error.corrupt ~path "bad index metadata page";
  let magic = Bytes.sub_string buf 0 4 in
  let version =
    if magic = meta_magic_v2 then 2
    else if magic = meta_magic_v3 then 3
    else Storage_error.corrupt ~path "bad index metadata page"
  in
  if version = 3 && Bytes.length buf < 20 then
    Storage_error.corrupt ~path "truncated v3 index metadata page";
  let page_budget =
    if version = 2 then None
    else
      match Int32.to_int (Bytes.get_int32_be buf 16) with
      | 0 -> None
      | b -> Some b
  in
  let space =
    try Z.Space.make ~dims:(Bytes.get_uint8 buf 4) ~depth:(Bytes.get_uint8 buf 5)
    with Invalid_argument msg ->
      Storage_error.corrupt ~path ("bad index metadata space: " ^ msg)
  in
  {
    version;
    space;
    leaf_capacity = Bytes.get_uint16_be buf 6;
    count = Int64.to_int (Bytes.get_int64_be buf 8);
    page_budget;
  }

(* {1 v2 entry codec} *)

let encode_entry dims point payload =
  let plen = String.length payload in
  if plen > 0xFFFF then invalid_arg "Persist: payload too long";
  let buf = Bytes.create ((4 * dims) + 2 + plen) in
  Array.iteri (fun i c -> Bytes.set_int32_be buf (4 * i) (Int32.of_int c)) point;
  Bytes.set_uint16_be buf (4 * dims) plen;
  Bytes.blit_string payload 0 buf ((4 * dims) + 2) plen;
  buf

let decode_entry ~path dims buf off =
  if off + (4 * dims) + 2 > Bytes.length buf then
    Storage_error.corrupt ~path "truncated index entry";
  let point = Array.init dims (fun i -> Int32.to_int (Bytes.get_int32_be buf (off + (4 * i)))) in
  let plen = Bytes.get_uint16_be buf (off + (4 * dims)) in
  if off + (4 * dims) + 2 + plen > Bytes.length buf then
    Storage_error.corrupt ~path "index entry payload runs past the page";
  let payload = Bytes.sub_string buf (off + (4 * dims) + 2) plen in
  (point, payload, off + (4 * dims) + 2 + plen)

(* {1 v3 page codec} *)

(* Exact incremental size arithmetic mirroring [Zrun.encode] in
   fixed-length mode, so pages are packed to the byte without trial
   encodes: a restart entry costs its 2-byte table slot plus the whole
   key, any other costs a shared byte plus its suffix. *)
let key_bytes bits = (bits + 7) / 8

let v3_entry_cost ~total ~index ~prev z payload_len =
  let key_cost =
    if index mod restart_interval = 0 then 2 + key_bytes total
    else
      let shared = Z.Zpacked.common_prefix_len prev z in
      1 + key_bytes (total - shared)
  in
  key_cost + 2 + payload_len

(* Fixed per-page overhead: run header (7) + nentries:u16 + run_bytes:u16. *)
let v3_page_overhead = 7 + 4

let encode_page_v3 ~total zs payloads =
  let run = Z.Zrun.encode ~restart_interval ~fixed_len:total zs in
  let rs = Z.Zrun.to_string run in
  let buf = Buffer.create (4 + String.length rs) in
  Buffer.add_uint16_be buf (Array.length zs);
  Buffer.add_uint16_be buf (String.length rs);
  Buffer.add_string buf rs;
  List.iter
    (fun p ->
      Buffer.add_uint16_be buf (String.length p);
      Buffer.add_string buf p)
    payloads;
  Buffer.to_bytes buf

let decode_page_v3 ~path buf =
  let s = Bytes.unsafe_to_string buf in
  let len = String.length s in
  if len < 4 then Storage_error.corrupt ~path "truncated v3 data page";
  let u16 i = (Char.code s.[i] lsl 8) lor Char.code s.[i + 1] in
  let nentries = u16 0 and run_bytes = u16 2 in
  if 4 + run_bytes > len then
    Storage_error.corrupt ~path "v3 z run overruns the page";
  let run =
    try Z.Zrun.of_string ~pos:4 ~len:run_bytes s
    with Invalid_argument msg ->
      Storage_error.corrupt ~path ("v3 z run: " ^ msg)
  in
  if Z.Zrun.count run <> nentries then
    Storage_error.corrupt ~path "v3 page entry count disagrees with its z run";
  let zs =
    try Z.Zrun.decode run
    with Invalid_argument msg ->
      Storage_error.corrupt ~path ("v3 z run: " ^ msg)
  in
  let payloads = Array.make nentries "" in
  let off = ref (4 + run_bytes) in
  for i = 0 to nentries - 1 do
    if !off + 2 > len then
      Storage_error.corrupt ~path "truncated v3 payload table";
    let plen = u16 !off in
    if !off + 2 + plen > len then
      Storage_error.corrupt ~path "v3 payload runs past the page";
    payloads.(i) <- String.sub s (!off + 2) plen;
    off := !off + 2 + plen
  done;
  (zs, payloads)

(* {1 Save} *)

let save_error_cleanup store tmp e =
  FP.close store;
  (try Sys.remove tmp with Sys_error _ -> ());
  (try Sys.remove (Sqp_storage.Journal.journal_path tmp) with Sys_error _ -> ());
  raise e

let save ?(io = Faulty_io.none) ?(format = V3) ~path ?(page_bytes = 4096) ~encode
    index =
  let space = Zindex.space index in
  let dims = Z.Space.dims space and depth = Z.Space.depth space in
  let total = Z.Space.total_bits space in
  (* Build the new store beside the old one, then atomically rename over
     it: a crash at any point leaves either the old or the new index. *)
  let tmp = path ^ ".tmp" in
  let store = FP.create ~io ~page_bytes tmp in
  let data_pages =
    try
      let capacity = FP.payload_capacity store in
      let entries = Zindex.Tree.to_list (Zindex.tree index) in
      let count = List.length entries in
      FP.begin_batch store;
      let data_pages = ref 0 in
      (match format with
      | V2 ->
          ignore
            (FP.alloc store
               (encode_meta_v2 ~dims ~depth
                  ~leaf_capacity:(Zindex.leaf_capacity index)
                  ~count));
          let buf = Buffer.create capacity in
          let flush_page () =
            if Buffer.length buf > 0 then begin
              ignore (FP.alloc store (Buffer.to_bytes buf));
              incr data_pages;
              Buffer.clear buf
            end
          in
          List.iter
            (fun (_, (p, v)) ->
              let e = encode_entry dims p (encode v) in
              if Bytes.length e > capacity then
                invalid_arg "Persist.save: entry larger than a page";
              if Buffer.length buf + Bytes.length e > capacity then flush_page ();
              Buffer.add_bytes buf e)
            entries;
          flush_page ()
      | V3 ->
          ignore
            (FP.alloc store
               (encode_meta_v3 ~dims ~depth
                  ~leaf_capacity:(Zindex.leaf_capacity index)
                  ~count
                  ~page_budget:
                    (Option.value ~default:0 (Zindex.page_budget index))));
          (* Greedy packing against the exact encoded size. *)
          let zs = ref [] and ps = ref [] and n = ref 0 in
          let bytes = ref v3_page_overhead in
          let prev = ref Z.Zpacked.empty in
          let flush_page () =
            if !n > 0 then begin
              let page =
                encode_page_v3 ~total
                  (Array.of_list (List.rev !zs))
                  (List.rev !ps)
              in
              assert (Bytes.length page <= capacity);
              ignore (FP.alloc store page);
              incr data_pages;
              zs := [];
              ps := [];
              n := 0;
              bytes := v3_page_overhead
            end
          in
          List.iter
            (fun (zbs, (_, v)) ->
              let z = Z.Zpacked.of_bitstring zbs in
              let payload = encode v in
              let plen = String.length payload in
              if plen > 0xFFFF then invalid_arg "Persist: payload too long";
              let cost =
                v3_entry_cost ~total ~index:!n ~prev:!prev z plen
              in
              if !n > 0 && !bytes + cost > capacity then flush_page ();
              let cost =
                if !n = 0 then v3_entry_cost ~total ~index:0 ~prev:!prev z plen
                else cost
              in
              if v3_page_overhead + cost > capacity then
                invalid_arg "Persist.save: entry larger than a page";
              zs := z :: !zs;
              ps := payload :: !ps;
              bytes := !bytes + cost;
              prev := z;
              incr n)
            entries;
          flush_page ());
      FP.commit_batch store;
      FP.close store;
      !data_pages
    with e -> save_error_cleanup store tmp e
  in
  Faulty_io.rename io ~src:tmp ~dst:path;
  data_pages

(* {1 Load} *)

let point_of_z space z = Array.map fst (Z.Zpacked.unshuffle space z)

let load ?(io = Faulty_io.none) ?(lenient = false) ~path ~decode () =
  let store = FP.open_existing ~io path in
  Fun.protect
    ~finally:(fun () -> FP.close store)
    (fun () ->
      let meta = ref None in
      let entries = ref [] in
      FP.iter store (fun slot payload ->
          match !meta with
          | None ->
              (* Slot order is id order; the metadata page was written
                 first. *)
              ignore slot;
              meta := Some (decode_meta ~path payload)
          | Some m when m.version = 2 ->
              let off = ref 0 in
              while !off < Bytes.length payload do
                let point, p, next =
                  decode_entry ~path (Z.Space.dims m.space) payload !off
                in
                entries := (point, decode p) :: !entries;
                off := next
              done
          | Some m ->
              let zs, payloads = decode_page_v3 ~path payload in
              Array.iteri
                (fun i z ->
                  entries := (point_of_z m.space z, decode payloads.(i)) :: !entries)
                zs);
      match !meta with
      | None -> Storage_error.corrupt ~path "empty store: no index metadata page"
      | Some m ->
          let entries = Array.of_list (List.rev !entries) in
          if Array.length entries <> m.count && not lenient then
            Storage_error.corrupt ~path
              (Printf.sprintf "entry count mismatch: metadata says %d, found %d"
                 m.count (Array.length entries));
          Zindex.of_points ~leaf_capacity:m.leaf_capacity
            ?page_budget:m.page_budget m.space entries)

(* {1 Inspection (fsck)} *)

type info = {
  version : int;
  dims : int;
  depth : int;
  count : int;  (* per metadata *)
  found : int;  (* entries actually decoded *)
  data_pages : int;
  page_budget : int option;
  page_errors : (int * string) list;  (* slot, problem *)
}

let inspect ?(io = Faulty_io.none) ~path () =
  let store = FP.open_existing ~io path in
  Fun.protect
    ~finally:(fun () -> FP.close store)
    (fun () ->
      let meta = ref None in
      let found = ref 0 and data_pages = ref 0 in
      let errors = ref [] in
      FP.iter store (fun slot payload ->
          match !meta with
          | None -> meta := Some (decode_meta ~path payload)
          | Some m -> (
              incr data_pages;
              match
                if m.version = 2 then begin
                  let off = ref 0 and n = ref 0 in
                  while !off < Bytes.length payload do
                    let _, _, next =
                      decode_entry ~path (Z.Space.dims m.space) payload !off
                    in
                    incr n;
                    off := next
                  done;
                  !n
                end
                else begin
                  (* Deep-check the run structure, not just decodability. *)
                  let s = Bytes.unsafe_to_string payload in
                  if Bytes.length payload >= 4 then begin
                    let run_bytes =
                      (Char.code s.[2] lsl 8) lor Char.code s.[3]
                    in
                    if 4 + run_bytes <= String.length s then
                      match
                        Z.Zrun.validate (Z.Zrun.of_string ~pos:4 ~len:run_bytes s)
                      with
                      | Ok () -> ()
                      | Error msg -> Storage_error.corrupt ~path msg
                  end;
                  let zs, _ = decode_page_v3 ~path payload in
                  Array.length zs
                end
              with
              | n -> found := !found + n
              | exception Storage_error.Corrupt { what; _ } ->
                  errors := (slot, what) :: !errors
              | exception Invalid_argument msg ->
                  errors := (slot, msg) :: !errors));
      match !meta with
      | None -> Storage_error.corrupt ~path "empty store: no index metadata page"
      | Some m ->
          {
            version = m.version;
            dims = Z.Space.dims m.space;
            depth = Z.Space.depth m.space;
            count = m.count;
            found = !found;
            data_pages = !data_pages;
            page_budget = m.page_budget;
            page_errors = List.rev !errors;
          })
