(* Packed z values: [len] bits, bit i stored MSB-first at bit (60 - i) of
   [w], i.e. [w] is the value zero-padded to Space.max_total_bits bits and
   read as a non-negative integer.  Invariant: every bit at position >= len
   is zero, so whole-word arithmetic never sees garbage. *)

type t = { len : int; w : int }

let width = Space.max_total_bits

let empty = { len = 0; w = 0 }

let length t = t.len

(* Top-[n] bits of the [width]-bit field, 0 <= n <= width. *)
let mask_first n = ((1 lsl n) - 1) lsl (width - n)

let check_len fn n =
  if n > width then invalid_arg ("Zpacked." ^ fn ^ ": longer than 61 bits")

(* Bit [i] of the value, as 0/1, without the bounds check of [get]. *)
let bit t i = (t.w lsr (width - 1 - i)) land 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Zpacked.get";
  bit t i = 1

(* Zero-padding both values to [width] bits preserves their relative
   lexicographic order except for exact-prefix pairs, where the padded
   words tie and the shorter (the prefix, which sorts first) wins on
   [len].  The invariant gives us the padded words for free. *)
let compare a b =
  let c = Int.compare a.w b.w in
  if c <> 0 then c else Int.compare a.len b.len

let equal a b = a.len = b.len && a.w = b.w

let is_prefix p t = p.len <= t.len && (p.w lxor t.w) land mask_first p.len = 0

let contains = is_prefix

(* Index of the highest set bit (0-based from the LSB); [x > 0]. *)
let floor_log2 x =
  let n = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin n := !n + 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then incr n;
  !n

let common_prefix_len a b =
  let m = if a.len <= b.len then a.len else b.len in
  let d = a.w lxor b.w in
  if d = 0 then m else min m (width - 1 - floor_log2 d)

let pad_to t n b =
  if n < t.len then invalid_arg "Zpacked.pad_to: shorter than the value";
  check_len "pad_to" n;
  if not b then { t with len = n }
  else { len = n; w = t.w lor (mask_first n lxor mask_first t.len) }

(* Bytewise packing: storage byte k holds string bits [8k .. 8k+7]
   MSB-first, so each byte lands with one shift.  The low three bits of
   byte 7 would be string bits 61..63, which cannot exist (len <= 61) and
   read as zero by the Bitstring invariant. *)
let of_bitstring b =
  let len = Bitstring.length b in
  check_len "of_bitstring" len;
  let w = ref 0 in
  for k = 0 to ((len + 7) / 8) - 1 do
    let v = Bitstring.byte b k and s = width - 8 - (8 * k) in
    w := !w lor (if s >= 0 then v lsl s else v lsr -s)
  done;
  { len; w = !w }

let to_bitstring t = Bitstring.init t.len (fun i -> get t i)

let shuffle space coords =
  let k = Space.dims space and d = Space.depth space in
  if Array.length coords <> k then
    invalid_arg "Zpacked.shuffle: wrong number of coordinates";
  Array.iter
    (fun c ->
      if not (Space.valid_coord space c) then
        invalid_arg "Zpacked.shuffle: coordinate out of range")
    coords;
  let total = k * d in
  let w = ref 0 in
  for j = 0 to total - 1 do
    (* bit 0 is the most significant of the d coordinate bits *)
    let b = (coords.(j mod k) lsr (d - 1 - (j / k))) land 1 in
    w := !w lor (b lsl (width - 1 - j))
  done;
  { len = total; w = !w }

let unshuffle space t =
  let k = Space.dims space in
  if t.len > Space.total_bits space then
    invalid_arg "Zpacked.unshuffle: z value too long for space";
  let prefixes = Array.make k (0, 0) in
  for j = 0 to t.len - 1 do
    let axis = j mod k in
    let v, len = prefixes.(axis) in
    prefixes.(axis) <- ((v lsl 1) lor bit t j, len + 1)
  done;
  prefixes

let take t n =
  if n < 0 || n > t.len then invalid_arg "Zpacked.take";
  { len = n; w = t.w land mask_first n }

let suffix_bytes t ~pos =
  if pos < 0 || pos > t.len then invalid_arg "Zpacked.suffix_bytes";
  let nbits = t.len - pos in
  let out = Bytes.make ((nbits + 7) / 8) '\000' in
  for i = 0 to nbits - 1 do
    if bit t (pos + i) = 1 then
      Bytes.set_uint8 out (i / 8)
        (Bytes.get_uint8 out (i / 8) lor (0x80 lsr (i mod 8)))
  done;
  Bytes.unsafe_to_string out

let append_bytes t ~bytes ~pos ~nbits =
  if nbits < 0 then invalid_arg "Zpacked.append_bytes";
  check_len "append_bytes" (t.len + nbits);
  if pos < 0 || pos + ((nbits + 7) / 8) > String.length bytes then
    invalid_arg "Zpacked.append_bytes: bytes too short";
  let w = ref t.w in
  for i = 0 to nbits - 1 do
    let b = (Char.code bytes.[pos + (i / 8)] lsr (7 - (i mod 8))) land 1 in
    w := !w lor (b lsl (width - 1 - (t.len + i)))
  done;
  { len = t.len + nbits; w = !w }

let hash t = Hashtbl.hash (t.len, t.w)

let pp ppf t =
  if t.len = 0 then Format.pp_print_string ppf "<>"
  else
    for i = 0 to t.len - 1 do
      Format.pp_print_char ppf (if get t i then '1' else '0')
    done
