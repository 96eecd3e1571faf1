(* Length-prefixed, checksummed, hash-chained record framing shared by the
   WAL and the snapshot image:

     [length : u32 LE] [crc32 : u32 LE] [kind : u8] [chain : u64 LE] [payload]

   The CRC covers the length bytes, the kind byte, the chain bytes *and*
   the payload, so a flipped length field fails verification even when the
   corrupted length happens to stay in bounds — and so does a flipped kind
   or chain field.

   [chain] is the hash-chain value of this record ([Chain.step] of the
   previous head and the payload for data records; the current head for
   seal records) — the scanner surfaces it and recovery re-derives the
   expected value, which is how interior mutations are caught even when a
   record's own CRC still verifies.

   [scan] distinguishes a clean end of log from a tail that cannot be
   verified — the distinction recovery reports. *)

let header_size = 4 + 4 + 1 + 8

(* Generous but bounded: a corrupted length field must not convince the
   scanner to allocate gigabytes. *)
let max_payload = 1 lsl 28

let put_u32 buffer n =
  for shift = 0 to 3 do
    Buffer.add_char buffer (Char.chr ((n lsr (8 * shift)) land 0xFF))
  done

let get_u32 s pos =
  let byte i = Char.code s.[pos + i] in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

let put_u64 buffer n =
  for shift = 0 to 7 do
    Buffer.add_char buffer (Char.chr ((n lsr (8 * shift)) land 0xFF))
  done

let get_u64 s pos =
  let n = ref 0 in
  for i = 7 downto 0 do
    n := (!n lsl 8) lor Char.code s.[pos + i]
  done;
  !n

(* [get_u64] folds 64 stored bits into a 63-bit OCaml int, so a set bit 63
   would vanish silently — and every u64 this codebase writes (LSNs,
   record counts, sequence numbers, 62-bit-masked chain values) is < 2^62.
   A top byte with either high bit set is damage, not a value. *)
let plausible_u64 s pos = Char.code s.[pos + 7] land 0xc0 = 0

let put_u16 = Buffer.add_uint16_le

let put_str buffer s =
  put_u32 buffer (String.length s);
  Buffer.add_string buffer s

(* The one payload decoder: a bounds-checked cursor that every store's
   codec reads through.  A short read, an implausible u64 or an explicit
   [fail] aborts the whole decode; [decode] turns that into [None]. *)
module Reader = struct
  type t = {
    s : string;
    mutable pos : int;
  }

  exception Malformed

  let fail () = raise Malformed

  let some = function Some v -> v | None -> fail ()

  let take r len =
    let pos = r.pos in
    if len > String.length r.s - pos then fail ();
    r.pos <- pos + len;
    pos

  let u8 r = Char.code r.s.[take r 1]

  let u16 r = String.get_uint16_le r.s (take r 2)

  let u32 r = get_u32 r.s (take r 4)

  let u64 r =
    let pos = take r 8 in
    if not (plausible_u64 r.s pos) then fail ();
    get_u64 r.s pos

  let bytes r len = String.sub r.s (take r len) len
  let str16 r = bytes r (u16 r)
  let str32 r = bytes r (u32 r)

  let list r ~count item =
    let rec go acc k = if k = 0 then List.rev acc else go (item r :: acc) (k - 1) in
    go [] (count r)

  let at_end r = r.pos = String.length r.s

  let finish r = if not (at_end r) then fail ()

  let decode s f =
    let r = { s; pos = 0 } in
    match
      let v = f r in
      finish r;
      v
    with
    | v -> Some v
    | exception Malformed -> None
end

type kind =
  | Data (* a logical record; advances the LSN and the chain *)
  | Seal (* a sync marker carrying the chain head; advances neither *)

let kind_byte = function Data -> 0 | Seal -> 1

let length_bytes n =
  let buffer = Buffer.create 4 in
  put_u32 buffer n;
  Buffer.contents buffer

let trailer_bytes kind chain =
  let buffer = Buffer.create 9 in
  Buffer.add_char buffer (Char.chr (kind_byte kind));
  put_u64 buffer chain;
  Buffer.contents buffer

let add buffer ?(kind = Data) ~chain payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Frame.add: payload too large";
  let len_bytes = length_bytes len in
  let trailer = trailer_bytes kind chain in
  Buffer.add_string buffer len_bytes;
  put_u32 buffer (Crc.strings [ len_bytes; trailer; payload ]);
  Buffer.add_string buffer trailer;
  Buffer.add_string buffer payload

let encode ?(kind = Data) ~chain payload =
  let buffer = Buffer.create (header_size + String.length payload) in
  add buffer ~kind ~chain payload;
  Buffer.contents buffer

type scan_result =
  | Record of { payload : string; kind : kind; chain : int; next : int }
  | End (* exactly at the end of the image: a clean boundary *)
  | Bad of string (* the remaining tail cannot be verified *)

let scan image ~pos =
  let n = String.length image in
  if pos = n then End
  else if pos + header_size > n then Bad "truncated record header"
  else begin
    let len = get_u32 image pos in
    if len > max_payload then Bad "implausible record length"
    else if pos + header_size + len > n then Bad "record extends past end of log"
    else begin
      let stored = get_u32 image (pos + 4) in
      let computed =
        Crc.update
          (Crc.update (Crc.update 0 image ~pos ~len:4) image ~pos:(pos + 8) ~len:9)
          image ~pos:(pos + header_size) ~len
      in
      if stored <> computed then Bad "record checksum mismatch"
      else begin
        let kind =
          match Char.code image.[pos + 8] with
          | 0 -> Some Data
          | 1 -> Some Seal
          | _ -> None
        in
        match kind with
        | None -> Bad "unknown record kind"
        | Some kind ->
          Record
            { payload = String.sub image (pos + header_size) len;
              kind;
              chain = get_u64 image (pos + 9);
              next = pos + header_size + len;
            }
      end
    end
  end
