(* A compact point-in-time image of a store, written at a checkpoint so the
   WAL can be truncated:

     [magic "PSNP0002" : 8] [lsn : u64 LE] [chain : u64 LE] [count : u32 LE]
     [Frame]*                                              -- count records

   [lsn] is the LSN the image covers up to (exclusive): replay resumes at
   a WAL whose base_lsn equals it.  [chain] is the logical log's sealed
   hash-chain head at that LSN — an *opaque anchor*: the image's entries
   are a state snapshot, not the payload history (the quarantine's image
   re-encodes live state), so the head cannot be recomputed from them; it
   is carried verbatim so recovery can check the WAL's chain against it
   across the truncation boundary.

   The image frames themselves carry a mini-chain (from Chain.zero over
   the image entries in order), so an interior mutation of the image is
   caught the same way WAL tampering is.

   The image is all-or-nothing — it is written to its device and synced
   *before* the WAL is truncated, and a reader rejects any image whose
   record count, framing or mini-chain does not verify, falling back to
   the WAL that still holds everything. *)

let magic = "PSNP0002"

let header_size = String.length magic + 8 + 8 + 4

type t = {
  lsn : int;
  chain : int; (* the logical log's sealed chain head at [lsn] *)
  entries : string list;
}

(* Replace the device's contents with a fresh image and sync it. *)
let write device ~lsn ~chain ~entries =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer magic;
  Frame.put_u64 buffer lsn;
  Frame.put_u64 buffer chain;
  Frame.put_u32 buffer (List.length entries);
  let mini = ref Chain.zero in
  List.iter
    (fun entry ->
      mini := Chain.step !mini entry;
      Frame.add buffer ~chain:!mini entry)
    entries;
  Device.truncate device 0;
  Device.append device (Buffer.contents buffer);
  Device.sync device

(* [Ok None] on an empty device (no checkpoint yet); [Error] on an image
   that does not verify end-to-end. *)
let read device =
  let image = Device.contents device in
  if image = "" then Ok None
  else if String.length image < header_size then Error "truncated snapshot header"
  else if String.sub image 0 (String.length magic) <> magic then Error "bad snapshot magic"
  else begin
    let lsn_pos = String.length magic in
    let lsn = Frame.get_u64 image lsn_pos in
    let chain = Frame.get_u64 image (lsn_pos + 8) in
    let count = Frame.get_u32 image (lsn_pos + 16) in
    if not (Frame.plausible_u64 image lsn_pos) then Error "implausible snapshot LSN"
    else if not (Frame.plausible_u64 image (lsn_pos + 8)) then
      Error "implausible snapshot chain"
    else begin
      let rec records acc mini pos remaining =
        if remaining = 0 then
          if pos = String.length image then Ok (List.rev acc)
          else Error "snapshot has trailing bytes"
        else
          match Frame.scan image ~pos with
          | Frame.Record { payload; kind = Frame.Data; chain = c; next } ->
            let mini = Chain.step mini payload in
            if c <> mini then Error "snapshot record breaks the image chain"
            else records (payload :: acc) mini next (remaining - 1)
          | Frame.Record { kind = Frame.Seal; _ } -> Error "seal frame inside snapshot image"
          | Frame.End -> Error "snapshot missing records"
          | Frame.Bad why -> Error (Printf.sprintf "snapshot record invalid: %s" why)
      in
      match records [] Chain.zero header_size count with
      | Ok entries -> Ok (Some { lsn; chain; entries })
      | Error _ as e -> e
    end
  end
