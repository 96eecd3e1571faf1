(* Holding area for audit records the federation could not take in: raw
   records a site's mapping rejected (Mapping.Unmappable) and records that
   arrived corrupted from a remote fetch.  Each item keeps the offending raw
   record, its site-local sequence number and a reason, so the record can be
   reprocessed — after a mapping fix, or a clean re-fetch — without losing
   the audit trail's accounting: every input record is either ingested,
   quarantined, or at a skipped site. *)

type item = {
  site : string;
  seq : int; (* site-local sequence number; the exactly-once key *)
  raw : (string * string) list;
  reason : string;
}

type t = {
  (* (site, seq) -> item; insertion order retained for reporting *)
  index : (string * int, item) Hashtbl.t;
  mutable order : (string * int) list; (* newest first *)
  (* Write-ahead durability (optional): mutations are framed as op records
     into the log before the tables change, so quarantined items — and
     their resolution — survive a restart. *)
  mutable log : Durable.Log.t option;
}

(* Op record codec.  One byte of opcode, then length-prefixed strings and
   u64 sequence numbers:

     'A' [seq : u64] [site] [reason] [npairs : u32] ([key] [value]) xn
     'R' [seq : u64] [site]
     'C'

   A checkpoint image is the live items re-encoded as 'A' ops, so replay
   needs only this one decoder. *)

(* A raw record: [npairs : u32] ([key] [value]) xn — shared with the
   site op log's 'Q'. *)
let put_raw buffer raw =
  Durable.Frame.put_u32 buffer (List.length raw);
  List.iter
    (fun (k, v) ->
      Durable.Frame.put_str buffer k;
      Durable.Frame.put_str buffer v)
    raw

let read_raw r =
  let module R = Durable.Frame.Reader in
  R.list r ~count:R.u32 (fun r ->
      let key = R.str32 r in
      let value = R.str32 r in
      (key, value))

let encode_add ~site ~seq ~raw ~reason =
  let buffer = Buffer.create 64 in
  Buffer.add_char buffer 'A';
  Durable.Frame.put_u64 buffer seq;
  Durable.Frame.put_str buffer site;
  Durable.Frame.put_str buffer reason;
  put_raw buffer raw;
  Buffer.contents buffer

let encode_remove ~site ~seq =
  let buffer = Buffer.create 24 in
  Buffer.add_char buffer 'R';
  Durable.Frame.put_u64 buffer seq;
  Durable.Frame.put_str buffer site;
  Buffer.contents buffer

let encode_clear = "C"

type op =
  | Op_add of item
  | Op_remove of string * int
  | Op_clear

let decode_op s =
  let module R = Durable.Frame.Reader in
  R.decode s (fun r ->
      match Char.chr (R.u8 r) with
      | 'C' -> Op_clear
      | 'R' ->
        let seq = R.u64 r in
        let site = R.str32 r in
        Op_remove (site, seq)
      | 'A' ->
        let seq = R.u64 r in
        let site = R.str32 r in
        let reason = R.str32 r in
        let raw = read_raw r in
        Op_add { site; seq; raw; reason }
      | _ -> R.fail ())

let create () = { index = Hashtbl.create 16; order = []; log = None }

let length t = Hashtbl.length t.index

let mem t ~site ~seq = Hashtbl.mem t.index (site, seq)

let log_op t payload =
  match t.log with
  | Some log -> ignore (Durable.Log.append log payload)
  | None -> ()

(* Table updates alone — shared by the public mutators (which log first)
   and recovery replay (whose ops are already in the log). *)
let add_mem t ~site ~seq ~raw ~reason =
  let key = (site, seq) in
  if not (Hashtbl.mem t.index key) then t.order <- key :: t.order;
  Hashtbl.replace t.index key { site; seq; raw; reason }

let remove_mem t ~site ~seq =
  let key = (site, seq) in
  if Hashtbl.mem t.index key then begin
    Hashtbl.remove t.index key;
    t.order <- List.filter (fun k -> k <> key) t.order
  end

let clear_mem t =
  Hashtbl.reset t.index;
  t.order <- []

(* Idempotent: re-adding a (site, seq) already held replaces the reason but
   does not duplicate the item. *)
let add t ~site ~seq ~raw ~reason =
  log_op t (encode_add ~site ~seq ~raw ~reason);
  add_mem t ~site ~seq ~raw ~reason

let remove t ~site ~seq =
  if mem t ~site ~seq then begin
    log_op t (encode_remove ~site ~seq);
    remove_mem t ~site ~seq
  end

let items t =
  List.rev_map (fun key -> Hashtbl.find t.index key) t.order

let site_items t ~site =
  List.filter (fun item -> String.equal item.site site) (items t)

let site_count t ~site = List.length (site_items t ~site)

(* Remove and return every item of [site] — the reprocessing entry point:
   the caller re-applies the (possibly fixed) mapping and re-adds whatever
   still fails. *)
let take_site t ~site =
  let taken = site_items t ~site in
  List.iter (fun item -> remove t ~site ~seq:item.seq) taken;
  taken

let clear t =
  if length t > 0 || t.log <> None then log_op t encode_clear;
  clear_mem t

(* --- durability --- *)

let log t = t.log

let attach_log t log = t.log <- Some log

let sync t = Option.iter Durable.Log.sync t.log

(* Replay a recovered op log into [t] (assumed fresh), then attach it so
   new mutations are write-ahead. *)
let restore t log =
  let result =
    Durable.Log.replay log (fun payload ->
        match decode_op payload with
        | Some (Op_add { site; seq; raw; reason }) ->
          add_mem t ~site ~seq ~raw ~reason;
          true
        | Some (Op_remove (site, seq)) ->
          remove_mem t ~site ~seq;
          true
        | Some Op_clear ->
          clear_mem t;
          true
        | None -> false)
  in
  t.log <- Some log;
  result

let open_durable log =
  let t = create () in
  let recovery, undecodable = restore t log in
  (t, recovery, undecodable)

(* The live items, each re-encoded as an 'A' op, so replay reuses the one
   decoder. *)
let image t =
  List.map (fun { site; seq; raw; reason } -> encode_add ~site ~seq ~raw ~reason) (items t)

(* Compact the op history into a snapshot of the live items and truncate
   the WAL. *)
let checkpoint t = Option.iter (fun log -> Durable.Log.checkpoint log ~entries:(image t)) t.log

(* Keep the op log bounded: compact automatically once it exceeds the
   policy.  Mutations are write-ahead (op logged, then applied), so at
   trigger time the live items are exactly the state the logged ops
   produce. *)
let enable_auto_checkpoint ?(policy = Durable.Log.checkpoint_every ~records:1024 ()) t =
  Option.iter (fun log -> Durable.Log.set_auto_checkpoint log policy (fun () -> image t)) t.log

let pp_item ppf item =
  Fmt.pf ppf "%s#%d: %s" item.site item.seq item.reason

let pp ppf t =
  match items t with
  | [] -> Fmt.pf ppf "quarantine empty@."
  | items ->
    Fmt.pf ppf "quarantine (%d):@." (List.length items);
    List.iter (fun item -> Fmt.pf ppf "  %a@." pp_item item) items
