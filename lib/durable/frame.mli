(** Length-prefixed, checksummed, hash-chained record framing shared by
    the WAL and the snapshot image:
    [[length : u32 LE] [crc32 : u32 LE] [kind : u8] [chain : u64 LE]
    [payload]].  The CRC covers the length bytes, the kind byte, the chain
    bytes and the payload, so a flipped length (or kind, or chain) field
    fails verification even when it stays in bounds.  [chain] is the
    record's hash-chain value — recovery re-derives the expected value to
    catch interior mutations. *)

val header_size : int
val max_payload : int

type kind =
  | Data  (** a logical record; advances the LSN and the chain *)
  | Seal  (** a sync marker carrying the chain head; advances neither *)

val add : Buffer.t -> ?kind:kind -> chain:int -> string -> unit
(** Append one framed record ([kind] defaults to [Data]).
    @raise Invalid_argument when the payload exceeds {!max_payload}. *)

val encode : ?kind:kind -> chain:int -> string -> string

type scan_result =
  | Record of { payload : string; kind : kind; chain : int; next : int }
  | End  (** exactly at the end of the image: a clean boundary *)
  | Bad of string  (** the remaining tail cannot be verified *)

val scan : string -> pos:int -> scan_result
(** Verify the record starting at [pos] of a stable image. *)

(** {1 Payload codec}

    Little-endian integer plumbing, shared with the WAL/snapshot headers
    and the payload codecs of the stores built on top: every payload is
    written with these writers and read back through {!Reader}. *)

val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val get_u32 : string -> int -> int
val put_u64 : Buffer.t -> int -> unit
val get_u64 : string -> int -> int

val plausible_u64 : string -> int -> bool
(** [plausible_u64 s pos]: the u64 at [pos] has neither of its top two
    bits set.  {!get_u64} folds 64 stored bits into a 63-bit int, and
    every u64 written here is below 2{^62}, so anything else is damage. *)

val put_str : Buffer.t -> string -> unit
(** A string behind its u32 length. *)

(** A bounds-checked cursor over one payload.  Every read advances the
    cursor; a short read, an implausible u64 ({!plausible_u64}) or {!fail}
    aborts the decode. *)
module Reader : sig
  type t

  val decode : string -> (t -> 'a) -> 'a option
  (** [decode payload f] runs [f] from the first byte and finishes: [Some]
      only if [f] returned and consumed every byte of [payload]. *)

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int

  val str16 : t -> string
  (** A string behind its u16 length. *)

  val str32 : t -> string
  (** A string behind its u32 length (see {!put_str}). *)

  val list : t -> count:(t -> int) -> (t -> 'a) -> 'a list
  (** Read the element count with [count], then that many elements. *)

  val at_end : t -> bool

  val fail : unit -> 'a
  (** Abort the decode: the bytes read so far are not a valid payload. *)

  val some : 'a option -> 'a
  (** The value, or {!fail} on [None]. *)
end
