(* The Compliance Auditing entry schema of Section 4.2:

     {(time,t), (op,X), (user,u), (data,d), (purpose,p), (authorized,a),
      (status,s)}

   op: 0 = disallow, 1 = allow.  status: 0 = exception-based access (the
   user manually entered the purpose — Break The Glass), 1 = regular. *)

type op =
  | Disallow
  | Allow

type status =
  | Exception_based
  | Regular

(* Optional provenance extension (after the MPI exemplar's audit tables):
   which session/request produced the record, which earlier operation it
   descends from, which fields it changed, and a per-record integrity hash
   over everything else.  Orthogonal to the paper's seven attributes — the
   relational export and Algorithm 5's SQL see exactly the same seven
   columns whether or not an entry carries provenance. *)
type provenance = {
  session : string;
  request : string;
  parent : int option; (* LSN of the operation this one descends from *)
  changed : string list; (* the fields the operation touched *)
  integrity : int; (* hash over the core fields + provenance-minus-this *)
}

type entry = {
  time : int;
  op : op;
  user : string;
  data : string;
  purpose : string;
  authorized : string;
  status : status;
  provenance : provenance option;
}

let entry ~time ~op ~user ~data ~purpose ~authorized ~status =
  { time; op; user; data; purpose; authorized; status; provenance = None }

let op_to_int = function Disallow -> 0 | Allow -> 1

let op_of_int = function
  | 0 -> Disallow
  | 1 -> Allow
  | n -> invalid_arg (Printf.sprintf "Audit_schema.op_of_int: %d" n)

let status_to_int = function Exception_based -> 0 | Regular -> 1

let status_of_int = function
  | 0 -> Exception_based
  | 1 -> Regular
  | n -> invalid_arg (Printf.sprintf "Audit_schema.status_of_int: %d" n)

let attr_time = Vocabulary.Audit_attrs.time
let attr_op = Vocabulary.Audit_attrs.op
let attr_user = Vocabulary.Audit_attrs.user
let attr_data = Vocabulary.Audit_attrs.data
let attr_purpose = Vocabulary.Audit_attrs.purpose
let attr_authorized = Vocabulary.Audit_attrs.authorized
let attr_status = Vocabulary.Audit_attrs.status

(* Attribute order of the schema in the paper. *)
let attributes =
  [ attr_time; attr_op; attr_user; attr_data; attr_purpose; attr_authorized; attr_status ]

(* Association-list view: the entry as the paper's rule of seven RuleTerms. *)
let to_assoc e =
  [ (attr_time, string_of_int e.time);
    (attr_op, string_of_int (op_to_int e.op));
    (attr_user, e.user);
    (attr_data, e.data);
    (attr_purpose, e.purpose);
    (attr_authorized, e.authorized);
    (attr_status, string_of_int (status_to_int e.status));
  ]

(* Binary wire codec for durable storage (the WAL payload format).  CSV is
   the human interchange; the WAL needs something that round-trips any
   byte sequence a corrupted upstream might have handed us, so fields are
   length-prefixed rather than delimited:

     [op : 1] [status : 1] ([len : u16 LE] [bytes]) x5
                            for time (decimal), user, data, purpose, authorized *)

let add_field buffer s =
  let len = String.length s in
  if len > 0xFFFF then invalid_arg "Audit_schema.to_wire: field longer than 65535 bytes";
  Durable.Frame.put_u16 buffer len;
  Buffer.add_string buffer s

let add_core buffer e =
  Buffer.add_char buffer (Char.chr (op_to_int e.op));
  Buffer.add_char buffer (Char.chr (status_to_int e.status));
  add_field buffer (string_of_int e.time);
  add_field buffer e.user;
  add_field buffer e.data;
  add_field buffer e.purpose;
  add_field buffer e.authorized

(* Provenance marker: entries without the extension end exactly after the
   five core fields; entries with it continue with 'P' and the extension
   fields.  [of_wire]'s total-parse discipline covers both shapes. *)
let provenance_marker = 'P'

let add_provenance_fields buffer p =
  add_field buffer p.session;
  add_field buffer p.request;
  add_field buffer (match p.parent with Some l -> string_of_int l | None -> "");
  let changed = List.length p.changed in
  if changed > 0xFFFF then invalid_arg "Audit_schema.to_wire: too many changed fields";
  Durable.Frame.put_u16 buffer changed;
  List.iter (add_field buffer) p.changed

(* What the per-record integrity hash commits to: the canonical core
   serialization plus every provenance field except the hash itself. *)
let integrity_preimage e p =
  let buffer = Buffer.create 96 in
  add_core buffer e;
  Buffer.add_char buffer provenance_marker;
  add_provenance_fields buffer p;
  Buffer.contents buffer

let integrity_hash e =
  match e.provenance with
  | None -> Durable.Chain.hash_string ""
  | Some p -> Durable.Chain.hash_string (integrity_preimage e p)

let verify_integrity e =
  match e.provenance with None -> true | Some p -> p.integrity = integrity_hash e

(* Attach (or replace) the provenance extension, computing the integrity
   hash over the final field values. *)
let with_provenance ~session ~request ?parent ?(changed = []) e =
  let p = { session; request; parent; changed; integrity = 0 } in
  let e = { e with provenance = Some p } in
  { e with provenance = Some { p with integrity = integrity_hash e } }

let to_wire e =
  let buffer = Buffer.create 64 in
  add_core buffer e;
  (match e.provenance with
  | None -> ()
  | Some p ->
    Buffer.add_char buffer provenance_marker;
    add_provenance_fields buffer p;
    add_field buffer (Durable.Chain.to_hex p.integrity));
  Buffer.contents buffer

(* Total parser: a WAL payload has already passed its CRC, so a [None]
   here means a codec mismatch, not bit rot — the caller decides whether
   that is fatal. *)
let of_wire s =
  let module R = Durable.Frame.Reader in
  R.decode s (fun r ->
      let op = R.u8 r in
      let status = R.u8 r in
      let time = R.str16 r in
      let user = R.str16 r in
      let data = R.str16 r in
      let purpose = R.str16 r in
      let authorized = R.str16 r in
      if op > 1 || status > 1 then R.fail ();
      let time = R.some (int_of_string_opt time) in
      let provenance =
        if R.at_end r then None
        else begin
          if R.u8 r <> Char.code provenance_marker then R.fail ();
          let session = R.str16 r in
          let request = R.str16 r in
          let parent =
            match R.str16 r with "" -> None | l -> Some (R.some (int_of_string_opt l))
          in
          let changed = R.list r ~count:R.u16 R.str16 in
          let integrity = R.some (Durable.Chain.of_hex (R.str16 r)) in
          Some { session; request; parent; changed; integrity }
        end
      in
      { time;
        op = op_of_int op;
        user;
        data;
        purpose;
        authorized;
        status = status_of_int status;
        provenance;
      })

let equal (a : entry) (b : entry) = a = b

let pp ppf e =
  Fmt.pf ppf "t%d %s %s data=%s purpose=%s authorized=%s %s" e.time
    (match e.op with Allow -> "allow" | Disallow -> "disallow")
    e.user e.data e.purpose e.authorized
    (match e.status with Regular -> "regular" | Exception_based -> "exception");
  match e.provenance with
  | None -> ()
  | Some p ->
    Fmt.pf ppf " [session=%s request=%s%a%s integrity=%s]" p.session p.request
      (fun ppf -> function None -> () | Some l -> Fmt.pf ppf " parent=%d" l)
      p.parent
      (match p.changed with [] -> "" | c -> " changed=" ^ String.concat ";" c)
      (Durable.Chain.to_hex p.integrity)
