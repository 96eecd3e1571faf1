(** Query interface over the audit store — the Compliance Auditing side of
    HDB: who saw what, when, and why. *)

type filter = {
  user : string option;
  data : string option;
  purpose : string option;
  authorized : string option;
  op : Audit_schema.op option;
  status : Audit_schema.status option;
  time_from : int option;  (** inclusive *)
  time_to : int option;  (** inclusive *)
  session : string option;
      (** provenance session id; entries without provenance never match *)
  request : string option;  (** provenance request id; likewise *)
}

val any : filter
(** Matches everything; override fields as needed. *)

val matches : filter -> Audit_schema.entry -> bool
val run : Audit_store.t -> filter -> Audit_schema.entry list
val count : Audit_store.t -> filter -> int

val disclosures : Audit_store.t -> data:string -> Audit_schema.entry list
(** Allowed accesses to a data category — the typical compliance-officer
    question. *)

val exceptions : Audit_store.t -> Audit_schema.entry list
(** The Break-The-Glass trail. *)

val by_session : Audit_store.t -> string -> Audit_schema.entry list
val by_request : Audit_store.t -> string -> Audit_schema.entry list
(** Everything one session / one request touched (provenance tracing). *)

val integrity_violations : Audit_store.t -> Audit_schema.entry list
(** Entries whose stored per-record integrity hash does not match a
    recomputation; empty on an untampered trail. *)

val summarize : Audit_store.t -> key:(Audit_schema.entry -> 'k) -> ('k * int) list
(** Frequency summary by a projection of the entry, most frequent first. *)

val by_user : Audit_store.t -> (string * int) list

val by_pattern : Audit_store.t -> ((string * string * string) * int) list
(** Keyed by (data, purpose, authorized). *)
