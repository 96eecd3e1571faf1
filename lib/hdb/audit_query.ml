(* Query interface over the audit store: the Compliance Auditing side of
   HDB.  Answers "who saw what, when, and why" without touching the
   clinical tables. *)

type filter = {
  user : string option;
  data : string option;
  purpose : string option;
  authorized : string option;
  op : Audit_schema.op option;
  status : Audit_schema.status option;
  time_from : int option;
  time_to : int option;
  (* Provenance predicates: an entry without the extension never matches a
     set session/request filter. *)
  session : string option;
  request : string option;
}

let any =
  { user = None;
    data = None;
    purpose = None;
    authorized = None;
    op = None;
    status = None;
    time_from = None;
    time_to = None;
    session = None;
    request = None;
  }

let matches f (e : Audit_schema.entry) =
  let opt_eq extract = function None -> true | Some v -> extract e = v in
  let prov_eq extract = function
    | None -> true
    | Some v -> (
      match e.Audit_schema.provenance with None -> false | Some p -> extract p = v)
  in
  opt_eq (fun e -> e.Audit_schema.user) f.user
  && opt_eq (fun e -> e.Audit_schema.data) f.data
  && opt_eq (fun e -> e.Audit_schema.purpose) f.purpose
  && opt_eq (fun e -> e.Audit_schema.authorized) f.authorized
  && opt_eq (fun e -> e.Audit_schema.op) f.op
  && opt_eq (fun e -> e.Audit_schema.status) f.status
  && (match f.time_from with None -> true | Some t -> e.Audit_schema.time >= t)
  && (match f.time_to with None -> true | Some t -> e.Audit_schema.time <= t)
  && prov_eq (fun p -> p.Audit_schema.session) f.session
  && prov_eq (fun p -> p.Audit_schema.request) f.request

let run store f =
  List.rev
    (Audit_store.fold (fun acc e -> if matches f e then e :: acc else acc) [] store)

let count store f =
  Audit_store.fold (fun acc e -> if matches f e then acc + 1 else acc) 0 store

(* Disclosures of a data category — the typical compliance-officer
   question. *)
let disclosures store ~data =
  run store { any with data = Some data; op = Some Audit_schema.Allow }

(* Exception-based accesses: the Break-The-Glass trail. *)
let exceptions store = run store { any with status = Some Audit_schema.Exception_based }

(* Everything one session (or one request) touched — the MPI-style
   request-tracing question the provenance extension exists for. *)
let by_session store session = run store { any with session = Some session }
let by_request store request = run store { any with request = Some request }

(* Entries whose stored per-record integrity hash no longer matches a
   recomputation: a non-empty answer means the in-memory trail disagrees
   with what the records themselves claim — the query-level counterpart of
   the WAL's chain verification. *)
let integrity_violations store =
  List.rev
    (Audit_store.fold
       (fun acc e -> if Audit_schema.verify_integrity e then acc else e :: acc)
       [] store)

(* Frequency summary keyed by a projection of the entry. *)
let summarize store ~key =
  let table = Hashtbl.create 64 in
  Audit_store.iter
    (fun e ->
      let k = key e in
      Hashtbl.replace table k (1 + Option.value (Hashtbl.find_opt table k) ~default:0))
    store;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let by_user store = summarize store ~key:(fun e -> e.Audit_schema.user)

let by_pattern store =
  summarize store ~key:(fun e ->
      (e.Audit_schema.data, e.Audit_schema.purpose, e.Audit_schema.authorized))
