(* The pure in-memory oracle the harness checks the real system against.

   It sees the same inputs — every appended entry and every pattern the
   system actually installed — but none of the faults: plain lists stand in
   for the durable store and the remote sites, and consolidation is a
   stable sort by timestamp over the streams in federation site order
   (clinical first), which is exactly what the fault-free k-way heap merge
   produces.  Everything here is a few lines of obviously-correct code; the
   point is that it shares no machinery with the implementation under
   test. *)

(* One pure token bucket per tenant — the mirror of the rows bucket the
   admission controller meters storm mutations against.  Same arithmetic
   as Admission.refill: closed boundary (integer credit
   (carry + elapsed * rate) / 1000), carry resets when the bucket tops
   out. *)
type tenant_bucket = {
  mutable cap : int;
  mutable rate : int;  (** tokens per second *)
  mutable tokens : int;
  mutable carry : int;  (** refill numerator remainder, < 1000 *)
  mutable tlast : int;  (** clock reading of the last refill *)
}

type t = {
  mutable vocab : Vocabulary.Vocab.t;
  mutable p_ps : Prima_core.Policy.t;
  mutable clinical_rev : Hdb.Audit_schema.entry list;
  mutable clinical_len : int;
  mutable synced : int;  (** durable floor: entries guaranteed to survive a crash *)
  remote_rev : Hdb.Audit_schema.entry list array;
  remote_synced : int array;  (** per-remote durable floors (site WALs) *)
  mutable tenants : tenant_bucket array;  (** admission mirror, [] until set *)
}

let create ~vocab ~p_ps ~nsites =
  {
    vocab;
    p_ps;
    clinical_rev = [];
    clinical_len = 0;
    synced = 0;
    remote_rev = Array.make nsites [];
    remote_synced = Array.make nsites 0;
    tenants = [||];
  }

let append_clinical t entries =
  List.iter
    (fun e ->
      t.clinical_rev <- e :: t.clinical_rev;
      t.clinical_len <- t.clinical_len + 1)
    entries

let append_remote t i entries =
  List.iter (fun e -> t.remote_rev.(i) <- e :: t.remote_rev.(i)) entries

let clinical t = List.rev t.clinical_rev
let clinical_length t = t.clinical_len
let synced t = t.synced
let set_synced t n = t.synced <- n

let remote t i = List.rev t.remote_rev.(i)
let remote_length t i = List.length t.remote_rev.(i)
let remote_synced t i = t.remote_synced.(i)
let set_remote_synced t i n = t.remote_synced.(i) <- n

(* A whole-system sync makes every attached WAL durable: the clinical
   floor and each remote site's floor all rise to the current lengths. *)
let mark_all_synced t =
  t.synced <- t.clinical_len;
  Array.iteri (fun i l -> t.remote_synced.(i) <- List.length l) t.remote_rev

let p_ps t = t.p_ps
let vocab t = t.vocab

(* Mirror a mid-run vocabulary edit: the oracle grounds everything from
   here on against the same re-stamped vocabulary the system adopted. *)
let set_vocab t vocab = t.vocab <- vocab

(* The fault-free consolidated trail.  Workload timestamps are strictly
   increasing, so a stable sort keyed on time alone reproduces the heap
   merge (and its site-order tie-break never fires). *)
let consolidated t =
  let streams =
    clinical t :: (Array.to_list t.remote_rev |> List.map List.rev)
  in
  List.stable_sort
    (fun (a : Hdb.Audit_schema.entry) (b : Hdb.Audit_schema.entry) ->
      compare a.time b.time)
    (List.concat streams)

let total_entries t =
  t.clinical_len + Array.fold_left (fun n l -> n + List.length l) 0 t.remote_rev

let trail_policy t = Audit_mgmt.To_policy.policy_of_entries (consolidated t)

type reading = { overlap : int; denominator : int }

(* Both coverage readings over the full trail, recomputed from the raw
   entries: each entry's (data, purpose, authorized) triple counted, and
   ranges through the seed's set-based Range_reference — not the coverage
   kernel, To_policy or Range the system reads through. *)
let coverage t =
  let module A = Vocabulary.Audit_attrs in
  let module R = Prima_core.Range_reference in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (e : Hdb.Audit_schema.entry) ->
      let k = (e.data, e.purpose, e.authorized) in
      Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
    (consolidated t);
  let triples =
    Hashtbl.fold
      (fun (data, purpose, authorized) n acc ->
        (Prima_core.Rule.of_assoc
           [ (A.data, data); (A.purpose, purpose); (A.authorized, authorized) ],
         n)
        :: acc)
      counts []
  in
  let range_x = R.of_policy t.vocab (Prima_core.Policy.project t.p_ps ~attrs:A.pattern) in
  let range_y = R.of_rules t.vocab (List.map fst triples) in
  let sum f = List.fold_left (fun acc (rule, n) -> acc + f rule n) 0 triples in
  ( { overlap = R.cardinality (R.inter range_x range_y); denominator = R.cardinality range_y },
    { overlap = sum (fun rule n -> if R.covers t.vocab range_x rule then n else 0);
      denominator = sum (fun _ n -> n);
    } )

(* The hypothetical fault-free, ungoverned refinement epoch over the full
   trail: what the system's refine could at most accept. *)
let epoch t =
  Prima_core.Refinement.run_epoch ~vocab:t.vocab ~p_ps:t.p_ps
    ~p_al:(trail_policy t) ()

(* Mirror the system's store: whatever the system actually accepted and
   installed is installed here too, keeping P_PS bitwise in step. *)
let install t rules = t.p_ps <- Prima_core.Policy.add_rules t.p_ps rules

(* ---------- admission mirror (invariant 10) ---------- *)

let set_tenant_classes t specs =
  t.tenants <-
    Array.of_list
      (List.map
         (fun (cap, rate) -> { cap; rate; tokens = cap; carry = 0; tlast = 0 })
         specs)

(* Mirror of Admission.set_class on an existing bucket: the level is
   clamped to the new capacity, carry and refill clock survive. *)
let set_tenant_quota t ~tenant ~capacity ~refill_per_s =
  let b = t.tenants.(tenant) in
  b.cap <- capacity;
  b.rate <- refill_per_s;
  b.tokens <- min capacity b.tokens

(* Closed-boundary refill, identical to Admission.refill. *)
let refill_bucket b ~now =
  if now > b.tlast then begin
    let elapsed = now - b.tlast in
    b.tlast <- now;
    let num = b.carry + (elapsed * b.rate) in
    b.tokens <- b.tokens + (num / 1000);
    b.carry <- num mod 1000;
    if b.tokens >= b.cap then begin
      b.tokens <- b.cap;
      b.carry <- 0
    end
  end

let tenant_tokens t ~tenant ~now =
  let b = t.tenants.(tenant) in
  refill_bucket b ~now;
  b.tokens

(* How many of [count] single-row mutation requests the gate admits at
   [now] under pressure [level], and the bucket debit that goes with
   them.  Strict admission needs [1 + level] tokens per request but
   debits one, so a bucket holding [tok] covers [tok - level] requests;
   [serve_cap] additionally models the server's drain capacity left after
   the other tenants were served. *)
let admit_requests t ~tenant ~now ~level ?serve_cap ~count () =
  let b = t.tenants.(tenant) in
  refill_bucket b ~now;
  let by_bucket = max 0 (min count (b.tokens - level)) in
  let admitted =
    match serve_cap with None -> by_bucket | Some cap -> max 0 (min by_bucket cap)
  in
  b.tokens <- b.tokens - admitted;
  admitted
