(* The PRIMA Audit Management component: a consolidated virtual view over
   every site's audit trail (the role DB2 Information Integrator plays in
   the paper's first instantiation).  Entries are merged by timestamp with
   a tournament merge; per-site logs are append-ordered so each is already
   sorted, and out-of-order sites are sorted defensively.

   [consolidated_view] is the one consolidation: each site is fetched
   through its fault wrapper (if any) under retry/backoff, gated by a
   per-site circuit breaker, with corrupted records quarantined — and the
   result carries a health report accounting for 100% of input records
   (delivered + quarantined + stranded at skipped sites) plus the
   completeness fraction downstream coverage must surface.  It yields
   pattern counts eagerly and the merged entries lazily;
   [consolidated_result] forces them. *)

type member = {
  mutable msite : Site.t; (* mutable so a crash-recovered site can be reseated *)
  mutable fault : Fault.t option; (* None = perfectly reliable transport *)
  breaker : Breaker.t;
}

type t = {
  mutable members : member list;
  clock : int ref; (* simulated ms; advanced by retries and fetch latency *)
  retry : Retry.policy;
  prng : Splitmix.t; (* jitter stream for retry backoff *)
  transit : Quarantine.t; (* records corrupted in transit, latest fetch *)
  (* The durable consolidated archive (optional): successful fetches are
     archived per (site, time-range) shard, and a site whose live fetch
     fails is served stale from its shards instead of being skipped. *)
  mutable archive : Shard_store.t option;
  (* Tenant admission controller (optional), shared with every member
     site's ingestion gate. *)
  mutable admission : Admission.t option;
}

let create ?(retry = Retry.default) ?(seed = 0) () =
  { members = [];
    clock = ref 0;
    retry;
    prng = Splitmix.create ~seed;
    transit = Quarantine.create ();
    archive = None;
    admission = None;
  }

let member ?fault ?breaker site =
  { msite = site; fault; breaker = Breaker.create ?config:breaker () }

let add_member t m =
  t.members <- t.members @ [ m ];
  Site.set_admission m.msite t.admission

let add_site t site = add_member t (member site)

let add_faulty_site ?breaker t fault = add_member t (member ~fault ?breaker (Fault.site fault))

let of_sites sites =
  let t = create () in
  List.iter (add_site t) sites;
  t

let sites t = List.map (fun m -> m.msite) t.members

let site t name =
  List.find_opt (fun s -> String.equal (Site.name s) name) (sites t)

let find_member t name =
  List.find_opt (fun m -> String.equal (Site.name m.msite) name) t.members

let fault t name = Option.bind (find_member t name) (fun m -> m.fault)

let breaker t name = Option.map (fun m -> m.breaker) (find_member t name)

let set_fault t name fault =
  match find_member t name with
  | Some m -> m.fault <- fault
  | None -> invalid_arg (Printf.sprintf "Federation.set_fault: unknown site %s" name)

(* Swap in a replacement site — e.g. one rebuilt from its WAL after a
   crash — keeping the member's breaker history and fault schedule. *)
let reseat_site t name site =
  match find_member t name with
  | Some m ->
    m.msite <- site;
    Site.set_admission site t.admission;
    Option.iter (fun f -> Fault.reseat f site) m.fault
  | None -> invalid_arg (Printf.sprintf "Federation.reseat_site: unknown site %s" name)

let attach_archive t archive = t.archive <- Some archive

let archive t = t.archive

(* {2 Tenant admission} — one controller shared by every member site's
   ingestion gate, its backpressure fed from the federation's own health
   signals. *)

let set_admission t admission =
  t.admission <- admission;
  List.iter (fun m -> Site.set_admission m.msite admission) t.members

let admission t = t.admission

(* The live overload signals backpressure is derived from: un-synced
   site-WAL records, degraded archive shards, and open breakers. *)
let pressure_signals t =
  let wal_backlog =
    List.fold_left
      (fun acc m ->
        match Site.wal m.msite with
        | None -> acc
        | Some log -> acc + Durable.Log.pending_records log)
      0 t.members
  in
  let degraded_shards =
    match t.archive with None -> 0 | Some a -> Shard_store.shards_degraded a
  in
  let open_breakers =
    List.length
      (List.filter (fun m -> Breaker.state m.breaker = Breaker.Open) t.members)
  in
  { Admission.wal_backlog; degraded_shards; open_breakers }

(* Re-derive backpressure and raise/lower the admission bar; a no-op
   without a controller. *)
let refresh_pressure t =
  Option.iter (fun adm -> Admission.set_pressure adm (pressure_signals t)) t.admission

let heal_all t =
  List.iter (fun m -> Option.iter Fault.heal m.fault) t.members

let clock t = !(t.clock)

let advance_clock t ms = t.clock := !(t.clock) + ms

let transit_quarantine t = t.transit

let total_entries t =
  List.fold_left (fun acc site -> acc + Site.length site) 0 (sites t)

let is_sorted entries =
  let rec go = function
    | a :: (b :: _ as rest) ->
      a.Hdb.Audit_schema.time <= b.Hdb.Audit_schema.time && go rest
    | [ _ ] | [] -> true
  in
  go entries

let sort_defensively entries =
  if is_sorted entries then entries
  else
    List.stable_sort
      (fun a b -> Int.compare a.Hdb.Audit_schema.time b.Hdb.Audit_schema.time)
      entries

(* Merge per-site streams (already sorted) into one time-ordered list —
   a tournament merge keyed (time, site index): ties resolve in site
   order and within a site records keep append order, so the merge is
   stable and deterministic (pinned by the QCheck parity test against a
   global stable sort). *)
let merge_streams = Tournament.merge_entries

(* One member's contribution to a consolidation.  A fault-free member
   contributes its store and the length it had at consolidation: the
   store is append-only, so that prefix never changes, and it is copied
   out only if the merged entries are forced.  Every other member
   contributes the entries actually delivered — fetched through a fault
   wrapper, archived, or served stale — sorted by time. *)
type stream =
  | Prefix of Hdb.Audit_store.t * int
  | Delivered of Hdb.Audit_schema.entry list

let stream_entries = function
  | Prefix (store, n) -> sort_defensively (Hdb.Audit_store.prefix store n)
  | Delivered entries -> entries

(* One site through its fault wrapper under retry; [None] fault is a
   perfect in-process transport. *)
let fetch_member t m =
  match m.fault with
  | None ->
    let store = Site.store m.msite in
    Ok (Prefix (store, Hdb.Audit_store.length store), [], 0)
  | Some f ->
    let result, stats =
      Retry.run ~policy:t.retry ~prng:t.prng ~clock:t.clock (fun ~attempt:_ ->
          Fault.fetch f ~clock:t.clock)
    in
    (match result with
    | Ok fetched ->
      Ok
        ( Delivered (sort_defensively fetched.Fault.delivered),
          fetched.Fault.corrupted,
          stats.Retry.attempts - 1 )
    | Error failure -> Error (Fault.failure_to_string failure))

(* Occurrences of each (data, purpose, authorized) triple across streams.
   A prefix's counts come from its store's cache, caught up to the store's
   current length — the prefix length, since the tally is taken in the
   same consolidation step that read it. *)
let count_stream tally stream =
  let add data purpose authorized n =
    let key = (data, purpose, authorized) in
    Hashtbl.replace tally key (n + Option.value (Hashtbl.find_opt tally key) ~default:0)
  in
  match stream with
  | Prefix (store, _) -> Hdb.Audit_store.iter_patterns add store
  | Delivered entries ->
    List.iter
      (fun (e : Hdb.Audit_schema.entry) ->
        add e.Hdb.Audit_schema.data e.Hdb.Audit_schema.purpose e.Hdb.Audit_schema.authorized 1)
      entries

type view = {
  health : Health.t;
  pattern_counts : int Prima_core.Rule.Tbl.t;
  entries : Hdb.Audit_schema.entry list Lazy.t;
}

type result_t = {
  entries : Hdb.Audit_schema.entry list;
  health : Health.t;
}

(* The one consolidation: breaker-gated, retried fetches; corrupted records
   quarantined; a health report accounting for every input record.

   With an archive attached, a successful fetch is archived into the
   site's shards, and a site whose live fetch fails (or whose breaker is
   open) is served {e stale} from its servable shards: the archived
   records count as delivered, the lag as stranded, so completeness still
   measures exactly what the merge contains.  Per-site durability state —
   shard health, a pending site-WAL replay — rides on each health entry
   so downstream coverage stays a lower bound while anything durable is
   damaged. *)
let consolidated_view t : view =
  (* Consolidation observes the freshest overload signals, so the
     admission bar tracks the federation's actual health. *)
  refresh_pressure t;
  let tally = Hashtbl.create 256 in
  let keep stream h (streams, healths) =
    count_stream tally stream;
    (stream :: streams, h :: healths)
  in
  let streams_rev, healths_rev =
    List.fold_left
      (fun ((streams, healths) as acc) m ->
        let name = Site.name m.msite in
        let store_len = Site.length m.msite in
        let ingest_q = Site.quarantined_count m.msite in
        let site_degraded = Site.durably_degraded m.msite in
        let shards, shards_degraded =
          match t.archive with
          | None -> (0, 0)
          | Some a ->
            let mine =
              List.filter
                (fun (i : Shard_store.shard_info) -> String.equal i.Shard_store.site name)
                (Shard_store.shard_infos a)
            in
            ( List.length mine,
              List.length
                (List.filter
                   (fun (i : Shard_store.shard_info) ->
                     i.Shard_store.status <> Shard_store.Healthy)
                   mine) )
        in
        let health ~status ~entries ~quarantined ~skipped_entries =
          Health.make ~shards ~shards_degraded ~site_degraded ~site:name ~status
            ~entries ~quarantined ~skipped_entries
            ~breaker:(Breaker.state m.breaker) ~trips:(Breaker.trips m.breaker) ()
        in
        (* A failed (or breaker-gated) live fetch degrades to the durable
           archive when it can serve anything; otherwise the site is
           skipped outright. *)
        let degrade ~skip_status =
          match t.archive with
          | Some a when Shard_store.site_records a ~site:name > 0 ->
            let archived = Shard_store.site_records a ~site:name in
            let lag = max 0 (store_len - archived) in
            let h =
              health
                ~status:(Health.Stale { archived; lag })
                ~entries:archived ~quarantined:ingest_q ~skipped_entries:lag
            in
            keep (Delivered (Shard_store.merged_site a ~site:name)) h acc
          | _ ->
            let h =
              health ~status:skip_status ~entries:0 ~quarantined:ingest_q
                ~skipped_entries:store_len
            in
            (streams, h :: healths)
        in
        if not (Breaker.allow m.breaker ~now:!(t.clock)) then
          degrade ~skip_status:(Health.Skipped Health.Breaker_open)
        else
          match fetch_member t m with
          | Ok (stream, corrupted, retries) ->
            Breaker.record_success m.breaker;
            (* Latest fetch supersedes the site's transit quarantine. *)
            ignore (Quarantine.take_site t.transit ~site:name);
            List.iter
              (fun (seq, raw, reason) -> Quarantine.add t.transit ~site:name ~seq ~raw ~reason)
              corrupted;
            let corrupted = List.length corrupted in
            let stream =
              match t.archive with
              | None -> stream
              | Some a ->
                let entries = stream_entries stream in
                ignore (Shard_store.archive_site a ~site:name entries);
                Delivered entries
            in
            let h =
              health
                ~status:(Health.Delivered { retries })
                ~entries:(store_len - corrupted)
                ~quarantined:(ingest_q + corrupted) ~skipped_entries:0
            in
            keep stream h acc
          | Error why ->
            Breaker.record_failure m.breaker ~now:!(t.clock);
            degrade ~skip_status:(Health.Skipped (Health.Fetch_failed why)))
      ([], []) t.members
  in
  let streams = List.rev streams_rev in
  let classes = Option.fold ~none:[] ~some:Admission.stats t.admission in
  { health = Health.of_sites ~classes (List.rev healths_rev);
    pattern_counts =
      (let counts = Prima_core.Rule.Tbl.create (Hashtbl.length tally) in
       Hashtbl.iter
         (fun (data, purpose, authorized) n ->
           Prima_core.Rule.Tbl.replace counts
             (To_policy.pattern_rule ~data ~purpose ~authorized)
             n)
         tally;
       counts);
    entries = lazy (merge_streams (List.map stream_entries streams));
  }

let consolidated_result t : result_t =
  let view = consolidated_view t in
  { entries = Lazy.force view.entries; health = view.health }

let pp ppf t =
  Fmt.pf ppf "federation of %d sites, %d entries@." (List.length t.members)
    (total_entries t);
  List.iter
    (fun m ->
      Fmt.pf ppf "  %s: %d entries%s, breaker %a@." (Site.name m.msite)
        (Site.length m.msite)
        (match m.fault with
        | Some f when Fault.is_down f -> " (down)"
        | Some _ -> " (fault-injected)"
        | None -> "")
        Breaker.pp_state (Breaker.state m.breaker))
    t.members
