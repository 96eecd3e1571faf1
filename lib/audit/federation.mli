(** The PRIMA Audit Management component: a consolidated virtual view over
    every site's audit trail — the role DB2 Information Integrator plays in
    the paper's first instantiation.

    {!consolidated_view} is the one consolidation — breaker-gated, retried
    fetches through each site's fault wrapper, corrupted records
    quarantined, and a {!Health.t} report accounting for 100% of input
    records — which yields per-triple pattern counts at once and the
    merged entries only on demand ({!consolidated_result} forces them). *)

type t

val create : ?retry:Retry.policy -> ?seed:int -> unit -> t
(** [seed] feeds the retry-jitter PRNG; fault schedules have their own
    per-site seeds (see {!Fault.wrap}). *)

val of_sites : Site.t list -> t

val add_site : t -> Site.t -> unit
(** A member with perfect in-process transport. *)

val add_faulty_site : ?breaker:Breaker.config -> t -> Fault.t -> unit
(** A member reached through a fault-injection wrapper, gated by its own
    circuit breaker. *)

val sites : t -> Site.t list
val site : t -> string -> Site.t option
val fault : t -> string -> Fault.t option
val breaker : t -> string -> Breaker.t option

val set_fault : t -> string -> Fault.t option -> unit
(** Replace (or clear) a member's fault wrapper.
    @raise Invalid_argument on an unknown site. *)

val reseat_site : t -> string -> Site.t -> unit
(** Swap in a replacement site — e.g. one rebuilt from its WAL after a
    crash — keeping the member's breaker history and fault schedule.
    @raise Invalid_argument on an unknown site. *)

val attach_archive : t -> Shard_store.t -> unit
(** Attach the durable consolidated archive: successful fetches are
    archived per (site, time-range) shard, and a site whose live fetch
    fails — or whose breaker is open — is served {e stale} from its
    servable shards instead of being skipped outright. *)

val archive : t -> Shard_store.t option

val set_admission : t -> Admission.t option -> unit
(** Attach (or detach) a tenant admission controller, sharing it with
    every member site's ingestion gate — including sites added or
    reseated later.  The federation owns the gate: joining a federation
    replaces whatever controller a site carried. *)

val admission : t -> Admission.t option

val pressure_signals : t -> Admission.pressure
(** The live overload signals: un-synced site-WAL records, degraded
    archive shards, open breakers. *)

val refresh_pressure : t -> unit
(** Re-derive {!pressure_signals} into the attached controller (no-op
    without one).  {!consolidated_result} does this implicitly. *)

val heal_all : t -> unit
(** {!Fault.heal} every member — the recovery step of the convergence
    oracle. *)

val clock : t -> int
(** The simulated millisecond clock retries and breaker cooldowns run on. *)

val advance_clock : t -> int -> unit

val transit_quarantine : t -> Quarantine.t
(** Records corrupted in transit during the latest fetch of each site; a
    later clean fetch of the site clears its items. *)

val total_entries : t -> int

type view = {
  health : Health.t;
  pattern_counts : int Prima_core.Rule.Tbl.t;
      (** occurrences of each distinct (data, purpose, authorized) triple
          among the delivered entries, keyed by {!To_policy.pattern_rule}:
          the {!Prima_core.Coverage.tally} of the entries' P_AL *)
  entries : Hdb.Audit_schema.entry list Lazy.t;
      (** the delivered entries: a tournament merge of the per-site
          streams by timestamp, ties in site order (stable and
          deterministic); out-of-order site logs are sorted defensively *)
}
(** One consolidation whose entries are not yet copied out.  A fault-free
    member (no fault wrapper, no archive attached) contributes its store
    and the store's length at consolidation: its counts come from the
    store's cached pattern counts ({!Hdb.Audit_store.iter_patterns}), and
    forcing [entries] reads exactly that prefix, so entries appended later
    never leak into an old view.  Every other member contributes the list
    it delivered — fetched, archived or served stale — and its counts are
    built from that list. *)

val consolidated_view : t -> view
(** The one consolidation: each site fetched through its fault wrapper (if
    any) under retry/backoff, gated by its circuit breaker; corrupted
    records quarantined.  Never raises — failures degrade the health report
    instead: delivered + quarantined + stranded = 100% of known input.
    With an archive attached, failed sites degrade to stale archive reads
    (see {!attach_archive}) and each health entry carries the site's
    durable state (shard health, pending WAL replay).  Over fault-free
    members it costs O(sites + entries appended since the last
    consolidation + distinct triples). *)

type result_t = {
  entries : Hdb.Audit_schema.entry list;
  health : Health.t;
}

val consolidated_result : t -> result_t
(** {!consolidated_view} with its entries forced. *)

val pp : Format.formatter -> t -> unit
