(** The health report a fault-aware consolidation returns alongside its
    merged entries.

    Accounting invariant: every input record known to the federation is
    exactly one of delivered, quarantined, or stranded at a skipped site —
    [delivered + quarantined + skipped_entries = total] — and
    [completeness = delivered / total].  Coverage computed over a partial
    trail must be labelled a lower bound carrying this fraction.

    A [Stale] site was served from the durable archive while its live
    fetch failed: archived records count as delivered, the lag as
    stranded.  Per-site durability state (archive shard health, site-WAL
    recovery) rides along: while any site is {!site_durably_degraded},
    its own totals are not trustworthy, so coverage must stay a lower
    bound even when record accounting looks complete. *)

type skip_reason =
  | Breaker_open
  | Fetch_failed of string  (** retries exhausted; the last failure *)

type site_status =
  | Delivered of { retries : int }
  | Stale of { archived : int; lag : int }
      (** served from the durable archive; [lag] records not yet archived *)
  | Skipped of skip_reason

type site_health = {
  site : string;
  status : site_status;
  entries : int;
  quarantined : int;
  skipped_entries : int;
  breaker : Breaker.state;
  trips : int;  (** lifetime breaker trips for this site *)
  shards : int;  (** archive shards held for this site *)
  shards_degraded : int;  (** of which torn or tampered *)
  site_degraded : bool;  (** site-WAL recovery lossy/tampered, replay pending *)
}

val make :
  ?shards:int ->
  ?shards_degraded:int ->
  ?site_degraded:bool ->
  site:string ->
  status:site_status ->
  entries:int ->
  quarantined:int ->
  skipped_entries:int ->
  breaker:Breaker.state ->
  trips:int ->
  unit ->
  site_health
(** Durability fields default to healthy (0 shards, not degraded). *)

type t = {
  sites : site_health list;
  classes : Admission.class_stats list;
      (** per-budget-class admission rows; [[]] when no admission
          controller is attached *)
  delivered : int;
  quarantined : int;
  skipped_entries : int;
  total : int;
  completeness : float;
  degraded_sites : int;  (** sites whose durable state is not trustworthy *)
  degraded_shards : int;  (** torn or tampered archive shards, all sites *)
}

val of_sites : ?classes:Admission.class_stats list -> site_health list -> t
val complete : t -> bool

val site_completeness : site_health -> float
(** [entries / (entries + quarantined + skipped_entries)] for one site;
    a site with zero expected entries is vacuously complete (1.0), never
    NaN. *)

val durably_degraded : t -> bool
(** Any site durably degraded — coverage must stay a lower bound. *)

val site_durably_degraded : site_health -> bool
val skip_reason_to_string : skip_reason -> string
val pp_status : Format.formatter -> site_status -> unit
val pp_site : Format.formatter -> site_health -> unit
val pp_class : Format.formatter -> Admission.class_stats -> unit
val pp : Format.formatter -> t -> unit
