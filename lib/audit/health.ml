(* The health report a fault-aware consolidation returns alongside its
   merged entries.  Accounting invariant: every input record known to the
   federation is exactly one of delivered, quarantined, or at a skipped
   site — delivered + quarantined + skipped_entries = total — and the
   completeness fraction is delivered / total.  Downstream, coverage over a
   partial trail is labelled a lower bound carrying this fraction.

   A site served from the durable archive while its live fetch failed is
   [Stale]: its archived records count as delivered, the lag (records the
   live store holds beyond the archive) as stranded — so completeness
   still measures exactly what the merge contains.  Per-site durability
   (shard health, site-WAL recovery) rides along so consolidation can
   keep coverage at a lower bound while any site is durably degraded even
   when the record accounting looks complete — a degraded site's own
   totals are not trustworthy. *)

type skip_reason =
  | Breaker_open
  | Fetch_failed of string (* retries exhausted; the last failure *)

type site_status =
  | Delivered of { retries : int } (* fetched, possibly after retries *)
  | Stale of { archived : int; lag : int } (* served from the archive *)
  | Skipped of skip_reason

type site_health = {
  site : string;
  status : site_status;
  entries : int; (* entries this site contributed to the merge *)
  quarantined : int; (* ingest-quarantined + corrupted-in-transit *)
  skipped_entries : int; (* entries stranded when the site was skipped *)
  breaker : Breaker.state;
  trips : int; (* lifetime breaker trips for this site *)
  shards : int; (* archive shards held for this site *)
  shards_degraded : int; (* of which torn or tampered *)
  site_degraded : bool; (* site WAL recovery lossy/tampered, replay pending *)
}

let make ?(shards = 0) ?(shards_degraded = 0) ?(site_degraded = false) ~site ~status
    ~entries ~quarantined ~skipped_entries ~breaker ~trips () =
  { site;
    status;
    entries;
    quarantined;
    skipped_entries;
    breaker;
    trips;
    shards;
    shards_degraded;
    site_degraded;
  }

type t = {
  sites : site_health list;
  classes : Admission.class_stats list; (* per-budget-class admission rows; [] when unattached *)
  delivered : int;
  quarantined : int;
  skipped_entries : int;
  total : int;
  completeness : float; (* delivered / total; 1.0 on an empty federation *)
  degraded_sites : int; (* sites whose durable state is not trustworthy *)
  degraded_shards : int; (* torn or tampered archive shards, all sites *)
}

(* A site whose durable substrate is damaged: its own record counts are
   not a trustworthy total, whatever its fetch status. *)
let site_durably_degraded s = s.site_degraded || s.shards_degraded > 0

(* A site that expects nothing is vacuously complete: guard the division
   so an empty site reports 1.0 instead of NaN. *)
let site_completeness (s : site_health) =
  let expected = s.entries + s.quarantined + s.skipped_entries in
  if expected = 0 then 1.0 else float_of_int s.entries /. float_of_int expected

let of_sites ?(classes = []) (sites : site_health list) =
  let sum f = List.fold_left (fun acc (s : site_health) -> acc + f s) 0 sites in
  let delivered = sum (fun s -> s.entries) in
  let quarantined = sum (fun s -> s.quarantined) in
  let skipped_entries = sum (fun s -> s.skipped_entries) in
  let total = delivered + quarantined + skipped_entries in
  { sites;
    classes;
    delivered;
    quarantined;
    skipped_entries;
    total;
    completeness = (if total = 0 then 1.0 else float_of_int delivered /. float_of_int total);
    degraded_sites =
      List.length (List.filter site_durably_degraded sites);
    degraded_shards = sum (fun s -> s.shards_degraded);
  }

let complete t = t.completeness >= 1.0

let durably_degraded t = t.degraded_sites > 0

let skip_reason_to_string = function
  | Breaker_open -> "breaker open"
  | Fetch_failed why -> Printf.sprintf "fetch failed (%s)" why

let pp_status ppf = function
  | Delivered { retries = 0 } -> Fmt.string ppf "ok"
  | Delivered { retries } -> Fmt.pf ppf "ok after %d retr%s" retries (if retries = 1 then "y" else "ies")
  | Stale { archived; lag } -> Fmt.pf ppf "stale (%d archived, %d behind)" archived lag
  | Skipped reason -> Fmt.string ppf (skip_reason_to_string reason)

let pp_site ppf s =
  Fmt.pf ppf
    "%-16s %-24s entries=%d quarantined=%d stranded=%d shards=%d/%d%s breaker=%a trips=%d"
    s.site
    (Fmt.str "%a" pp_status s.status)
    s.entries s.quarantined s.skipped_entries
    (s.shards - s.shards_degraded)
    s.shards
    (if s.site_degraded then " DEGRADED" else "")
    Breaker.pp_state s.breaker s.trips

let pp_class ppf (c : Admission.class_stats) =
  Fmt.pf ppf "%-16s weight=%d admitted=%d brownouts=%d shed=%d" c.cls c.weight c.admitted
    c.brownouts c.shed

let pp ppf t =
  Fmt.pf ppf "federation health: %d/%d records delivered (completeness %.1f%%)@."
    t.delivered t.total (100. *. t.completeness);
  Fmt.pf ppf "  delivered=%d quarantined=%d stranded-at-skipped-sites=%d@." t.delivered
    t.quarantined t.skipped_entries;
  if t.degraded_sites > 0 || t.degraded_shards > 0 then
    Fmt.pf ppf "  durably degraded: %d site(s), %d shard(s)@." t.degraded_sites
      t.degraded_shards;
  List.iter (fun s -> Fmt.pf ppf "  %a@." pp_site s) t.sites;
  if t.classes <> [] then begin
    Fmt.pf ppf "  budget classes:@.";
    List.iter (fun c -> Fmt.pf ppf "    %a@." pp_class c) t.classes
  end
