(* monitor: the privacy officer's coverage dashboard over a growing
   federated trail.

   Set-up deals a generated preload across member sites, each on its own
   durable WAL with group commit.  Each round appends a delta across the
   sites and syncs their WALs (the write), reads qualified coverage (the
   read), reads it again with nothing changed (the re-read), and every
   [trend_every] rounds reads the coverage trend. *)

module Sys_ = Prima_system.System
module Site = Audit_mgmt.Site
module P = Prima_core

type scale = {
  preload : int;
  sites : int;
  rounds : int;
  delta : int;
  trend_every : int;
  trend_window : int;
}

let full =
  { preload = 100_000;
    sites = 8;
    rounds = 8;
    delta = 1_000;
    trend_every = 4;
    trend_window = 10_000;
  }

let small =
  { preload = 2_000; sites = 4; rounds = 3; delta = 200; trend_every = 2; trend_window = 500 }

type inputs = {
  scale : scale;
  config : Workload.Hospital.config;
  preload : Hdb.Audit_schema.entry list array; (* per site, time order *)
  deltas : Hdb.Audit_schema.entry list array array; (* per round, per site *)
  trail : Hdb.Audit_schema.entry list; (* everything, for the reference check *)
}

let entries inputs = List.length inputs.trail

(* One generated trail, dealt entry by entry to a seeded random site. *)
let generate ~seed (scale : scale) =
  let total = scale.preload + (scale.rounds * scale.delta) in
  let config =
    { (Workload.Hospital.default_config ~seed ()) with Workload.Hospital.total_accesses = total }
  in
  let trail = Workload.Generator.entries (Workload.Generator.generate config) in
  let rng = Splitmix.create ~seed:(seed + 1) in
  let preload = Array.make scale.sites [] in
  let deltas = Array.init scale.rounds (fun _ -> Array.make scale.sites []) in
  List.iteri
    (fun i entry ->
      let site = Splitmix.int rng scale.sites in
      if i < scale.preload then preload.(site) <- entry :: preload.(site)
      else begin
        let round = deltas.((i - scale.preload) / scale.delta) in
        round.(site) <- entry :: round.(site)
      end)
    trail;
  let rev = Array.map List.rev in
  { scale; config; preload = rev preload; deltas = Array.map rev deltas; trail }

let setup inputs =
  let config = inputs.config in
  let sys =
    Sys_.create ~vocab:config.Workload.Hospital.vocab
      ~p_ps:(Workload.Hospital.policy_store config) ()
  in
  let sites =
    Array.init inputs.scale.sites (fun i ->
        let site, _, _ =
          Site.open_durable ~name:(Printf.sprintf "site-%d" i) (Durable.Log.create ~seed:i ())
        in
        Sys_.add_site sys site;
        site)
  in
  Sys_.set_group_commit sys true;
  Array.iteri
    (fun i site ->
      Site.ingest_entries site inputs.preload.(i);
      Site.sync_wal site)
    sites;
  (sys, sites)

let write sites batches =
  Array.iteri
    (fun i site ->
      Trace.span "audit_mgmt.site_ingest" (fun () -> Site.ingest_entries site batches.(i));
      Trace.span "durable.sync" (fun () -> Site.sync_wal site))
    sites

let stats_line = Replay.stats_line

let reading_line (q : Sys_.qualified_coverage) =
  Printf.sprintf "set %s %b bag %s %b" (stats_line q.Sys_.set_semantics.P.Coverage.stats)
    (P.Coverage.is_exact q.Sys_.set_semantics)
    (stats_line q.Sys_.bag_semantics.P.Coverage.stats)
    (P.Coverage.is_exact q.Sys_.bag_semantics)

let wal_totals sites =
  Array.fold_left
    (fun (bytes, syncs) site ->
      match Site.wal site with
      | None -> (bytes, syncs)
      | Some log ->
        let dev = Durable.Log.wal_device log in
        (bytes + Durable.Device.durable_size dev, syncs + Durable.Device.syncs dev))
    (0, 0) sites

let pass ~traced ~check inputs =
  let loop = Loop.create ~settle:true () in
  let (sys, sites), setup_s = Loop.time ~settle:true (fun () -> setup inputs) in
  let read () = if traced then Replay.coverage_qualified sys else Sys_.coverage_qualified sys in
  let trend () =
    let window = inputs.scale.trend_window in
    if traced then Replay.trend sys ~window else Sys_.trend sys ~window
  in
  let last = ref None in
  for r = 0 to inputs.scale.rounds - 1 do
    ignore
      (Loop.timed loop Loop.Write (fun () ->
           Trace.op "op.write" (fun () -> write sites inputs.deltas.(r))));
    Trace.count "audit_mgmt.to_policy.entries_new" (float_of_int inputs.scale.delta);
    let first = Loop.timed loop Loop.Read (fun () -> Trace.op "op.read" read) in
    let again = Loop.timed loop (Loop.Extra "reread_ms") (fun () -> Trace.op "op.reread" read) in
    (match first, again with
    | Some a, Some b ->
      let line = reading_line a in
      Loop.output loop "round %d %s\n" r line;
      Loop.check loop (String.equal line (reading_line b)) "re-read differs from read";
      Loop.check loop
        (P.Coverage.is_exact a.Sys_.set_semantics && P.Coverage.is_exact a.Sys_.bag_semantics)
        "reading over a complete trail is not Exact";
      last := Some line
    | _ -> ());
    if (r + 1) mod inputs.scale.trend_every = 0 then
      match Loop.timed loop (Loop.Extra "trend_ms") (fun () -> Trace.op "op.trend" trend) with
      | Some points ->
        List.iter
          (fun (p : P.Trend.point) ->
            Loop.output loop "trend %d %d %s\n" p.P.Trend.window_start p.P.Trend.entries
              (stats_line p.P.Trend.stats))
          points
      | None -> ()
  done;
  if check then begin
    match !last with
    | Some line ->
      let config = inputs.config in
      let set, bag =
        Replay.reference_coverage config.Workload.Hospital.vocab
          ~p_ps:(Workload.Hospital.policy_store config) inputs.trail
      in
      Loop.check loop
        (String.equal line (Printf.sprintf "set %s true bag %s true" set bag))
        "final reading differs from the Range_reference recompute"
    | None -> Loop.problem loop "no reading completed"
  end;
  let bytes, syncs = wal_totals sites in
  let p_al = P.Prima.audit_policy (Sys_.prima sys) in
  Loop.finish loop ~setup_s
    ~counts:
      [ ("audit_entries", Array.fold_left (fun n s -> n + Site.length s) 0 sites);
        ("wal_bytes", bytes);
        ("syncs", syncs);
        ("p_al_rules", P.Policy.cardinality p_al);
        ("distinct_triples", Replay.distinct_triples p_al);
      ]
