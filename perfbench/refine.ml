(* refine: the paper's Figure 2 trajectory at scale.

   Set-up builds a single-site system (the clinical-db store) on central
   durable storage with group commit, accepting patterns through the
   generator's ground-truth oracle, and appends a preload of history.
   Each epoch appends a generated batch to the audit store and syncs it
   (the write), then runs one refinement (the read): Filter, Algorithm 5,
   Prune and pattern installation.  The preload keeps the history within a
   factor of two across the epochs, so the epochs' median rests on many
   readings of similar size rather than on a steep ramp. *)

module Sys_ = Prima_system.System
module P = Prima_core
module H = Workload.Hospital

type scale = {
  preload : int; (* a multiple of [batch] *)
  epochs : int;
  batch : int;
}

let full = { preload = 40_000; epochs = 16; batch = 2_500 }
let small = { preload = 1_000; epochs = 3; batch = 1_000 }

type inputs = {
  scale : scale;
  config : H.config;
  preload : Hdb.Audit_schema.entry list;
  batches : Hdb.Audit_schema.entry list array;
}

let entries inputs = inputs.scale.preload + (inputs.scale.epochs * inputs.scale.batch)

let generate ~seed (scale : scale) =
  let config =
    { (H.default_config ~seed ()) with
      H.total_accesses = scale.preload + (scale.epochs * scale.batch);
      epoch_size = scale.batch;
    }
  in
  let labelled = Workload.Generator.generate config in
  let chunks = List.map Workload.Generator.entries (Workload.Generator.epochs config labelled) in
  let first = scale.preload / scale.batch in
  { scale;
    config;
    preload = List.concat (List.filteri (fun i _ -> i < first) chunks);
    batches = Array.of_list (List.filteri (fun i _ -> i >= first) chunks);
  }

let setup inputs =
  let config = inputs.config in
  let refinement =
    { P.Refinement.default_config with
      P.Refinement.acceptance = P.Refinement.Oracle (Workload.Generator.oracle config);
    }
  in
  let sys =
    Sys_.create ~config:refinement ~storage:(Replay.central_storage ()) ~vocab:config.H.vocab
      ~p_ps:(H.policy_store config) ()
  in
  Sys_.set_group_commit sys true;
  Hdb.Audit_store.append_all (Hdb.Control_center.audit_store (Sys_.control sys)) inputs.preload;
  Sys_.sync_durable sys;
  sys

let compact rules =
  List.map (P.Rule.to_compact_string ~attrs:Vocabulary.Audit_attrs.pattern) rules
  |> List.sort compare |> String.concat ","

let stats_line = Replay.stats_line

let pass ~traced ~check inputs =
  let loop = Loop.create ~settle:true () in
  let sys, setup_s = Loop.time ~settle:true (fun () -> setup inputs) in
  let store = Hdb.Control_center.audit_store (Sys_.control sys) in
  let accepted = ref [] in
  let initial = ref 0. in
  let last_after = ref "" in
  Array.iteri
    (fun e batch ->
      ignore
        (Loop.timed loop Loop.Write (fun () ->
             Trace.op "op.write" (fun () ->
                 Trace.span "hdb.audit_append" (fun () -> Hdb.Audit_store.append_all store batch);
                 Trace.span "durable.sync" (fun () -> Sys_.sync_durable sys))));
      Trace.count "audit_mgmt.to_policy.entries_new" (float_of_int (List.length batch));
      let refine () = if traced then Replay.refine sys else Sys_.refine sys in
      match Loop.timed loop Loop.Read (fun () -> Trace.op "op.epoch" refine) with
      | None -> ()
      | Some (Error msg) -> Loop.failed loop ("refine error: " ^ msg)
      | Some (Ok r) ->
        Loop.output loop
          "epoch %d practice %d patterns [%s] useful [%s] accepted [%s] %s -> %s exact %b\n"
          e r.P.Refinement.practice_size (compact r.P.Refinement.patterns)
          (compact r.P.Refinement.useful) (compact r.P.Refinement.accepted)
          (stats_line r.P.Refinement.coverage_before) (stats_line r.P.Refinement.coverage_after)
          (r.P.Refinement.qualifier = P.Coverage.Exact);
        accepted := r.P.Refinement.accepted @ !accepted;
        last_after := stats_line r.P.Refinement.coverage_after;
        let before = r.P.Refinement.coverage_before.P.Coverage.coverage in
        let after = r.P.Refinement.coverage_after.P.Coverage.coverage in
        if e = 0 then initial := before;
        Loop.check loop (after >= before) (Printf.sprintf "coverage fell during epoch %d" e);
        Loop.check loop (after >= !initial)
          (Printf.sprintf "epoch %d ends below the initial coverage" e);
        Loop.check loop (r.P.Refinement.qualifier = P.Coverage.Exact)
          (Printf.sprintf "epoch %d over a complete trail is not Exact" e))
    inputs.batches;
  let p_ps = P.Prima.policy_store (Sys_.prima sys) in
  let p_al = P.Prima.audit_policy (Sys_.prima sys) in
  if check then begin
    let config = inputs.config in
    let informal =
      List.sort compare
        (List.map
           (fun (p : H.informal_practice) ->
             String.concat ":" [ p.H.data; p.H.purpose; p.H.authorized ])
           config.H.informal)
    in
    Loop.check loop
      (String.equal (compact !accepted) (String.concat "," informal))
      "accepted patterns are not exactly the informal practices";
    Loop.check loop
      (List.length (Workload.Generator.practices_covered config p_ps)
      = List.length config.H.informal)
      "the refined store does not cover every informal practice";
    (* The refined store should be the documented policy plus the
       informal practices: recompute the last epoch's bag coverage so. *)
    let expected_store =
      P.Policy.add_rules (H.policy_store config)
        (List.map
           (fun (p : H.informal_practice) ->
             P.Rule.of_assoc
               Vocabulary.Audit_attrs.
                 [ (data, p.H.data); (purpose, p.H.purpose); (authorized, p.H.authorized) ])
           config.H.informal)
    in
    let _, bag =
      Replay.reference_coverage config.H.vocab ~p_ps:expected_store
        (inputs.preload @ List.concat (Array.to_list inputs.batches))
    in
    Loop.check loop (String.equal !last_after bag)
      "final coverage_after differs from the Range_reference recompute"
  end;
  let wal = Durable.Log.wal_device (Option.get (Hdb.Audit_store.log store)) in
  Loop.finish loop ~setup_s
    ~counts:
      [ ("audit_entries", Hdb.Audit_store.length store);
        ("wal_bytes", Durable.Device.durable_size wal);
        ("syncs", Durable.Device.syncs wal);
        ("patterns_accepted", List.length !accepted);
        ("p_al_rules", P.Policy.cardinality p_al);
        ("distinct_triples", Replay.distinct_triples p_al);
      ]
