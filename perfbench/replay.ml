(* The traced run's stand-ins for System's composite calls.

   Each function makes the same public calls, in the same order, as the
   System function it is named after, with a span around each call into a
   library, so per-layer time is measured from outside the program.  What
   System keeps private is not replayed: the [last_health] it retains, its
   governance counters and Prima's epoch history.  Nothing the workloads
   read depends on those. *)

module Sys_ = Prima_system.System
module Fed = Audit_mgmt.Federation
module Adm = Audit_mgmt.Admission
module P = Prima_core
module Budget = Relational.Budget

let span = Trace.span
let attrs = Vocabulary.Audit_attrs.pattern
let project p = span "prima_core.project" (fun () -> P.Policy.project p ~attrs)

(* --- helpers the workloads share --- *)

(* Distinct (data, purpose, authorized) triples among a policy's rules. *)
let distinct_triples p_al =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun r -> Hashtbl.replace seen (P.Rule.to_compact_string ~attrs r) ())
    (P.Policy.rules p_al);
  Hashtbl.length seen

let stats_line (s : P.Coverage.stats) =
  Printf.sprintf "%d/%d" s.P.Coverage.overlap s.P.Coverage.denominator

(* Set and bag coverage of [p_ps] over a whole trail, recomputed from
   scratch: pattern triples built straight from the entries, ranges
   through the seed's set-based Range_reference.  The output checks'
   oracle, independent of To_policy, Policy.project and Range. *)
let reference_coverage vocab ~p_ps trail =
  let module A = Vocabulary.Audit_attrs in
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (e : Hdb.Audit_schema.entry) ->
      let k =
        P.Rule.of_assoc
          [ (A.data, e.Hdb.Audit_schema.data);
            (A.purpose, e.Hdb.Audit_schema.purpose);
            (A.authorized, e.Hdb.Audit_schema.authorized);
          ]
      in
      Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
    trail;
  let module R = P.Range_reference in
  let range_x = R.of_policy vocab (P.Policy.project p_ps ~attrs:A.pattern) in
  let range_y = R.of_rules vocab (Hashtbl.fold (fun k _ acc -> k :: acc) counts []) in
  let bag =
    Hashtbl.fold (fun k n acc -> if R.covers vocab range_x k then acc + n else acc) counts 0
  in
  ( Printf.sprintf "%d/%d" (R.cardinality (R.inter range_x range_y)) (R.cardinality range_y),
    Printf.sprintf "%d/%d" bag (List.length trail) )

(* Fresh in-memory WAL + snapshot pairs for the central stores. *)
let central_storage () =
  { Sys_.audit_log = Durable.Log.create ~seed:1 ();
    quarantine_log = Durable.Log.create ~seed:2 ();
  }

(* --- System's composite calls --- *)

(* System.sync_audit *)
let sync_audit sys =
  let prima = Sys_.prima sys in
  let result =
    span "audit_mgmt.consolidate" (fun () -> Fed.consolidated_result (Sys_.federation sys))
  in
  P.Prima.reset_audit prima;
  let policy =
    span "audit_mgmt.to_policy" (fun () ->
        Audit_mgmt.To_policy.policy_of_entries result.Fed.entries)
  in
  Trace.count "audit_mgmt.to_policy.entries_converted"
    (float_of_int (P.Policy.cardinality policy));
  span "prima_core.ingest_rules" (fun () -> P.Prima.ingest_rules prima (P.Policy.rules policy));
  result.Fed.health

(* System.coverage_qualified, through Prima.coverage and Coverage.aligned. *)
let coverage_qualified sys : Sys_.qualified_coverage =
  let health = sync_audit sys in
  let completeness = health.Audit_mgmt.Health.completeness in
  let verified = Sys_.fully_verified sys in
  let prima = Sys_.prima sys in
  let vocab = P.Prima.vocab prima in
  let p_ps = P.Prima.policy_store prima and p_al = P.Prima.audit_policy prima in
  let set =
    let p_x = project p_ps in
    let p_y = project p_al in
    span "prima_core.coverage_set" (fun () -> P.Coverage.compute vocab ~p_x ~p_y)
  in
  let bag =
    let p_x = project p_ps in
    let p_y = project p_al in
    span "prima_core.coverage_bag" (fun () -> P.Coverage.compute_bag vocab ~p_x ~p_y)
  in
  { Sys_.set_semantics = P.Coverage.qualify ~verified ~completeness set;
    bag_semantics = P.Coverage.qualify ~verified ~completeness bag;
    health;
  }

(* System.trend *)
let trend sys ~window =
  ignore (sync_audit sys);
  let prima = Sys_.prima sys in
  span "prima_core.trend" (fun () ->
      P.Trend.compute (P.Prima.vocab prima) ~p_ps:(P.Prima.policy_store prima)
        ~p_al:(P.Prima.audit_policy prima) ~window ())

(* Refinement.run_epoch over the ungoverned SQL backend, through
   Extract_patterns.run and Data_analysis.analyse. *)
let run_epoch ~(config : P.Refinement.config) ~completeness ~verified ~vocab ~p_ps ~p_al :
    P.Refinement.epoch_report =
  let practice =
    span "prima_core.filter" (fun () ->
        P.Filter.run ~keep_prohibitions:config.P.Refinement.keep_prohibitions p_al)
  in
  let analysis =
    match config.P.Refinement.backend, config.P.Refinement.limits with
    | P.Extract_patterns.Sql analysis, None -> analysis
    | _ -> invalid_arg "Replay.run_epoch: only the ungoverned SQL backend is replayed"
  in
  let patterns =
    if P.Policy.cardinality practice = 0 then []
    else begin
      let engine = Relational.Engine.create () in
      let table_name = "practice" in
      ignore
        (span "prima_core.materialize" (fun () ->
             P.Data_analysis.materialize engine ~table_name practice));
      span "prima_core.alg5_query" (fun () ->
          P.Data_analysis.run engine ~table_name analysis)
    end
  in
  let useful = span "prima_core.prune" (fun () -> P.Prune.run vocab ~patterns ~p_ps) in
  let accepted = P.Refinement.accept config.P.Refinement.acceptance useful in
  let p_ps' = P.Policy.add_rules p_ps accepted in
  let p_al_proj = project p_al in
  let bag p_x =
    span "prima_core.coverage_bag" (fun () -> P.Coverage.compute_bag vocab ~p_x ~p_y:p_al_proj)
  in
  let coverage_before = bag (project p_ps) in
  let coverage_after = bag (project p_ps') in
  let count name xs = Trace.count name (float_of_int (List.length xs)) in
  Trace.count "prima_core.practice_rows" (float_of_int (P.Policy.cardinality practice));
  count "prima_core.patterns" patterns;
  count "prima_core.useful" useful;
  count "prima_core.accepted" accepted;
  { P.Refinement.practice_size = P.Policy.cardinality practice;
    patterns;
    useful;
    accepted;
    p_ps';
    coverage_before;
    coverage_after;
    qualifier = (P.Coverage.qualify ~verified ~completeness coverage_after).P.Coverage.qualifier;
    degraded = false;
    budget_stats = { Relational.Errors.rows_out = 0; tuples = 0; ticks = 0 };
  }

(* System.refine, through Prima.refine.  The completeness floor repeats
   System's adaptive threshold: threshold * n / (n + 25). *)
let refine sys : (P.Refinement.epoch_report, string) result =
  let health = sync_audit sys in
  let c = health.Audit_mgmt.Health.completeness in
  let n = health.Audit_mgmt.Health.total in
  let floor = Sys_.completeness_threshold sys *. float_of_int n /. float_of_int (n + 25) in
  let prima = Sys_.prima sys in
  if c < floor then Error "degraded audit window"
  else if P.Prima.in_training prima then Error "training period"
  else begin
    let report =
      run_epoch ~config:(P.Prima.refinement_config prima) ~completeness:c
        ~verified:(Sys_.fully_verified sys) ~vocab:(P.Prima.vocab prima)
        ~p_ps:(P.Prima.policy_store prima) ~p_al:(P.Prima.audit_policy prima)
    in
    List.iter (P.Prima.add_store_rule prima) report.P.Refinement.accepted;
    List.iter
      (fun rule -> span "prima_system.install_pattern" (fun () -> Sys_.install_pattern sys rule))
      report.P.Refinement.accepted;
    Ok report
  end

(* System.enforce_admitted on a gated system.  [hdb.rewrite] times a
   second, pure run of the rewrite outside [hdb.query]: the rewrite has no
   public entry point of its own inside a query. *)
let enforce_admitted ~cost ?break_glass sys ~principal ~user ~role ~purpose sql :
    (Sys_.admitted_outcome, Sys_.admitted_error) result =
  let adm =
    match Sys_.admission sys with
    | Some adm -> adm
    | None -> invalid_arg "Replay.enforce_admitted: no budget classes installed"
  in
  let control = Sys_.control sys in
  let now, decision =
    span "audit_mgmt.admit" (fun () ->
        Sys_.refresh_pressure sys;
        let now = Fed.clock (Sys_.federation sys) in
        (now, Adm.admit adm ~now ~kind:Adm.Query principal cost))
  in
  Trace.count "audit_mgmt.admit.attempted" 1.;
  match decision with
  | Adm.Rejected r -> Error (Sys_.Shed r)
  | Adm.Admitted grant | Adm.Brownout grant ->
    Trace.count "audit_mgmt.admit.admitted" 1.;
    let browned_out = grant.Adm.g_mode = Budget.Partial in
    let limits =
      match Sys_.query_limits sys with
      | None -> grant.Adm.g_limits
      | Some l -> Budget.limits_min l grant.Adm.g_limits
    in
    let budget = Budget.create ~mode:grant.Adm.g_mode limits in
    span "hdb.rewrite" (fun () ->
        match Relational.Engine.parse sql with
        | Relational.Sql_ast.Select select ->
          ignore
            (Hdb.Enforcement.rewrite (Hdb.Control_center.enforcement control)
               { Hdb.Enforcement.user; role; purpose } select)
        | _ -> ());
    let result =
      span "hdb.query" (fun () ->
          Hdb.Control_center.query ?break_glass ~budget control ~user ~role ~purpose sql)
    in
    let stats = Budget.stats budget in
    span "audit_mgmt.admit" (fun () -> Adm.settle adm ~now principal ~declared:cost stats);
    Trace.count "relational.rows_returned" (float_of_int stats.Relational.Errors.rows_out);
    Trace.count "relational.tuples" (float_of_int stats.Relational.Errors.tuples);
    (match result with
    | Ok outcome -> Ok { Sys_.outcome; admitted_class = grant.Adm.g_class; browned_out }
    | Error e -> Error (Sys_.Query_failed e))
