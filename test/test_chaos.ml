(* Whole-system chaos: composed fault schedules checked against the pure
   model oracle.  The runtest-sized sweep here keeps the long soak in
   `make chaos`; both are deterministic in their seeds, so any failure
   reproduces from the printed seed alone. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- fixed-seed schedules: the nine invariants hold end to end --- *)

let run_seed seed steps () =
  let report = Chaos.Harness.run ~seed ~steps () in
  (match report.Chaos.Harness.violation with
  | None -> ()
  | Some v ->
    Fmt.epr "--- fault log (seed %d) ---@." seed;
    List.iter (Fmt.epr "%s@.") report.Chaos.Harness.events;
    Fmt.epr "%a@." Chaos.Harness.pp_violation v);
  check (Printf.sprintf "seed %d: all invariants hold" seed) true
    (Chaos.Harness.passed report);
  check
    (Printf.sprintf "seed %d: schedule ran to completion" seed)
    true
    (report.Chaos.Harness.actions_run = steps);
  (* the schedule must actually exercise the fault planes it composes *)
  check (Printf.sprintf "seed %d: crashes happened" seed) true
    (report.Chaos.Harness.crashes > 0);
  check (Printf.sprintf "seed %d: consolidations happened" seed) true
    (report.Chaos.Harness.consolidations > 0);
  check (Printf.sprintf "seed %d: refinement ran" seed) true
    (report.Chaos.Harness.refines_ok + report.Chaos.Harness.refines_rejected > 0);
  check (Printf.sprintf "seed %d: enforcement budgets tripped" seed) true
    (report.Chaos.Harness.enforce_trips > 0);
  (* tamper-evidence: every injected tamper was detected (zero false
     negatives); run_seed only passes when no false positive fired either,
     since a misclassified crash raises the tamper-evidence violation *)
  check (Printf.sprintf "seed %d: tampers injected" seed) true
    (report.Chaos.Harness.tampers > 0);
  check_int
    (Printf.sprintf "seed %d: every tamper detected" seed)
    report.Chaos.Harness.tampers report.Chaos.Harness.tampers_detected

(* --- determinism: a seed replays to the identical run --- *)

let test_deterministic () =
  let a = Chaos.Harness.run ~seed:42 ~steps:120 () in
  let b = Chaos.Harness.run ~seed:42 ~steps:120 () in
  check "same seed, same event log" true
    (a.Chaos.Harness.events = b.Chaos.Harness.events);
  check "same seed, same verdict" true
    (Chaos.Harness.passed a = Chaos.Harness.passed b);
  check_int "same seed, same crash count" a.Chaos.Harness.crashes
    b.Chaos.Harness.crashes;
  let c = Chaos.Harness.run ~seed:43 ~steps:120 () in
  check "different seed, different schedule" false
    (a.Chaos.Harness.events = c.Chaos.Harness.events)

(* --- pinned regression: refine over an empty practice window ---

   Found by the chaos harness (seed 1 of the first sweep): a consolidated
   window whose entries are all regular accesses filters to an {e empty}
   practice policy, which used to materialise as a zero-column table and
   blow up Algorithm 5 with [Sql_error "unknown column data"] escaping
   [System.refine] as an exception.  An empty practice can never meet a
   positive frequency threshold, so the answer is "no patterns". *)

let test_empty_practice_analysis () =
  let empty = Prima_core.Policy.make [] in
  check_int "analyse of an empty practice finds nothing" 0
    (List.length (Prima_core.Data_analysis.analyse empty).Prima_core.Data_analysis.patterns);
  let governed =
    Prima_core.Data_analysis.analyse
      ~limits:(Relational.Budget.limits ~ticks:10 ())
      empty
  in
  check_int "governed analyse of an empty practice finds nothing" 0
    (List.length governed.Prima_core.Data_analysis.patterns);
  check "and does not degrade" false governed.Prima_core.Data_analysis.degraded

let test_empty_practice_epoch () =
  let config = Workload.Hospital.default_config ~seed:7 () in
  let vocab = config.Workload.Hospital.vocab in
  let p_ps = Workload.Hospital.policy_store config in
  (* a window of regular accesses only: Filter(P_AL) is empty *)
  let entries =
    List.init 8 (fun i ->
        Hdb.Audit_schema.entry ~time:(i + 1) ~op:Hdb.Audit_schema.Allow
          ~user:(Printf.sprintf "u%d" i) ~data:"medication_data" ~purpose:"treatment"
          ~authorized:"nurse" ~status:Hdb.Audit_schema.Regular)
  in
  let p_al = Audit_mgmt.To_policy.policy_of_entries entries in
  let report = Prima_core.Refinement.run_epoch ~vocab ~p_ps ~p_al () in
  check_int "no patterns from an all-regular window" 0
    (List.length report.Prima_core.Refinement.patterns)

(* --- weighted draws: the documented boundary semantics, pinned ---

   [pick_weighted] walks the cumulative sum with [target < acc + w], so a
   zero-weight class contributes nothing to any interval and can never be
   drawn — the property tests below pin that over seeded generation.  An
   all-zero (or negative) table is a configuration error, not an empty
   schedule: it must raise the typed [Invalid_weights]. *)

let count_actions pred actions = List.length (List.filter pred actions)

let test_zero_weight_never_drawn () =
  let no_tampers =
    { Chaos.Schedule.default_weights with Chaos.Schedule.w_tamper = 0 }
  in
  let no_crashes =
    { Chaos.Schedule.default_weights with Chaos.Schedule.w_crash = 0;
      Chaos.Schedule.w_site_crash = 0 }
  in
  for seed = 1 to 50 do
    let a = Chaos.Schedule.generate ~weights:no_tampers ~nsites:2 ~seed ~steps:100 () in
    check_int
      (Printf.sprintf "seed %d: zero tamper weight draws no tampers" seed)
      0
      (count_actions (function Chaos.Schedule.Tamper _ -> true | _ -> false) a);
    let b = Chaos.Schedule.generate ~weights:no_crashes ~nsites:2 ~seed ~steps:100 () in
    check_int
      (Printf.sprintf "seed %d: zero crash weights draw no crashes" seed)
      0
      (count_actions
         (function
           | Chaos.Schedule.Crash _ | Chaos.Schedule.Site_crash _ -> true | _ -> false)
         b)
  done;
  (* nonzero weights keep drawing: the zero was load-bearing above *)
  let a = Chaos.Schedule.generate ~nsites:2 ~seed:1 ~steps:400 () in
  check "default weights do draw tampers" true
    (count_actions (function Chaos.Schedule.Tamper _ -> true | _ -> false) a > 0)

let test_invalid_weight_tables () =
  let zeroed =
    {
      Chaos.Schedule.w_append_clinical = 0; w_append_remote = 0; w_append_remote_raw = 0;
      w_set_mapping = 0; w_append_workflow = 0; w_vocab_edit = 0; w_sync = 0;
      w_checkpoint = 0; w_auto_checkpoint = 0; w_crash = 0; w_site_crash = 0;
      w_consolidate = 0; w_outage = 0; w_heal = 0; w_advance = 0; w_refine = 0;
      w_refine_race = 0; w_threshold = 0; w_enforce = 0; w_group_commit = 0; w_tamper = 0;
      w_overload_storm = 0; w_set_budget_class = 0;
    }
  in
  check "all-zero table raises Invalid_weights" true
    (match Chaos.Schedule.generate ~weights:zeroed ~nsites:2 ~seed:1 ~steps:10 () with
    | exception Chaos.Schedule.Invalid_weights _ -> true
    | _ -> false);
  let negative =
    { Chaos.Schedule.default_weights with Chaos.Schedule.w_sync = -1 }
  in
  check "negative weight raises Invalid_weights" true
    (match Chaos.Schedule.generate ~weights:negative ~nsites:2 ~seed:1 ~steps:10 () with
    | exception Chaos.Schedule.Invalid_weights _ -> true
    | _ -> false)

(* --- serialization: of_string is a total inverse of to_string --- *)

let test_action_round_trip () =
  List.iter
    (fun seed ->
      let actions = Chaos.Schedule.generate ~nsites:3 ~seed ~steps:200 () in
      List.iter
        (fun a ->
          let s = Chaos.Schedule.to_string a in
          match Chaos.Schedule.of_string s with
          | Some a' ->
            check (Printf.sprintf "%S round-trips" s) true (a = a')
          | None -> Alcotest.failf "of_string rejected %S" s)
        actions)
    [ 1; 2; 3 ];
  check "garbage is rejected" true (Chaos.Schedule.of_string "frobnicate 3" = None);
  check "trailing junk is rejected" true
    (Chaos.Schedule.of_string "consolidate now" = None)

(* --- the shrinker: smoke, determinism, faithfulness --- *)

let failing_repro () =
  let defect = Chaos.Harness.Eat_entry 5 in
  let seed = 1 and steps = 120 in
  let actions = Chaos.Schedule.generate ~nsites:2 ~seed ~steps () in
  let report =
    Chaos.Harness.run_actions ~defect ~pool:((steps * 3) + 120) ~seed ~actions ()
  in
  match Chaos.Shrink.of_report ~defect ~actions report with
  | Some repro -> repro
  | None -> Alcotest.fail "eat-entry defect did not fail at seed 1 x 120 steps"

let test_shrink_smoke () =
  let repro = failing_repro () in
  let mini, stats = Chaos.Shrink.shrink repro in
  check "shrinking shrinks" true
    (stats.Chaos.Shrink.minimal < stats.Chaos.Shrink.original);
  check "minimal repro is small" true (stats.Chaos.Shrink.minimal <= 40);
  check "minimal repro still fails its invariant" true (Chaos.Shrink.still_fails mini);
  (* 1-minimality: deleting any single surviving action loses the failure *)
  let n = List.length mini.Chaos.Shrink.actions in
  for i = 0 to n - 1 do
    let pruned =
      { mini with
        Chaos.Shrink.actions =
          List.filteri (fun j _ -> j <> i) mini.Chaos.Shrink.actions }
    in
    check (Printf.sprintf "action %d is load-bearing" i) false
      (Chaos.Shrink.still_fails pruned)
  done

let test_shrink_deterministic () =
  let repro = failing_repro () in
  let a, _ = Chaos.Shrink.shrink repro in
  let b, _ = Chaos.Shrink.shrink repro in
  check "two shrinks, byte-identical repros" true
    (String.equal (Chaos.Shrink.to_string a) (Chaos.Shrink.to_string b))

let test_repro_round_trip () =
  let repro = failing_repro () in
  let mini, _ = Chaos.Shrink.shrink repro in
  match Chaos.Shrink.of_string (Chaos.Shrink.to_string mini) with
  | Ok r -> check "repro text round-trips" true (r = mini)
  | Error e -> Alcotest.failf "repro text did not parse: %s" e

(* --- pinned corpus: committed minimal repros still fail, as recorded ---

   Every .repro under chaos_corpus/ was produced by the shrinker from a
   real failing schedule.  Replaying each must violate exactly the
   invariant recorded in its header — if a refactor makes one pass (or
   fail differently), the harness/model contract has shifted and the
   corpus entry needs a deliberate update, not a silent one. *)

let corpus_dir () =
  (* cwd is test/ under dune runtest (glob_files deps), the project root
     when the binary is exec'd directly *)
  if Sys.file_exists "chaos_corpus" then "chaos_corpus" else "test/chaos_corpus"

let corpus_files () =
  match Sys.readdir (corpus_dir ()) with
  | exception Sys_error _ -> []
  | files ->
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".repro")
         (Array.to_list files))

let test_corpus_replays () =
  let files = corpus_files () in
  check "corpus is not empty" true (files <> []);
  List.iter
    (fun file ->
      match Chaos.Shrink.load (Filename.concat (corpus_dir ()) file) with
      | Error e -> Alcotest.failf "%s: cannot load: %s" file e
      | Ok repro ->
        let report = Chaos.Shrink.replay repro in
        (match report.Chaos.Harness.violation with
        | Some v ->
          Alcotest.(check string)
            (Printf.sprintf "%s: violates its recorded invariant" file)
            repro.Chaos.Shrink.invariant v.Chaos.Harness.invariant;
          check_int
            (Printf.sprintf "%s: at its recorded step" file)
            repro.Chaos.Shrink.step v.Chaos.Harness.step
        | None -> Alcotest.failf "%s: no longer fails" file))
    files

(* --- the model oracle itself: consolidation mirrors the heap merge --- *)

let test_model_consolidation () =
  let config = Workload.Hospital.default_config ~seed:11 () in
  let config = { config with Workload.Hospital.total_accesses = 60 } in
  let entries =
    Workload.Generator.entries (Workload.Generator.generate config)
  in
  let vocab = config.Workload.Hospital.vocab in
  let p_ps = Workload.Hospital.policy_store config in
  let model = Chaos.Model.create ~vocab ~p_ps ~nsites:2 in
  (* deal the stream round-robin across clinical and the two remotes *)
  List.iteri
    (fun i e ->
      match i mod 3 with
      | 0 -> Chaos.Model.append_clinical model [ e ]
      | 1 -> Chaos.Model.append_remote model 0 [ e ]
      | _ -> Chaos.Model.append_remote model 1 [ e ])
    entries;
  (* against the real federation fed the same split *)
  let fed = Audit_mgmt.Federation.create () in
  let clinical = Audit_mgmt.Site.create ~name:"clinical-db" () in
  let r0 = Audit_mgmt.Site.create ~name:"site-0" () in
  let r1 = Audit_mgmt.Site.create ~name:"site-1" () in
  List.iter (Audit_mgmt.Federation.add_site fed) [ clinical; r0; r1 ];
  List.iteri
    (fun i e ->
      let site = match i mod 3 with 0 -> clinical | 1 -> r0 | _ -> r1 in
      Audit_mgmt.Site.ingest_entries site [ e ])
    entries;
  let merged = (Audit_mgmt.Federation.consolidated_result fed).Audit_mgmt.Federation.entries in
  let modelled = Chaos.Model.consolidated model in
  check_int "same trail length" (List.length merged) (List.length modelled);
  check "model consolidation equals the heap merge" true
    (List.for_all2 Hdb.Audit_schema.equal merged modelled)

(* The model's coverage oracle reproduces the paper's figures on its own:
   Figure 3's log reads 3/6 under set semantics, Table 1's 3/10 under bag
   semantics, both against the Figure 3(a) store. *)
let test_model_coverage_paper_figures () =
  let reading entries =
    let model =
      Chaos.Model.create ~vocab:(Workload.Scenario.vocab ())
        ~p_ps:(Workload.Scenario.policy_store ()) ~nsites:0
    in
    Chaos.Model.append_clinical model entries;
    Chaos.Model.coverage model
  in
  let set, _ = reading (Workload.Scenario.figure3_entries ()) in
  check_int "Figure 3 set overlap" 3 set.Chaos.Model.overlap;
  check_int "Figure 3 set denominator" 6 set.Chaos.Model.denominator;
  let _, bag = reading (Workload.Scenario.table1_entries ()) in
  check_int "Table 1 bag overlap" 3 bag.Chaos.Model.overlap;
  check_int "Table 1 bag denominator" 10 bag.Chaos.Model.denominator

let () =
  Alcotest.run "chaos"
    [
      ( "schedules",
        [
          Alcotest.test_case "seed 1 x 250 steps" `Slow (run_seed 1 250);
          Alcotest.test_case "seed 2 x 250 steps" `Slow (run_seed 2 250);
          Alcotest.test_case "seed 3 x 250 steps" `Slow (run_seed 3 250);
          Alcotest.test_case "deterministic replay" `Quick test_deterministic;
        ] );
      ( "weighted draws",
        [
          Alcotest.test_case "zero weight is never drawn" `Quick
            test_zero_weight_never_drawn;
          Alcotest.test_case "invalid tables raise" `Quick test_invalid_weight_tables;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "actions round-trip" `Quick test_action_round_trip;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "shrinks to a 1-minimal repro" `Slow test_shrink_smoke;
          Alcotest.test_case "byte-identical across runs" `Slow
            test_shrink_deterministic;
          Alcotest.test_case "repro text round-trips" `Slow test_repro_round_trip;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "empty practice: data analysis" `Quick
            test_empty_practice_analysis;
          Alcotest.test_case "empty practice: refinement epoch" `Quick
            test_empty_practice_epoch;
          Alcotest.test_case "pinned corpus repros replay" `Slow test_corpus_replays;
        ] );
      ( "model oracle",
        [
          Alcotest.test_case "consolidation mirrors the heap merge" `Quick
            test_model_consolidation;
          Alcotest.test_case "coverage pins 3/6 and 3/10" `Quick
            test_model_coverage_paper_figures;
        ] );
    ]
