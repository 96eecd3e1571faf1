(* Tests for Algorithms 2-6: Filter, dataAnalysis, extractPatterns, Prune and
   the Refinement pipeline, pinned to the Section 5 use case. *)

module F = Prima_core.Filter
module DA = Prima_core.Data_analysis
module EP = Prima_core.Extract_patterns
module Pr = Prima_core.Prune
module Ref = Prima_core.Refinement
module P = Prima_core.Policy
module R = Prima_core.Rule
module S = Workload.Scenario

let vocab = S.vocab ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let compact = R.to_compact_string ~attrs:Vocabulary.Audit_attrs.pattern

(* --- Filter (Algorithm 3) --- *)

let test_filter_keeps_exceptions () =
  let practice = F.run (S.table1_audit_policy ()) in
  (* t3, t4, t6, t7, t8, t9, t10 *)
  check_int "seven practice entries" 7 (P.cardinality practice)

let test_filter_drops_regular () =
  let practice = F.run (S.figure3_audit_policy ()) in
  check_int "three exceptions" 3 (P.cardinality practice);
  check_bool "no regular left" true
    (List.for_all F.is_exception (P.rules practice))

let test_filter_drops_prohibitions () =
  let denied =
    R.of_assoc
      [ ("time", "99"); ("op", "0"); ("user", "eve"); ("data", "psychiatry");
        ("purpose", "research"); ("authorized", "clerk"); ("status", "0") ]
  in
  let p = P.add_rule (S.table1_audit_policy ()) denied in
  check_int "denied dropped" 7 (P.cardinality (F.run p));
  check_int "kept when asked" 8 (P.cardinality (F.run ~keep_prohibitions:true p))

let test_filter_empty () =
  check_int "empty in, empty out" 0 (P.cardinality (F.run (P.make [])))

(* --- dataAnalysis (Algorithm 5) --- *)

let test_data_analysis_statement_text () =
  let sql = DA.statement ~table_name:"practice" DA.default_config in
  check_string "paper's statement"
    "SELECT data, purpose, authorized FROM practice GROUP BY data, purpose, authorized HAVING COUNT(*) >= 5 AND COUNT(DISTINCT user) > 1"
    sql

let test_data_analysis_strict_comparator () =
  let config = { DA.default_config with DA.comparator = DA.More_than } in
  let sql = DA.statement ~table_name:"p" config in
  check_bool "uses >" true
    (String.length sql > 0
    &&
    let rec contains i =
      i + 12 <= String.length sql
      && (String.sub sql i 12 = "COUNT(*) > 5" || contains (i + 1))
    in
    contains 0)

let test_data_analysis_finds_pattern () =
  let practice = F.run (S.table1_audit_policy ()) in
  let patterns = (DA.analyse practice).DA.patterns in
  check_int "exactly one" 1 (List.length patterns);
  check_string "the pattern" "referral:registration:nurse" (compact (List.hd patterns))

let test_data_analysis_threshold_edge () =
  (* The pattern occurs exactly 5 times: f = 5 at-least finds it, more-than
     does not — the pseudocode/narrative discrepancy made executable. *)
  let practice = F.run (S.table1_audit_policy ()) in
  let strict = { DA.default_config with DA.comparator = DA.More_than } in
  check_int "strict misses it" 0 (List.length (DA.analyse ~config:strict practice).DA.patterns);
  let lower = { DA.default_config with DA.min_frequency = 6 } in
  check_int "f=6 misses it" 0 (List.length (DA.analyse ~config:lower practice).DA.patterns)

let test_data_analysis_distinct_user_condition () =
  (* With the distinct-user condition dropped, single-user repetition also
     surfaces; with it, the pattern needs >= 2 users (it has 3). *)
  let single_user_spam =
    List.init 5 (fun i ->
        R.of_assoc
          [ ("time", string_of_int (100 + i)); ("op", "1"); ("user", "solo");
            ("data", "genetic"); ("purpose", "research"); ("authorized", "clerk");
            ("status", "0") ])
  in
  let practice = P.add_rules (F.run (S.table1_audit_policy ())) single_user_spam in
  let with_condition = (DA.analyse practice).DA.patterns in
  check_int "condition filters solo runs" 1 (List.length with_condition);
  let no_condition = { DA.default_config with DA.condition = DA.No_condition } in
  check_int "without condition both" 2 (List.length (DA.analyse ~config:no_condition practice).DA.patterns)

let test_data_analysis_custom_attributes () =
  let practice = F.run (S.table1_audit_policy ()) in
  let config =
    { DA.default_config with
      DA.attributes = [ "purpose"; "authorized" ];
      DA.condition = DA.No_condition;
    }
  in
  let patterns = (DA.analyse ~config practice).DA.patterns in
  check_bool "registration:nurse found" true
    (List.exists (fun r -> compact r = "registration:nurse") patterns)

(* --- extractPatterns (Algorithm 4) --- *)

let test_extract_sql_backend () =
  let practice = F.run (S.table1_audit_policy ()) in
  let patterns = (EP.run practice).DA.patterns in
  check_int "one pattern" 1 (List.length patterns);
  check_bool "it is the expected one" true
    (R.equal_syntactic (List.hd patterns) (S.expected_pattern ()))

let test_extract_mining_backend_agrees () =
  let practice = F.run (S.table1_audit_policy ()) in
  let sql_patterns = (EP.run practice).DA.patterns in
  let mine cfg = (EP.run ~backend:(EP.Mining cfg) practice).DA.patterns in
  let apriori = mine EP.default_mining in
  let fp = mine { EP.default_mining with EP.algorithm = `Fp_growth } in
  let sorted ps = List.sort String.compare (List.map compact ps) in
  Alcotest.(check (list string)) "apriori = sql" (sorted sql_patterns) (sorted apriori);
  Alcotest.(check (list string)) "fp = sql" (sorted sql_patterns) (sorted fp)

let test_extract_mining_distinct_users () =
  let single_user_spam =
    List.init 6 (fun i ->
        R.of_assoc
          [ ("time", string_of_int (200 + i)); ("op", "1"); ("user", "solo");
            ("data", "genetic"); ("purpose", "research"); ("authorized", "clerk");
            ("status", "0") ])
  in
  let practice = P.make single_user_spam in
  check_int "solo pattern suppressed" 0
    (List.length (EP.run ~backend:(EP.Mining EP.default_mining) practice).DA.patterns);
  check_int "allowed when disabled" 1
    (List.length
       (EP.run
          ~backend:(EP.Mining { EP.default_mining with EP.distinct_users = false })
          practice)
         .DA.patterns)

let test_correlations () =
  let practice = F.run (S.table1_audit_policy ()) in
  let interner, rules = EP.correlations ~min_support:5 ~min_confidence:0.9 practice in
  ignore interner;
  (* (data=referral) -> (purpose=registration) holds with confidence 1 in
     the filtered practice set. *)
  check_bool "correlations found" true (List.length rules > 0)

(* --- Prune (Algorithm 6) --- *)

let test_prune_removes_covered () =
  let covered = R.of_assoc [ ("data", "referral"); ("purpose", "treatment"); ("authorized", "nurse") ] in
  let useful =
    Pr.run vocab
      ~patterns:[ covered; S.expected_pattern () ]
      ~p_ps:(S.policy_store ())
  in
  check_int "one survives" 1 (List.length useful);
  check_bool "the uncovered one" true (R.equal_syntactic (List.hd useful) (S.expected_pattern ()))

let test_prune_composite_store_rule_covers () =
  (* The store rule (routine, treatment, nurse) is composite: it must prune
     ground patterns under it. *)
  let pattern = R.of_assoc [ ("data", "prescription"); ("purpose", "treatment"); ("authorized", "nurse") ] in
  check_int "pruned by composite" 0
    (List.length (Pr.run vocab ~patterns:[ pattern ] ~p_ps:(S.policy_store ())))

let test_prune_empty_patterns () =
  check_int "empty in" 0 (List.length (Pr.run vocab ~patterns:[] ~p_ps:(S.policy_store ())))

let test_prune_ground_complement () =
  let pattern = R.of_assoc [ ("data", "routine"); ("purpose", "billing"); ("authorized", "nurse") ] in
  let ground = Pr.ground_complement vocab ~patterns:[ pattern ] ~p_ps:(S.policy_store ()) in
  (* none of routine's three leaves is covered for billing:nurse *)
  check_int "three uncovered ground rules" 3 (List.length ground)

(* --- Refinement (Algorithm 2) --- *)

let test_refinement_use_case () =
  let report =
    Ref.run_epoch ~vocab ~p_ps:(S.policy_store ()) ~p_al:(S.table1_audit_policy ()) ()
  in
  check_int "practice size" 7 report.Ref.practice_size;
  check_int "one pattern" 1 (List.length report.Ref.patterns);
  check_string "referral:registration:nurse" "referral:registration:nurse"
    (compact (List.hd report.Ref.useful));
  Alcotest.(check (float 1e-9)) "before 30%" 0.3 report.Ref.coverage_before.Prima_core.Coverage.coverage;
  Alcotest.(check (float 1e-9)) "after 80%" 0.8 report.Ref.coverage_after.Prima_core.Coverage.coverage

let test_refinement_reject_all () =
  let config = { Ref.default_config with Ref.acceptance = Ref.Reject_all } in
  let report =
    Ref.run_epoch ~config ~vocab ~p_ps:(S.policy_store ()) ~p_al:(S.table1_audit_policy ()) ()
  in
  check_int "nothing accepted" 0 (List.length report.Ref.accepted);
  Alcotest.(check (float 1e-9)) "coverage unchanged" 0.3
    report.Ref.coverage_after.Prima_core.Coverage.coverage

let test_refinement_oracle () =
  let only_billing rule = R.find_attr rule "purpose" = Some "billing" in
  let config = { Ref.default_config with Ref.acceptance = Ref.Oracle only_billing } in
  let report =
    Ref.run_epoch ~config ~vocab ~p_ps:(S.policy_store ()) ~p_al:(S.table1_audit_policy ()) ()
  in
  check_int "oracle rejected the pattern" 0 (List.length report.Ref.accepted)

let test_refinement_idempotent_after_adoption () =
  (* A second run over the same log finds nothing new: Prune removes the
     now-covered pattern. *)
  let p_al = S.table1_audit_policy () in
  let first = Ref.run_epoch ~vocab ~p_ps:(S.policy_store ()) ~p_al () in
  let second = Ref.run_epoch ~vocab ~p_ps:first.Ref.p_ps' ~p_al () in
  check_int "no new useful patterns" 0 (List.length second.Ref.useful)

let test_refinement_epochs_accumulate () =
  let batch = S.table1_audit_policy () in
  let reports, final =
    Ref.run_epochs ~vocab ~p_ps:(S.policy_store ()) ~batches:[ batch; batch ] ()
  in
  check_int "two epochs" 2 (List.length reports);
  check_int "store grew once" (P.cardinality (S.policy_store ()) + 1) (P.cardinality final)

(* --- Prima facade --- *)

let test_prima_training_period () =
  let prima =
    Prima_core.Prima.create ~training_minimum:20 ~vocab ~p_ps:(S.policy_store ()) ()
  in
  Prima_core.Prima.ingest_rules prima (P.rules (S.table1_audit_policy ()));
  check_bool "still training" true (Prima_core.Prima.in_training prima);
  (match Prima_core.Prima.refine prima with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "refined during training");
  Prima_core.Prima.set_training_minimum prima 5;
  match Prima_core.Prima.refine prima with
  | Ok report -> check_int "accepted" 1 (List.length report.Ref.accepted)
  | Error e -> Alcotest.fail e

let test_prima_history_and_store_growth () =
  let prima = Prima_core.Prima.create ~vocab ~p_ps:(S.policy_store ()) () in
  Prima_core.Prima.ingest_rules prima (P.rules (S.table1_audit_policy ()));
  (match Prima_core.Prima.refine prima with Ok _ -> () | Error e -> Alcotest.fail e);
  check_int "history" 1 (List.length (Prima_core.Prima.history prima));
  check_int "store has 4 rules" 4 (P.cardinality (Prima_core.Prima.policy_store prima));
  let cov = Prima_core.Prima.coverage prima in
  Alcotest.(check (float 1e-9)) "bag coverage now 80%" 0.8
    cov.Prima_core.Prima.bag_semantics.Prima_core.Coverage.coverage

let () =
  Alcotest.run "refinement"
    [ ( "filter",
        [ Alcotest.test_case "keeps exceptions" `Quick test_filter_keeps_exceptions;
          Alcotest.test_case "drops regular" `Quick test_filter_drops_regular;
          Alcotest.test_case "drops prohibitions" `Quick test_filter_drops_prohibitions;
          Alcotest.test_case "empty" `Quick test_filter_empty;
        ] );
      ( "data-analysis",
        [ Alcotest.test_case "statement text" `Quick test_data_analysis_statement_text;
          Alcotest.test_case "strict comparator" `Quick test_data_analysis_strict_comparator;
          Alcotest.test_case "finds the pattern" `Quick test_data_analysis_finds_pattern;
          Alcotest.test_case "threshold edge" `Quick test_data_analysis_threshold_edge;
          Alcotest.test_case "distinct-user condition" `Quick
            test_data_analysis_distinct_user_condition;
          Alcotest.test_case "custom attributes" `Quick test_data_analysis_custom_attributes;
        ] );
      ( "extract-patterns",
        [ Alcotest.test_case "sql backend" `Quick test_extract_sql_backend;
          Alcotest.test_case "mining backends agree" `Quick test_extract_mining_backend_agrees;
          Alcotest.test_case "mining distinct users" `Quick test_extract_mining_distinct_users;
          Alcotest.test_case "correlations" `Quick test_correlations;
        ] );
      ( "prune",
        [ Alcotest.test_case "removes covered" `Quick test_prune_removes_covered;
          Alcotest.test_case "composite store rules" `Quick test_prune_composite_store_rule_covers;
          Alcotest.test_case "empty" `Quick test_prune_empty_patterns;
          Alcotest.test_case "ground complement" `Quick test_prune_ground_complement;
        ] );
      ( "refinement",
        [ Alcotest.test_case "Section 5 use case" `Quick test_refinement_use_case;
          Alcotest.test_case "reject all" `Quick test_refinement_reject_all;
          Alcotest.test_case "oracle" `Quick test_refinement_oracle;
          Alcotest.test_case "idempotent after adoption" `Quick
            test_refinement_idempotent_after_adoption;
          Alcotest.test_case "epochs accumulate" `Quick test_refinement_epochs_accumulate;
        ] );
      ( "prima",
        [ Alcotest.test_case "training period" `Quick test_prima_training_period;
          Alcotest.test_case "history & growth" `Quick test_prima_history_and_store_growth;
        ] );
    ]
