(* Tests for Definition 9 / Algorithm 1 (ComputeCoverage), Definition 10
   (complete coverage), and the exact numbers of the paper's Section 3.3
   example and Section 5 use case. *)

module C = Prima_core.Coverage
module P = Prima_core.Policy
module S = Workload.Scenario

let vocab = S.vocab ()
let attrs = Vocabulary.Audit_attrs.pattern

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- the paper's numbers --- *)

let test_figure3_coverage_50_percent () =
  let stats =
    C.aligned ~bag:false vocab ~attrs ~p_x:(S.policy_store ())
      ~p_y:(S.figure3_audit_policy ())
  in
  check_int "overlap" 3 stats.C.overlap;
  check_int "denominator" 6 stats.C.denominator;
  check_float "50%" 0.5 stats.C.coverage

let test_figure3_matched_rules () =
  (* Rules 1, 2, 5 match (1a, 1b, 3a); rules 3, 4, 6 do not. *)
  let stats =
    C.aligned ~bag:false vocab ~attrs ~p_x:(S.policy_store ())
      ~p_y:(S.figure3_audit_policy ())
  in
  let uncovered_compact =
    List.map (Prima_core.Rule.to_compact_string ~attrs) stats.C.uncovered
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "the three exception scenarios"
    [ "prescription:billing:clerk"; "psychiatry:treatment:nurse";
      "referral:registration:nurse" ]
    uncovered_compact

let test_table1_coverage_30_percent () =
  let stats =
    C.aligned ~bag:true vocab ~attrs ~p_x:(S.policy_store ()) ~p_y:(S.table1_audit_policy ())
  in
  check_int "matched entries" 3 stats.C.overlap;
  check_int "total entries" 10 stats.C.denominator;
  check_float "30%" 0.3 stats.C.coverage

let test_table1_set_semantics_differs () =
  (* Under Definition 9's set semantics Table 1 has 6 distinct patterns of
     which 3 covered: the bag/set split the paper glosses over. *)
  let stats =
    C.aligned ~bag:false vocab ~attrs ~p_x:(S.policy_store ()) ~p_y:(S.table1_audit_policy ())
  in
  check_int "distinct" 6 stats.C.denominator;
  check_int "covered" 3 stats.C.overlap

(* --- definition-level properties --- *)

let test_coverage_reflexive () =
  let p = S.policy_store () in
  let stats = C.compute vocab ~p_x:p ~p_y:p in
  check_float "self-coverage 1.0" 1.0 stats.C.coverage

let test_coverage_empty_y () =
  let p = S.policy_store () in
  let empty = P.make [] in
  let stats = C.compute vocab ~p_x:p ~p_y:empty in
  check_float "vacuous 1.0" 1.0 stats.C.coverage;
  check_int "zero denominator" 0 stats.C.denominator

let test_coverage_empty_x () =
  let p = P.of_assoc_list [ [ ("data", "gender") ] ] in
  let stats = C.compute vocab ~p_x:(P.make []) ~p_y:p in
  check_float "zero" 0.0 stats.C.coverage

let test_coverage_asymmetric () =
  (* Composite x covers ground y fully, but ground y covers only part of x. *)
  let x = P.of_assoc_list [ [ ("data", "demographic") ] ] in
  let y = P.of_assoc_list [ [ ("data", "address") ] ] in
  let xy = C.compute vocab ~p_x:x ~p_y:y in
  let yx = C.compute vocab ~p_x:y ~p_y:x in
  check_float "x covers y" 1.0 xy.C.coverage;
  check_float "y covers 1/4 of x" 0.25 yx.C.coverage

let test_complete_coverage () =
  let x = P.of_assoc_list [ [ ("data", "demographic") ] ] in
  let y = P.of_assoc_list [ [ ("data", "address") ]; [ ("data", "gender") ] ] in
  check_bool "complete" true (C.complete vocab ~p_x:x ~p_y:y);
  check_bool "not complete reversed" false (C.complete vocab ~p_x:y ~p_y:x)

let test_bag_counts_composite_rules () =
  (* A composite audit rule is covered only if its whole ground set is. *)
  let x = P.of_assoc_list [ [ ("data", "routine") ] ] in
  let y_good = P.of_assoc_list [ [ ("data", "routine") ] ] in
  let y_bad = P.of_assoc_list [ [ ("data", "clinical") ] ] in
  check_float "covered" 1.0 (C.compute_bag vocab ~p_x:x ~p_y:y_good).C.coverage;
  check_float "partially grounded not covered" 0.0
    (C.compute_bag vocab ~p_x:x ~p_y:y_bad).C.coverage

let test_monotone_in_x () =
  (* Adding rules to P_x never lowers coverage. *)
  let y = S.figure3_audit_policy () in
  let base = S.policy_store () in
  let richer = P.add_rule base (S.expected_pattern ()) in
  let before = (C.aligned ~bag:true vocab ~attrs ~p_x:base ~p_y:y).C.coverage in
  let after = (C.aligned ~bag:true vocab ~attrs ~p_x:richer ~p_y:y).C.coverage in
  check_bool "monotone" true (after >= before)

let test_uncovered_listed () =
  let y = S.table1_audit_policy () in
  let stats = C.aligned ~bag:true vocab ~attrs ~p_x:(S.policy_store ()) ~p_y:y in
  check_int "seven uncovered entries" 7 (List.length stats.C.uncovered)

(* Lower_bound's range is [0, 1]: a complete window over a suspect trail
   is a lower bound at completeness 1.0, never Exact. *)
let test_lower_bound_at_full_completeness () =
  let stats = C.compute vocab ~p_x:(S.policy_store ()) ~p_y:(S.policy_store ()) in
  match (C.qualify ~verified:false ~completeness:1.0 stats).C.qualifier with
  | C.Lower_bound c -> check_float "completeness 1.0" 1.0 c
  | C.Exact -> Alcotest.fail "an unverified trail must not read Exact"

let () =
  Alcotest.run "coverage"
    [ ( "paper-numbers",
        [ Alcotest.test_case "Figure 3: 3/6 = 50%" `Quick test_figure3_coverage_50_percent;
          Alcotest.test_case "Figure 3: exception scenarios" `Quick test_figure3_matched_rules;
          Alcotest.test_case "Table 1: 3/10 = 30%" `Quick test_table1_coverage_30_percent;
          Alcotest.test_case "Table 1: set semantics" `Quick test_table1_set_semantics_differs;
        ] );
      ( "properties",
        [ Alcotest.test_case "reflexive" `Quick test_coverage_reflexive;
          Alcotest.test_case "empty y" `Quick test_coverage_empty_y;
          Alcotest.test_case "empty x" `Quick test_coverage_empty_x;
          Alcotest.test_case "asymmetric" `Quick test_coverage_asymmetric;
          Alcotest.test_case "complete (Def 10)" `Quick test_complete_coverage;
          Alcotest.test_case "bag composite rules" `Quick test_bag_counts_composite_rules;
          Alcotest.test_case "monotone in P_x" `Quick test_monotone_in_x;
          Alcotest.test_case "uncovered listed" `Quick test_uncovered_listed;
          Alcotest.test_case "lower bound at completeness 1.0" `Quick
            test_lower_bound_at_full_completeness;
        ] );
    ]
