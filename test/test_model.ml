(* Tests for the formal model: RuleTerm (Defs 1-4), Rule (Defs 5-6),
   Policy (Def 7) and Range (Def 8). *)

module RT = Prima_core.Rule_term
module R = Prima_core.Rule
module P = Prima_core.Policy
module Range = Prima_core.Range

let vocab = Vocabulary.Samples.figure1 ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rt attr value = RT.make ~attr ~value

(* --- RuleTerm --- *)

let test_rt_accessors () =
  let t = rt "data" "demographic" in
  Alcotest.(check string) "attr" "data" (RT.attr t);
  Alcotest.(check string) "value" "demographic" (RT.value t)

let test_rt_ground () =
  check_bool "gender ground" true (RT.is_ground vocab (rt "data" "gender"));
  check_bool "demographic composite" false (RT.is_ground vocab (rt "data" "demographic"));
  check_bool "foreign attr ground" true (RT.is_ground vocab (rt "user" "mark"))

let test_rt_ground_set () =
  (* Definition 3: every composite term grounds to a non-empty set. *)
  let ground = RT.ground_set vocab (rt "data" "demographic") in
  check_int "four terms" 4 (List.length ground);
  check_bool "all ground" true (List.for_all (RT.is_ground vocab) ground);
  check_bool "self for leaves" true
    (RT.ground_set vocab (rt "data" "gender") = [ rt "data" "gender" ])

let test_rt_equivalence () =
  (* Definition 4 and the paper's worked example. *)
  check_bool "RT2 ~ RT1" true
    (RT.equivalent vocab (rt "data" "address") (rt "data" "demographic"));
  check_bool "RT3 ~ RT1" true
    (RT.equivalent vocab (rt "data" "gender") (rt "data" "demographic"));
  check_bool "RT2 !~ RT3" false (RT.equivalent vocab (rt "data" "address") (rt "data" "gender"));
  check_bool "cross attribute never" false
    (RT.equivalent vocab (rt "data" "gender") (rt "purpose" "treatment"))

let test_rt_compare_total () =
  check_bool "orders by attr first" true (RT.compare (rt "a" "z") (rt "b" "a") < 0);
  check_bool "then value" true (RT.compare (rt "a" "a") (rt "a" "b") < 0);
  check_int "reflexive" 0 (RT.compare (rt "a" "a") (rt "a" "a"))

(* Terms are plain values: equality, order and hash must hold for equal
   strings that are not physically shared. *)
let test_rt_unshared_strings () =
  let fresh s = String.concat "" [ String.sub s 0 1; String.sub s 1 (String.length s - 1) ] in
  let a = rt "data" "referral" in
  let b = rt (fresh "data") (fresh "referral") in
  check_bool "strings are distinct copies" false (RT.value a == RT.value b);
  check_bool "equal_syntactic" true (RT.equal_syntactic a b);
  check_int "compare" 0 (RT.compare a b);
  check_int "hash" (RT.hash a) (RT.hash b);
  let assoc = [ ("data", "referral"); ("purpose", "treatment"); ("authorized", "nurse") ] in
  let r1 = R.of_assoc assoc in
  let r2 = R.of_assoc (List.map (fun (k, v) -> (fresh k, fresh v)) assoc) in
  check_bool "rules equal" true (R.equal r1 r2);
  check_int "rules compare" 0 (R.compare r1 r2);
  check_int "rules hash" (R.hash r1) (R.hash r2);
  let tbl = R.Tbl.create 4 in
  R.Tbl.replace tbl r1 "found";
  Alcotest.(check (option string)) "Tbl lookup" (Some "found") (R.Tbl.find_opt tbl r2)

(* P_AL has one rule per audit entry with a unique [time] value.  Building
   and dropping such rules must leave nothing behind: no table may grow with
   the audit volume. *)
let test_rt_no_retained_heap () =
  let build n =
    List.init n (fun i ->
        R.of_assoc
          [ ("time", string_of_int (1_000_000 + i)); ("op", "1");
            ("user", "u" ^ string_of_int (i mod 7)); ("data", "referral");
            ("purpose", "treatment"); ("authorized", "nurse"); ("status", "0") ])
    |> Sys.opaque_identity |> List.length
  in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let built = build 50_000 in
  Gc.compact ();
  let retained = (Gc.stat ()).Gc.live_words - before in
  check_int "built" 50_000 built;
  check_bool (Printf.sprintf "retained %d words (<= 1000)" retained) true (retained <= 1000)

(* --- Rule --- *)

let nurse_referral_treatment =
  R.of_assoc [ ("data", "referral"); ("purpose", "treatment"); ("authorized", "nurse") ]

let test_rule_requires_term () =
  Alcotest.check_raises "empty rule"
    (Invalid_argument "Rule.make: a rule needs at least one term") (fun () ->
      ignore (R.make []))

let test_rule_cardinality () =
  check_int "three terms" 3 (R.cardinality nurse_referral_treatment)

let test_rule_canonical_order () =
  let r1 = R.of_assoc [ ("purpose", "treatment"); ("data", "referral"); ("authorized", "nurse") ] in
  check_bool "order independent" true (R.equal_syntactic r1 nurse_referral_treatment)

let test_rule_dedupes_terms () =
  let r = R.of_assoc [ ("data", "x"); ("data", "x") ] in
  check_int "dedup" 1 (R.cardinality r)

let test_rule_find_attr () =
  Alcotest.(check (option string)) "found" (Some "nurse")
    (R.find_attr nurse_referral_treatment "authorized");
  Alcotest.(check (option string)) "absent" None (R.find_attr nurse_referral_treatment "user")

let test_rule_project () =
  let audit =
    R.of_assoc
      [ ("time", "3"); ("op", "1"); ("user", "mark"); ("data", "referral");
        ("purpose", "registration"); ("authorized", "nurse"); ("status", "0") ]
  in
  match R.project audit ~attrs:[ "data"; "purpose"; "authorized" ] with
  | Some projected ->
    check_int "three left" 3 (R.cardinality projected);
    Alcotest.(check (option string)) "keeps data" (Some "referral") (R.find_attr projected "data")
  | None -> Alcotest.fail "projection lost everything"

let test_rule_project_to_nothing () =
  check_bool "none" true (R.project nurse_referral_treatment ~attrs:[ "user" ] = None)

let test_rule_ground_rules () =
  (* Corollary 1: (routine, treatment, nurse) grounds to 3 data leaves × 1 × 1. *)
  let composite =
    R.of_assoc [ ("data", "routine"); ("purpose", "treatment"); ("authorized", "nurse") ]
  in
  let ground = R.ground_rules vocab composite in
  check_int "three ground rules" 3 (List.length ground);
  check_bool "all ground" true (List.for_all (R.is_ground vocab) ground);
  check_bool "referral instance present" true
    (List.exists (R.equal_syntactic nurse_referral_treatment) ground)

let test_rule_ground_rules_product () =
  let composite = R.of_assoc [ ("data", "demographic"); ("purpose", "administering-healthcare") ] in
  check_int "4 x 3 product" 12 (List.length (R.ground_rules vocab composite))

let test_rule_equivalent () =
  (* Definition 6: same cardinality and termwise equivalence. *)
  let composite =
    R.of_assoc [ ("data", "routine"); ("purpose", "treatment"); ("authorized", "nurse") ]
  in
  check_bool "ground ~ composite" true (R.equivalent vocab nurse_referral_treatment composite);
  let two_terms = R.of_assoc [ ("data", "referral"); ("purpose", "treatment") ] in
  check_bool "different cardinality" false (R.equivalent vocab two_terms composite)

let test_rule_compact_string_no_attrs () =
  Alcotest.(check string) "all values in term order" "nurse:referral"
    (R.to_compact_string (R.of_assoc [ ("data", "referral"); ("authorized", "nurse") ]))

let test_rule_ground_rules_foreign_attrs () =
  (* Foreign attributes (user, time) ground to themselves: the 7-term audit
     rule grounds to exactly itself when its vocab terms are leaves. *)
  let audit =
    R.of_assoc
      [ ("time", "3"); ("op", "1"); ("user", "mark"); ("data", "referral");
        ("purpose", "registration"); ("authorized", "nurse"); ("status", "0") ]
  in
  check_int "single ground instance" 1 (List.length (R.ground_rules vocab audit));
  check_bool "itself" true
    (R.equal_syntactic (List.hd (R.ground_rules vocab audit)) audit)

let test_rule_compact_string () =
  Alcotest.(check string) "pattern format" "referral:registration:nurse"
    (R.to_compact_string
       ~attrs:[ "data"; "purpose"; "authorized" ]
       (R.of_assoc
          [ ("authorized", "nurse"); ("data", "referral"); ("purpose", "registration") ]))

(* --- Policy --- *)

let sample_policy () =
  P.of_assoc_list ~source:P.Policy_store
    [ [ ("data", "routine"); ("purpose", "treatment"); ("authorized", "nurse") ];
      [ ("data", "psychiatry"); ("purpose", "treatment"); ("authorized", "psychiatrist") ];
    ]

let test_policy_cardinality () = check_int "#P" 2 (P.cardinality (sample_policy ()))

let test_policy_is_ground () =
  check_bool "composite policy" false (P.is_ground vocab (sample_policy ()));
  let ground = P.of_assoc_list [ [ ("data", "gender") ] ] in
  check_bool "ground policy" true (P.is_ground vocab ground)

let test_policy_bag_semantics () =
  (* Definition 7 keeps duplicates: audit logs repeat rules. *)
  let rule = [ ("data", "gender") ] in
  let p = P.of_assoc_list [ rule; rule; rule ] in
  check_int "three occurrences" 3 (P.cardinality p);
  check_int "dedupe collapses" 1 (P.cardinality (P.dedupe p))

let test_policy_union_add () =
  let p = sample_policy () in
  let p' = P.add_rule p nurse_referral_treatment in
  check_int "added" 3 (P.cardinality p');
  check_int "union" 5 (P.cardinality (P.union p p'))

let test_policy_project () =
  let p =
    P.of_assoc_list [ [ ("time", "1"); ("data", "gender") ]; [ ("time", "2"); ("user", "x") ] ]
  in
  let projected = P.project p ~attrs:[ "data" ] in
  check_int "rule without data dropped" 1 (P.cardinality projected)

(* --- Range --- *)

let test_range_of_policy () =
  (* P_PS of the paper: 3 + 1 + 4 = 8 ground rules. *)
  let p = Workload.Scenario.policy_store () in
  let range = Range.of_policy vocab p in
  check_int "eight ground rules" 8 (Range.cardinality range)

let test_range_dedupes () =
  let p =
    P.of_assoc_list [ [ ("data", "demographic") ]; [ ("data", "address") ] ]
  in
  (* address ∈ ground(demographic): union must not double count. *)
  check_int "four distinct" 4 (Range.cardinality (Range.of_policy vocab p))

let test_range_set_operations () =
  let r1 = Range.of_rules vocab [ R.of_assoc [ ("data", "demographic") ] ] in
  let r2 = Range.of_rules vocab [ R.of_assoc [ ("data", "address") ] ] in
  check_int "intersection" 1 (Range.cardinality (Range.inter r1 r2));
  check_int "difference" 3 (Range.cardinality (Range.diff r1 r2));
  check_bool "subset" true (Range.subset r2 r1)

let test_range_covers_intersects () =
  let range = Range.of_rules vocab [ R.of_assoc [ ("data", "routine") ] ] in
  check_bool "covers leaf" true (Range.covers vocab range (R.of_assoc [ ("data", "referral") ]));
  check_bool "covers itself" true (Range.covers vocab range (R.of_assoc [ ("data", "routine") ]));
  check_bool "does not cover clinical" false
    (Range.covers vocab range (R.of_assoc [ ("data", "clinical") ]));
  check_bool "but intersects clinical" true
    (Range.intersects vocab range (R.of_assoc [ ("data", "clinical") ]))

let test_range_empty () =
  check_bool "empty" true (Range.is_empty Range.empty);
  check_int "zero" 0 (Range.cardinality (Range.of_rules vocab []))

let () =
  Alcotest.run "model"
    [ ( "rule-term",
        [ Alcotest.test_case "accessors" `Quick test_rt_accessors;
          Alcotest.test_case "groundness (Def 2)" `Quick test_rt_ground;
          Alcotest.test_case "ground set (Def 3)" `Quick test_rt_ground_set;
          Alcotest.test_case "equivalence (Def 4)" `Quick test_rt_equivalence;
          Alcotest.test_case "total order" `Quick test_rt_compare_total;
          Alcotest.test_case "equality on unshared strings" `Quick test_rt_unshared_strings;
          Alcotest.test_case "no retained heap" `Quick test_rt_no_retained_heap;
        ] );
      ( "rule",
        [ Alcotest.test_case "non-empty" `Quick test_rule_requires_term;
          Alcotest.test_case "cardinality (Def 5)" `Quick test_rule_cardinality;
          Alcotest.test_case "canonical order" `Quick test_rule_canonical_order;
          Alcotest.test_case "term dedup" `Quick test_rule_dedupes_terms;
          Alcotest.test_case "find_attr" `Quick test_rule_find_attr;
          Alcotest.test_case "project" `Quick test_rule_project;
          Alcotest.test_case "project to nothing" `Quick test_rule_project_to_nothing;
          Alcotest.test_case "grounding (Cor 1)" `Quick test_rule_ground_rules;
          Alcotest.test_case "grounding product" `Quick test_rule_ground_rules_product;
          Alcotest.test_case "equivalence (Def 6)" `Quick test_rule_equivalent;
          Alcotest.test_case "compact string" `Quick test_rule_compact_string;
          Alcotest.test_case "compact string (no attrs)" `Quick
            test_rule_compact_string_no_attrs;
          Alcotest.test_case "foreign attrs ground to self" `Quick
            test_rule_ground_rules_foreign_attrs;
        ] );
      ( "policy",
        [ Alcotest.test_case "cardinality (Def 7)" `Quick test_policy_cardinality;
          Alcotest.test_case "groundness" `Quick test_policy_is_ground;
          Alcotest.test_case "bag semantics" `Quick test_policy_bag_semantics;
          Alcotest.test_case "union/add" `Quick test_policy_union_add;
          Alcotest.test_case "project" `Quick test_policy_project;
        ] );
      ( "range",
        [ Alcotest.test_case "of P_PS (Def 8)" `Quick test_range_of_policy;
          Alcotest.test_case "dedupes overlaps" `Quick test_range_dedupes;
          Alcotest.test_case "set operations" `Quick test_range_set_operations;
          Alcotest.test_case "covers/intersects" `Quick test_range_covers_intersects;
          Alcotest.test_case "empty" `Quick test_range_empty;
        ] );
    ]
