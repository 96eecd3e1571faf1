(* Tests for the tree-structured records substrate: XML parsing/printing,
   path expressions, the tree store and tree-level enforcement. *)

open Treedata

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let sample_record = {|
<!-- exported from the legacy department system -->
<record id="p1">
  <demographics>
    <name>Ann Ames</name>
    <address>12 Elm St</address>
  </demographics>
  <medications>
    <prescription drug="statin" dose="20mg"/>
    <prescription drug="aspirin" dose="75mg"/>
  </medications>
  <psychiatry>
    <note>Patient reports anxiety &amp; stress.</note>
  </psychiatry>
</record>
|}

(* --- xml --- *)

let test_parse_structure () =
  let root = Xml.parse sample_record in
  check_string "root" "record" root.Xml.tag;
  check_int "children" 3 (List.length root.Xml.children);
  Alcotest.(check (option string)) "attribute" (Some "p1") (Xml.attribute root "id")

let test_parse_text_and_entities () =
  let root = Xml.parse sample_record in
  let note = List.hd (Path.select (Path.parse "/record/psychiatry/note") root) in
  check_string "entity decoded" "Patient reports anxiety & stress." note.Xml.text

let test_parse_self_closing_and_attrs () =
  let root = Xml.parse sample_record in
  let prescriptions = Path.select (Path.parse "/record/medications/prescription") root in
  check_int "two" 2 (List.length prescriptions);
  Alcotest.(check (option string)) "drug attr" (Some "statin")
    (Xml.attribute (List.hd prescriptions) "drug")

let test_parse_errors () =
  let expect_error s =
    match Xml.parse s with
    | exception Xml.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error: %s" s
  in
  expect_error "<a><b></a></b>";
  expect_error "<a>";
  expect_error "no markup";
  expect_error "<a></a><b></b>"

let test_print_parse_roundtrip () =
  let root = Xml.parse sample_record in
  let reparsed = Xml.parse (Xml.to_string root) in
  check_bool "roundtrip" true (Xml.equal root reparsed)

let test_count_fold () =
  let root = Xml.parse sample_record in
  check_int "nodes" 9 (Xml.count root)

(* --- path --- *)

let test_path_parse_and_print () =
  check_string "roundtrip" "/record/medications/prescription"
    (Path.to_string (Path.parse "/record/medications/prescription"));
  check_string "descendant" "//note" (Path.to_string (Path.parse "//note"));
  check_string "wildcard" "/record/*" (Path.to_string (Path.parse "/record/*"))

let test_path_invalid () =
  let expect_invalid s =
    match Path.parse s with
    | exception Path.Invalid_path _ -> ()
    | _ -> Alcotest.failf "expected invalid: %s" s
  in
  expect_invalid "";
  expect_invalid "record/x";
  expect_invalid "/"

let test_path_select () =
  let root = Xml.parse sample_record in
  check_int "absolute" 1 (List.length (Path.select (Path.parse "/record/demographics/name") root));
  check_int "wildcard" 3 (List.length (Path.select (Path.parse "/record/*") root));
  check_int "descendant" 2 (List.length (Path.select (Path.parse "//prescription") root));
  check_int "mixed" 1 (List.length (Path.select (Path.parse "/record//note") root));
  check_int "no match" 0 (List.length (Path.select (Path.parse "/record/billing") root))

let test_path_matches () =
  let p = Path.parse "/record/medications/prescription" in
  check_bool "exact" true (Path.matches p [ "record"; "medications"; "prescription" ]);
  check_bool "too deep" false
    (Path.matches p [ "record"; "medications"; "prescription"; "dose" ]);
  check_bool "descendant" true
    (Path.matches (Path.parse "//note") [ "record"; "psychiatry"; "note" ]);
  check_bool "wildcard" true (Path.matches (Path.parse "/record/*") [ "record"; "medications" ])

(* --- tree store --- *)

let make_store () =
  let store = Tree_store.create () in
  Tree_store.put_xml store ~patient:"p1" sample_record;
  Tree_store.map_path store ~path:"/record/demographics/name" ~category:"name";
  Tree_store.map_path store ~path:"/record/demographics/address" ~category:"address";
  Tree_store.map_path store ~path:"//prescription" ~category:"prescription";
  Tree_store.map_path store ~path:"/record/psychiatry" ~category:"psychiatry";
  store

let test_store_basics () =
  let store = make_store () in
  check_int "one patient" 1 (Tree_store.count store);
  Alcotest.(check (list string)) "patients" [ "p1" ] (Tree_store.patients store);
  check_bool "missing" true (Tree_store.get store ~patient:"zz" = None)

let test_store_categories () =
  let store = make_store () in
  let doc = Option.get (Tree_store.get store ~patient:"p1") in
  Alcotest.(check (list string)) "categories found"
    [ "name"; "address"; "prescription"; "psychiatry" ]
    (Tree_store.categories_in store doc);
  check_bool "psychiatry note inherits nothing"
    true
    (Tree_store.category_of_tags store [ "record"; "psychiatry" ] = Some "psychiatry")

(* --- tree enforcement --- *)

let vocab = Vocabulary.Samples.figure1 ()

let make_enforcement () =
  let store = make_store () in
  let rules = Hdb.Privacy_rules.create ~vocab in
  Hdb.Privacy_rules.add rules ~data:"routine" ~purpose:"treatment" ~authorized:"nurse" ();
  Hdb.Privacy_rules.add rules ~data:"demographic" ~purpose:"treatment" ~authorized:"nurse" ();
  Hdb.Privacy_rules.add rules ~data:"psychiatry" ~purpose:"treatment"
    ~authorized:"psychiatrist" ();
  let consent = Hdb.Consent.create ~vocab () in
  let logger = Hdb.Audit_logger.create () in
  Tree_enforcement.create ~store ~rules ~consent ~logger

let nurse = { Tree_enforcement.user = "tim"; role = "nurse"; purpose = "treatment" }

let test_enforcement_prunes_forbidden_subtree () =
  let enforcement = make_enforcement () in
  match Tree_enforcement.retrieve enforcement nurse ~patient:"p1" with
  | Ok outcome ->
    check_bool "psychiatry pruned" true
      (Path.select (Path.parse "//note") outcome.Tree_enforcement.document = []);
    check_bool "prescriptions kept" true
      (List.length
         (Path.select (Path.parse "//prescription") outcome.Tree_enforcement.document)
      = 2);
    Alcotest.(check (list string)) "pruned categories" [ "psychiatry" ]
      outcome.Tree_enforcement.pruned_categories;
    check_bool "not break-glass" false outcome.Tree_enforcement.break_glass
  | Error e -> Alcotest.fail (Tree_enforcement.error_to_string e)

let test_enforcement_consent_prunes () =
  let enforcement = make_enforcement () in
  Hdb.Consent.record
    (Tree_enforcement.consent enforcement)
    ~patient:"p1" ~purpose:"treatment" ~data:"prescription" Hdb.Consent.Opt_out;
  match Tree_enforcement.retrieve enforcement nurse ~patient:"p1" with
  | Ok outcome ->
    check_bool "prescriptions withheld" true
      (Path.select (Path.parse "//prescription") outcome.Tree_enforcement.document = []);
    check_bool "demographics kept" true
      (Path.select (Path.parse "/record/demographics/name") outcome.Tree_enforcement.document
      <> []);
    check_bool "prescription not disclosed" true
      (not (List.mem "prescription" outcome.Tree_enforcement.disclosed_categories))
  | Error e -> Alcotest.fail (Tree_enforcement.error_to_string e)

let test_enforcement_denied_and_btg () =
  let enforcement = make_enforcement () in
  let clerk = { Tree_enforcement.user = "bill"; role = "clerk"; purpose = "billing" } in
  (match Tree_enforcement.retrieve enforcement clerk ~patient:"p1" with
  | Error (Tree_enforcement.Denied _) -> ()
  | _ -> Alcotest.fail "expected denial");
  match Tree_enforcement.retrieve ~break_glass:true enforcement clerk ~patient:"p1" with
  | Ok outcome ->
    check_bool "break glass" true outcome.Tree_enforcement.break_glass;
    check_int "full document" 9 (Xml.count outcome.Tree_enforcement.document);
    let exceptions =
      Hdb.Audit_query.exceptions (Hdb.Audit_logger.store (Tree_enforcement.logger enforcement))
    in
    check_bool "exception trail" true (List.length exceptions > 0)
  | Error e -> Alcotest.fail (Tree_enforcement.error_to_string e)

let test_enforcement_missing_patient () =
  let enforcement = make_enforcement () in
  match Tree_enforcement.retrieve enforcement nurse ~patient:"ghost" with
  | Error (Tree_enforcement.Not_found "ghost") -> ()
  | _ -> Alcotest.fail "expected not-found"

let test_enforcement_audit_feeds_refinement () =
  (* Tree-substrate exceptions look exactly like relational ones to the
     refinement pipeline. *)
  let enforcement = make_enforcement () in
  let clerk = { Tree_enforcement.user = "bill"; role = "clerk"; purpose = "billing" } in
  let retrieve_btg user =
    match
      Tree_enforcement.retrieve ~break_glass:true enforcement
        { clerk with Tree_enforcement.user } ~patient:"p1"
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Tree_enforcement.error_to_string e)
  in
  List.iter retrieve_btg [ "bill"; "jane"; "bill"; "jane"; "bill"; "kate" ];
  let p_al =
    Audit_mgmt.To_policy.policy_of_store
      (Hdb.Audit_logger.store (Tree_enforcement.logger enforcement))
  in
  let patterns =
    (Prima_core.Extract_patterns.run (Prima_core.Filter.run p_al))
      .Prima_core.Data_analysis.patterns
  in
  check_bool "patterns mined from tree audit" true (List.length patterns > 0)

let () =
  Alcotest.run "treedata"
    [ ( "xml",
        [ Alcotest.test_case "structure" `Quick test_parse_structure;
          Alcotest.test_case "text & entities" `Quick test_parse_text_and_entities;
          Alcotest.test_case "self-closing & attrs" `Quick test_parse_self_closing_and_attrs;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "count" `Quick test_count_fold;
        ] );
      ( "path",
        [ Alcotest.test_case "parse/print" `Quick test_path_parse_and_print;
          Alcotest.test_case "invalid" `Quick test_path_invalid;
          Alcotest.test_case "select" `Quick test_path_select;
          Alcotest.test_case "matches" `Quick test_path_matches;
        ] );
      ( "store",
        [ Alcotest.test_case "basics" `Quick test_store_basics;
          Alcotest.test_case "categories" `Quick test_store_categories;
        ] );
      ( "enforcement",
        [ Alcotest.test_case "prunes forbidden subtree" `Quick
            test_enforcement_prunes_forbidden_subtree;
          Alcotest.test_case "consent prunes" `Quick test_enforcement_consent_prunes;
          Alcotest.test_case "denied & break-glass" `Quick test_enforcement_denied_and_btg;
          Alcotest.test_case "missing patient" `Quick test_enforcement_missing_patient;
          Alcotest.test_case "audit feeds refinement" `Quick
            test_enforcement_audit_feeds_refinement;
        ] );
    ]
