(* Property-based tests (QCheck) on the core invariants: grounding,
   range algebra, coverage bounds and monotonicity, miner agreement,
   store roundtrips and SQL literal quoting. *)

let vocab = Vocabulary.Samples.figure1 ()

module R = Prima_core.Rule
module P = Prima_core.Policy
module Range = Prima_core.Range
module C = Prima_core.Coverage

(* --- generators --- *)

let data_values =
  Vocabulary.Taxonomy.all_values (Vocabulary.Vocab.taxonomy vocab "data")

let purpose_values =
  Vocabulary.Taxonomy.all_values (Vocabulary.Vocab.taxonomy vocab "purpose")

let role_values =
  Vocabulary.Taxonomy.all_values (Vocabulary.Vocab.taxonomy vocab "authorized")

let gen_value_of values = QCheck2.Gen.oneofl values

let gen_rule : R.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* d = gen_value_of data_values in
  let* p = gen_value_of purpose_values in
  let* a = gen_value_of role_values in
  (* Sometimes drop attributes to vary cardinality. *)
  let* keep_p = bool and* keep_a = bool in
  let terms =
    [ ("data", d) ]
    @ (if keep_p then [ ("purpose", p) ] else [])
    @ if keep_a then [ ("authorized", a) ] else []
  in
  return (R.of_assoc terms)

let gen_policy : P.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* rules = list_size (int_range 0 8) gen_rule in
  return (P.make rules)

let print_rule r = R.to_string r
let print_policy p = Fmt.str "%a" P.pp p

(* --- grounding properties --- *)

let prop_ground_rules_all_ground =
  QCheck2.Test.make ~name:"ground rules are ground" ~count:300
    ~print:print_rule gen_rule (fun rule ->
      List.for_all (R.is_ground vocab) (R.ground_rules vocab rule))

let prop_ground_rules_cardinality =
  QCheck2.Test.make ~name:"grounding size = product of term ground sets" ~count:300
    ~print:print_rule gen_rule (fun rule ->
      let expected =
        List.fold_left
          (fun acc term ->
            acc * List.length (Prima_core.Rule_term.ground_set vocab term))
          1 (R.terms rule)
      in
      List.length (R.ground_rules vocab rule) = expected)

let prop_ground_rules_equivalent_to_parent =
  QCheck2.Test.make ~name:"every ground instance is equivalent to its rule (Def 6)"
    ~count:300 ~print:print_rule gen_rule (fun rule ->
      List.for_all (fun g -> R.equivalent vocab g rule) (R.ground_rules vocab rule))

let prop_grounding_idempotent =
  QCheck2.Test.make ~name:"grounding a ground rule is the identity" ~count:300
    ~print:print_rule gen_rule (fun rule ->
      List.for_all
        (fun g -> R.ground_rules vocab g = [ g ])
        (R.ground_rules vocab rule))

(* --- range algebra --- *)

let prop_range_union =
  QCheck2.Test.make ~name:"range of union = union of ranges" ~count:200
    ~print:(fun (a, b) -> print_policy a ^ " / " ^ print_policy b)
    QCheck2.Gen.(pair gen_policy gen_policy)
    (fun (a, b) ->
      Range.cardinality (Range.of_policy vocab (P.union a b))
      = Range.cardinality
          (Range.union (Range.of_policy vocab a) (Range.of_policy vocab b)))

let prop_range_covers_members =
  QCheck2.Test.make ~name:"range covers every rule of its policy" ~count:200
    ~print:print_policy gen_policy (fun p ->
      let range = Range.of_policy vocab p in
      List.for_all (Range.covers vocab range) (P.rules p))

(* --- coverage properties --- *)

let prop_coverage_unit_interval =
  QCheck2.Test.make ~name:"coverage lies in [0,1]" ~count:200
    ~print:(fun (a, b) -> print_policy a ^ " / " ^ print_policy b)
    QCheck2.Gen.(pair gen_policy gen_policy)
    (fun (a, b) ->
      let set = (C.compute vocab ~p_x:a ~p_y:b).C.coverage in
      let bag = (C.compute_bag vocab ~p_x:a ~p_y:b).C.coverage in
      set >= 0. && set <= 1. && bag >= 0. && bag <= 1.)

let prop_coverage_reflexive =
  QCheck2.Test.make ~name:"every policy covers itself" ~count:200 ~print:print_policy
    gen_policy (fun p ->
      (C.compute vocab ~p_x:p ~p_y:p).C.coverage = 1.0
      && (C.compute_bag vocab ~p_x:p ~p_y:p).C.coverage = 1.0)

let prop_coverage_monotone_in_x =
  QCheck2.Test.make ~name:"adding rules to P_x never lowers coverage" ~count:200
    ~print:(fun ((a, b), r) ->
      print_policy a ^ " / " ^ print_policy b ^ " + " ^ print_rule r)
    QCheck2.Gen.(pair (pair gen_policy gen_policy) gen_rule)
    (fun ((a, b), extra) ->
      let before = (C.compute vocab ~p_x:a ~p_y:b).C.coverage in
      let after = (C.compute vocab ~p_x:(P.add_rule a extra) ~p_y:b).C.coverage in
      after >= before)

let prop_coverage_complete_iff_one =
  QCheck2.Test.make ~name:"complete coverage iff ratio is 1" ~count:200
    ~print:(fun (a, b) -> print_policy a ^ " / " ^ print_policy b)
    QCheck2.Gen.(pair gen_policy gen_policy)
    (fun (a, b) ->
      let stats = C.compute vocab ~p_x:a ~p_y:b in
      C.complete vocab ~p_x:a ~p_y:b = (stats.C.coverage = 1.0))

(* --- prune properties --- *)

let prop_prune_result_disjoint_from_store =
  QCheck2.Test.make ~name:"pruned patterns are never fully covered by the store"
    ~count:200
    ~print:(fun (p, rules) ->
      print_policy p ^ " / " ^ String.concat "; " (List.map print_rule rules))
    QCheck2.Gen.(pair gen_policy (list_size (int_range 0 5) gen_rule))
    (fun (p_ps, patterns) ->
      let useful = Prima_core.Prune.run vocab ~patterns ~p_ps in
      let attrs =
        List.sort_uniq String.compare
          (List.concat_map
             (fun r -> List.map Prima_core.Rule_term.attr (R.terms r))
             patterns)
      in
      let range =
        if patterns = [] then Range.empty
        else Range.of_policy vocab (P.project p_ps ~attrs)
      in
      List.for_all (fun r -> not (Range.covers vocab range r)) useful)

(* --- miner agreement --- *)

let gen_transactions : Mining.Transactions.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let item i = { Mining.Itemset.attr = "x"; value = string_of_int i } in
  let* rows =
    list_size (int_range 1 60)
      (let* ids = list_size (int_range 1 5) (int_range 0 7) in
       return (List.map item ids))
  in
  return (Mining.Transactions.of_item_lists rows)

let prop_apriori_eq_fp_growth =
  QCheck2.Test.make ~name:"apriori and fp-growth agree" ~count:60
    ~print:(fun tx -> Printf.sprintf "<%d transactions>" (Mining.Transactions.count tx))
    gen_transactions (fun tx ->
      let norm l =
        List.map
          (fun (f : Mining.Apriori.frequent) ->
            (Mining.Itemset.to_list f.itemset, f.support))
          (Mining.Fp_growth.normalize l)
      in
      norm (Mining.Apriori.mine tx ~min_support:3)
      = norm (Mining.Fp_growth.mine tx ~min_support:3))

let prop_apriori_antimonotone =
  QCheck2.Test.make ~name:"support is anti-monotone in itemset size" ~count:60
    ~print:(fun tx -> Printf.sprintf "<%d transactions>" (Mining.Transactions.count tx))
    gen_transactions (fun tx ->
      let frequents = Mining.Apriori.mine tx ~min_support:2 in
      List.for_all
        (fun (f : Mining.Apriori.frequent) ->
          List.for_all
            (fun sub ->
              Mining.Transactions.support tx sub >= f.support)
            (Mining.Itemset.immediate_subsets f.itemset))
        frequents)

(* --- audit store roundtrip --- *)

let gen_entry : Hdb.Audit_schema.entry QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* time = int_range 0 100000 in
  let* op = oneofl [ Hdb.Audit_schema.Allow; Hdb.Audit_schema.Disallow ] in
  let* status = oneofl [ Hdb.Audit_schema.Regular; Hdb.Audit_schema.Exception_based ] in
  let* user = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let* data = gen_value_of data_values in
  let* purpose = gen_value_of purpose_values in
  let* authorized = gen_value_of role_values in
  return (Hdb.Audit_schema.entry ~time ~op ~user ~data ~purpose ~authorized ~status)

let prop_store_roundtrip =
  QCheck2.Test.make ~name:"audit store roundtrips entries" ~count:100
    ~print:(fun es -> Printf.sprintf "<%d entries>" (List.length es))
    QCheck2.Gen.(list_size (int_range 0 50) gen_entry)
    (fun entries ->
      let store = Hdb.Audit_store.of_entries entries in
      Hdb.Audit_store.to_list store = entries)

let prop_entry_rule_roundtrip =
  QCheck2.Test.make ~name:"entry -> rule -> entry" ~count:200
    ~print:(fun e -> Fmt.str "%a" Hdb.Audit_schema.pp e)
    gen_entry (fun e ->
      Audit_mgmt.To_policy.entry_of_rule (Audit_mgmt.To_policy.rule_of_entry e) = Some e)

(* --- SQL literal quoting --- *)

let prop_sql_string_literal_roundtrip =
  QCheck2.Test.make ~name:"string literals roundtrip through lexer" ~count:300
    ~print:(fun s -> s)
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 30))
    (fun s ->
      match Relational.Sql_parser.parse_expr_string
              (Relational.Value.to_sql_literal (Relational.Value.Str s))
      with
      | Relational.Sql_ast.Lit (Relational.Value.Str s') -> String.equal s s'
      | _ -> false)

let prop_like_percent_matches_all =
  QCheck2.Test.make ~name:"LIKE '%' matches everything" ~count:200 ~print:(fun s -> s)
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 20))
    (fun s -> Relational.Expr.like_match ~pattern:"%" s)

let prop_like_self_matches =
  QCheck2.Test.make ~name:"a %%-free pattern matches exactly itself" ~count:200
    ~print:(fun s -> s)
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 15))
    (fun s -> Relational.Expr.like_match ~pattern:s s)

(* --- vec behaves like list --- *)

let prop_vec_like_list =
  QCheck2.Test.make ~name:"vec of_list/to_list identity" ~count:200
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck2.Gen.(list int)
    (fun l ->
      Relational.Vec.to_list (Relational.Vec.of_list l) = l
      && Relational.Vec.length (Relational.Vec.of_list l) = List.length l)

(* --- generalization preserves ranges --- *)

let prop_generalize_preserves_range =
  QCheck2.Test.make ~name:"generalize preserves the range" ~count:100
    ~print:print_policy gen_policy (fun p ->
      let before = Range.of_policy vocab p in
      let after = Range.of_policy vocab (Prima_core.Analysis.generalize vocab p) in
      Range.cardinality before = Range.cardinality after
      && Range.subset before after && Range.subset after before)

let prop_minimize_preserves_range =
  QCheck2.Test.make ~name:"minimize preserves the range" ~count:100 ~print:print_policy
    gen_policy (fun p ->
      let before = Range.of_policy vocab p in
      let minimized = Prima_core.Analysis.minimize vocab p in
      let after = Range.of_policy vocab minimized in
      Range.cardinality before = Range.cardinality after
      && P.cardinality minimized <= P.cardinality p)

(* --- persistence roundtrips --- *)

let prop_policy_file_roundtrip =
  QCheck2.Test.make ~name:"policy file roundtrips" ~count:150 ~print:print_policy
    gen_policy (fun p ->
      let p' = Prima_core.Policy_file.of_string (Prima_core.Policy_file.to_string p) in
      List.length (P.rules p) = List.length (P.rules p')
      && List.for_all2 R.equal_syntactic (P.rules p) (P.rules p'))

let prop_audit_csv_roundtrip =
  QCheck2.Test.make ~name:"audit csv roundtrips nasty strings" ~count:150
    ~print:(fun es -> Printf.sprintf "<%d entries>" (List.length es))
    QCheck2.Gen.(
      list_size (int_range 0 20)
        (let* time = int_range 0 1000 in
         let* user = string_size ~gen:printable (int_range 1 12) in
         let* data = string_size ~gen:printable (int_range 1 12) in
         return
           (Hdb.Audit_schema.entry ~time ~op:Hdb.Audit_schema.Allow ~user ~data
              ~purpose:"treatment" ~authorized:"nurse"
              ~status:Hdb.Audit_schema.Regular)))
    (fun entries ->
      (* CSV cannot carry CR (normalised at record boundaries); skip those. *)
      let has_cr (e : Hdb.Audit_schema.entry) =
        String.contains e.Hdb.Audit_schema.user '\r'
        || String.contains e.Hdb.Audit_schema.data '\r'
      in
      List.exists has_cr entries
      || Hdb.Audit_csv.of_string (Hdb.Audit_csv.to_string entries) = entries)

(* --- xml roundtrip --- *)

let gen_xml : Treedata.Xml.node QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_name = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let gen_text = string_size ~gen:(char_range 'a' 'z') (int_range 0 10) in
  let rec node depth =
    let* tag = gen_name in
    let* attributes =
      list_size (int_range 0 2)
        (let* k = gen_name in
         let* v = gen_text in
         return (k, v))
    in
    (* attribute names must be unique for roundtripping *)
    let attributes =
      List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) attributes
    in
    let* children =
      if depth = 0 then return [] else list_size (int_range 0 3) (node (depth - 1))
    in
    let* text = gen_text in
    return (Treedata.Xml.element ~attributes ~text tag children)
  in
  node 3

let prop_xml_roundtrip =
  QCheck2.Test.make ~name:"xml print/parse roundtrip" ~count:150
    ~print:Treedata.Xml.to_string gen_xml (fun node ->
      Treedata.Xml.equal node (Treedata.Xml.parse (Treedata.Xml.to_string node)))

(* --- index pushdown equivalence --- *)

let prop_index_pushdown_equivalent =
  QCheck2.Test.make ~name:"index probe matches full scan" ~count:100
    ~print:(fun rows -> Printf.sprintf "<%d rows>" (List.length rows))
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (pair (string_size ~gen:(char_range 'a' 'c') (int_range 1 1)) (int_range 0 5)))
    (fun rows ->
      let open Relational in
      let build ~indexed =
        let e = Engine.create () in
        ignore (Engine.exec e "CREATE TABLE t (k TEXT, v INTEGER)");
        if indexed then Table.create_index (Engine.table e "t") ~column_name:"k";
        List.iter
          (fun (k, v) -> Engine.insert_row e ~table:"t" [ Value.Str k; Value.Int v ])
          rows;
        e
      in
      let plain = build ~indexed:false and indexed = build ~indexed:true in
      List.for_all
        (fun probe ->
          let sql = Printf.sprintf "SELECT v FROM t WHERE k = '%s' AND v < 4" probe in
          (Engine.query plain sql).Executor.rows = (Engine.query indexed sql).Executor.rows)
        [ "a"; "b"; "c"; "z" ])

(* --- enforcement security invariant --- *)

(* Whatever the context and projection, an enforced (non-break-glass) answer
   never contains a non-NULL value from a column whose category the context
   is not permitted to see. *)
let prop_enforcement_never_leaks =
  let columns = [ "referral"; "psychiatry"; "address"; "gender" ] in
  let roles = [ "nurse"; "clerk"; "psychiatrist"; "doctor" ] in
  let purposes = [ "treatment"; "billing"; "registration" ] in
  QCheck2.Test.make ~name:"enforcement never leaks a forbidden cell" ~count:150
    ~print:(fun (cols, role, purpose) ->
      Printf.sprintf "SELECT %s AS %s FOR %s" (String.concat "," cols) role purpose)
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 4) (oneofl columns))
        (oneofl roles) (oneofl purposes))
    (fun (cols, role, purpose) ->
      let control = Hdb.Control_center.create ~vocab () in
      ignore
        (Hdb.Control_center.admin_exec control
           "CREATE TABLE recs (patient TEXT, referral TEXT, psychiatry TEXT, address TEXT, gender TEXT)");
      ignore
        (Hdb.Control_center.admin_exec control
           "INSERT INTO recs VALUES ('p1', 'REF', 'PSY', 'ADDR', 'GEN'), ('p2', 'REF2', 'PSY2', 'ADDR2', 'GEN2')");
      Hdb.Control_center.set_patient_column control ~table:"recs" ~column:"patient";
      List.iter
        (fun c -> Hdb.Control_center.map_column control ~table:"recs" ~column:c ~category:c)
        columns;
      Hdb.Control_center.permit control ~data:"routine" ~purpose:"treatment"
        ~authorized:"nurse";
      Hdb.Control_center.permit control ~data:"demographic" ~purpose:"billing"
        ~authorized:"clerk";
      Hdb.Control_center.permit control ~data:"psychiatry" ~purpose:"treatment"
        ~authorized:"psychiatrist";
      let sql = "SELECT " ^ String.concat ", " cols ^ " FROM recs" in
      let forbidden_values =
        List.filteri (fun _ c ->
            not
              (Hdb.Privacy_rules.permits
                 (Hdb.Control_center.rules control)
                 ~data:c ~purpose ~authorized:role))
          cols
        |> List.concat_map (fun c ->
               match c with
               | "referral" -> [ "REF"; "REF2" ]
               | "psychiatry" -> [ "PSY"; "PSY2" ]
               | "address" -> [ "ADDR"; "ADDR2" ]
               | _ -> [ "GEN"; "GEN2" ])
      in
      match Hdb.Control_center.query control ~user:"u" ~role ~purpose sql with
      | Error _ -> true (* denial never leaks *)
      | Ok outcome ->
        List.for_all
          (fun row ->
            List.for_all
              (fun v ->
                match v with
                | Relational.Value.Str s -> not (List.mem s forbidden_values)
                | _ -> true)
              (Relational.Row.to_list row))
          outcome.Hdb.Enforcement.result.Relational.Executor.rows)

(* --- federation is a sorted permutation --- *)

let prop_federation_sorted_permutation =
  QCheck2.Test.make ~name:"consolidated view is a sorted permutation" ~count:100
    ~print:(fun sites ->
      Printf.sprintf "<%d sites>" (List.length sites))
    QCheck2.Gen.(
      list_size (int_range 0 4)
        (list_size (int_range 0 15)
           (* draws of 50 become max_int: a valid time the merge must keep *)
           (map (fun t -> if t = 50 then max_int else t) (int_range 0 50))))
    (fun site_times ->
      let sites =
        List.mapi
          (fun i times ->
            let site = Audit_mgmt.Site.create ~name:(Printf.sprintf "s%d" i) () in
            List.iter
              (fun time ->
                Audit_mgmt.Site.ingest_entries site
                  [ Hdb.Audit_schema.entry ~time ~op:Hdb.Audit_schema.Allow
                      ~user:(Printf.sprintf "u%d" i) ~data:"referral" ~purpose:"treatment"
                      ~authorized:"nurse" ~status:Hdb.Audit_schema.Regular ])
              times;
            site)
          site_times
      in
      let merged =
        (Audit_mgmt.Federation.consolidated_result (Audit_mgmt.Federation.of_sites sites))
          .Audit_mgmt.Federation.entries
      in
      let times = List.map (fun e -> e.Hdb.Audit_schema.time) merged in
      let all_times = List.concat site_times in
      List.sort Int.compare times = times
      && List.sort Int.compare times = List.sort Int.compare all_times)

(* --- trend windows partition the timed entries --- *)

let gen_timed_policy : P.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* rows =
    list_size (int_range 1 30)
      (let* time = int_range 0 100 in
       let* d = gen_value_of data_values in
       return [ ("time", string_of_int time); ("data", d) ])
  in
  return (P.of_assoc_list rows)

let prop_trend_partitions =
  QCheck2.Test.make ~name:"trend windows partition the entries" ~count:150
    ~print:print_policy gen_timed_policy (fun p_al ->
      let p_ps = P.of_assoc_list [ [ ("data", "data") ] ] in
      let points = Prima_core.Trend.compute vocab ~p_ps ~p_al ~window:7 () in
      let total =
        List.fold_left (fun acc p -> acc + p.Prima_core.Trend.entries) 0 points
      in
      let disjoint =
        let rec go = function
          | a :: (b :: _ as rest) ->
            a.Prima_core.Trend.window_end < b.Prima_core.Trend.window_start && go rest
          | _ -> true
        in
        go points
      in
      total = P.cardinality p_al && disjoint)

let suite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "properties"
    [ suite "grounding"
        [ prop_ground_rules_all_ground; prop_ground_rules_cardinality;
          prop_ground_rules_equivalent_to_parent; prop_grounding_idempotent ];
      suite "range" [ prop_range_union; prop_range_covers_members ];
      suite "coverage"
        [ prop_coverage_unit_interval; prop_coverage_reflexive;
          prop_coverage_monotone_in_x; prop_coverage_complete_iff_one ];
      suite "prune" [ prop_prune_result_disjoint_from_store ];
      suite "mining" [ prop_apriori_eq_fp_growth; prop_apriori_antimonotone ];
      suite "stores" [ prop_store_roundtrip; prop_entry_rule_roundtrip ];
      suite "sql" [ prop_sql_string_literal_roundtrip; prop_like_percent_matches_all;
                    prop_like_self_matches ];
      suite "vec" [ prop_vec_like_list ];
      suite "analysis" [ prop_generalize_preserves_range; prop_minimize_preserves_range ];
      suite "persistence" [ prop_policy_file_roundtrip; prop_audit_csv_roundtrip ];
      suite "xml" [ prop_xml_roundtrip ];
      suite "index" [ prop_index_pushdown_equivalent ];
      suite "enforcement" [ prop_enforcement_never_leaks ];
      suite "federation" [ prop_federation_sorted_permutation ];
      suite "trend" [ prop_trend_partitions ];
    ]
