(* Incremental coverage reads: System.coverage_qualified reads per-store
   pattern counts caught up behind a watermark, and P_AL is built only
   when forced.  The differential property drives random multi-site trails
   with appends interleaved between reads — so every read catches the
   counts up over a fresh delta — plus a reseat onto a rebuilt store, a
   mid-stream vocabulary edit and one fault-wrapped member, and checks
   each reading against Coverage.aligned over an eager P_AL built from a
   stable time sort of every site's entries — and, since the coverage kernel sits on both
   sides of that comparison, against a recompute on Range_reference. *)

module Sys_ = Prima_system.System
module Fed = Audit_mgmt.Federation
module Site = Audit_mgmt.Site
module C = Prima_core.Coverage
module Prima = Prima_core.Prima
module R = Prima_core.Rule
module S = Workload.Scenario

let check_int = Alcotest.(check int)
let attrs = Vocabulary.Audit_attrs.pattern

(* --- the differential property --- *)

type action =
  | Append of int * (int * int * int * int) list
      (* member index; per entry: data, purpose, authorized and user picks *)
  | Read of bool (* force P_AL only after the next appends *)
  | Reseat of int
  | Edit of int

let plain = [| "s0"; "s1"; "s2" |]
let faulty = "f0"
let members = Array.append plain [| faulty; "clinical-db" |]

let gen_action =
  let open QCheck2.Gen in
  let pick = int_range 0 1000 in
  frequency
    [ ( 5,
        map2
          (fun m es -> Append (m, es))
          (int_range 0 (Array.length members - 1))
          (list_size (int_range 1 12) (quad pick pick pick pick)) );
      (3, map (fun late -> Read late) bool);
      (1, map (fun m -> Reseat m) (int_range 0 (Array.length plain - 1)));
      (1, map (fun p -> Edit p) pick);
    ]

let print_action = function
  | Append (m, es) -> Printf.sprintf "append %s x%d" members.(m) (List.length es)
  | Read late -> Printf.sprintf "read%s" (if late then " (force late)" else "")
  | Reseat m -> "reseat " ^ plain.(m)
  | Edit p -> Printf.sprintf "edit %d" p

let values vocab attr = Vocabulary.Taxonomy.all_values (Vocabulary.Vocab.taxonomy vocab attr)
let nth values k = List.nth values (k mod List.length values)

let sorted_strings rules = List.sort compare (List.map R.to_string rules)

let same_rules a b = List.length a = List.length b && List.for_all2 R.equal a b

type run = {
  sys : Sys_.t;
  mutable time : int;
  mutable edits : int;
  mutable late : R.t list option; (* eager P_AL of a read not yet forced *)
}

let setup () =
  let sys = Sys_.create ~vocab:(S.vocab ()) ~p_ps:(S.policy_store ()) () in
  Array.iter (fun name -> Sys_.add_site sys (Site.create ~name ())) plain;
  Sys_.add_faulty_site sys
    (Audit_mgmt.Fault.wrap
       ~config:{ Audit_mgmt.Fault.no_faults with Audit_mgmt.Fault.latency = 3 }
       ~seed:7 (Site.create ~name:faulty ()));
  { sys; time = 0; edits = 0; late = None }

(* Every site's entries in site order, stable-sorted by time: the merge
   the consolidation must reproduce, independent of it. *)
let eager_p_al r =
  Prima_core.Policy.rules
    (Audit_mgmt.To_policy.policy_of_entries
       (List.stable_sort
          (fun a b -> Int.compare a.Hdb.Audit_schema.time b.Hdb.Audit_schema.time)
          (List.concat_map Site.entries (Fed.sites (Sys_.federation r.sys)))))

(* Both readings recomputed on the seed's set-based Range, independent of
   the coverage kernel: set semantics from range algebra, bag semantics
   from one cover test per occurrence. *)
let reference ~bag vocab ~p_x ~p_y =
  let module Ref = Prima_core.Range_reference in
  let p_x = Prima_core.Policy.project p_x ~attrs in
  let p_y = Prima_core.Policy.project p_y ~attrs in
  let range_x = Ref.of_policy vocab p_x in
  if bag then begin
    let rules = Prima_core.Policy.rules p_y in
    let uncovered = List.filter (fun r -> not (Ref.covers vocab range_x r)) rules in
    (List.length rules - List.length uncovered, List.length rules, uncovered)
  end
  else begin
    let range_y = Ref.of_policy vocab p_y in
    ( Ref.cardinality (Ref.inter range_x range_y),
      Ref.cardinality range_y,
      Ref.elements (Ref.diff range_y range_x) )
  end

(* One reading against Coverage.aligned over the eager P_AL, and against
   the Range_reference recompute. *)
let read_ok r ~late =
  let ok_late =
    match r.late with
    | None -> true
    | Some expected ->
      r.late <- None;
      same_rules expected (Prima_core.Policy.rules (Prima.audit_policy (Sys_.prima r.sys)))
  in
  let q = Sys_.coverage_qualified r.sys in
  let p_al = eager_p_al r in
  let vocab = Sys_.vocab r.sys in
  let p_x = Prima.policy_store (Sys_.prima r.sys) in
  let p_y = Prima_core.Policy.make p_al in
  let agrees ~bag (got : C.qualified) =
    let want = C.aligned ~bag vocab ~attrs ~p_x ~p_y in
    let overlap, denominator, uncovered = reference ~bag vocab ~p_x ~p_y in
    let got = got.C.stats in
    got.C.overlap = want.C.overlap
    && got.C.denominator = want.C.denominator
    && sorted_strings got.C.uncovered = sorted_strings want.C.uncovered
    && got.C.overlap = overlap
    && got.C.denominator = denominator
    && sorted_strings got.C.uncovered = sorted_strings uncovered
  in
  let ok_now =
    if late then begin
      r.late <- Some p_al;
      true
    end
    else same_rules p_al (Prima_core.Policy.rules (Prima.audit_policy (Sys_.prima r.sys)))
  in
  ok_late && ok_now
  && agrees ~bag:false q.Sys_.set_semantics
  && agrees ~bag:true q.Sys_.bag_semantics
  && C.is_exact q.Sys_.set_semantics

let step r = function
  | Append (m, picks) ->
    let vocab = Sys_.vocab r.sys in
    let entries =
      List.map
        (fun (d, p, a, u) ->
          r.time <- r.time + 1;
          Hdb.Audit_schema.entry ~time:r.time ~op:Hdb.Audit_schema.Allow
            ~user:(Printf.sprintf "u%d" (u mod 4))
            ~data:(nth (values vocab "data") d)
            ~purpose:(nth (values vocab "purpose") p)
            ~authorized:(nth (values vocab "authorized") a)
            ~status:
              (if u mod 3 = 0 then Hdb.Audit_schema.Exception_based
               else Hdb.Audit_schema.Regular))
        picks
    in
    (match Fed.site (Sys_.federation r.sys) members.(m) with
    | Some site -> Site.ingest_entries site entries
    | None -> Alcotest.fail ("unknown member " ^ members.(m)));
    true
  | Read late -> read_ok r ~late
  | Reseat m ->
    let name = plain.(m) in
    (match Fed.site (Sys_.federation r.sys) name with
    | Some old ->
      let rebuilt = Hdb.Audit_store.of_entries (Site.entries old) in
      Sys_.reseat_site r.sys name (Site.of_store ~name rebuilt)
    | None -> Alcotest.fail ("unknown member " ^ name));
    true
  | Edit p ->
    let vocab = Sys_.vocab r.sys in
    let parent = nth (values vocab "data") p in
    r.edits <- r.edits + 1;
    Sys_.set_vocab r.sys
      (Vocabulary.Vocab.with_leaf vocab ~attr:"data" ~parent
         ~value:(Printf.sprintf "edit-%d" r.edits));
    true

let prop_incremental_matches_eager =
  QCheck2.Test.make ~name:"incremental reads = aligned over the eager P_AL" ~count:150
    ~print:QCheck2.Print.(list print_action)
    QCheck2.Gen.(list_size (int_range 1 30) gen_action)
    (fun actions ->
      let r = setup () in
      (* a final read, so every run checks at least one reading *)
      List.for_all (step r) (actions @ [ Read false ]))

(* --- pinned cases --- *)

(* The paper's figures through Prima.coverage's tally path. *)
let test_paper_figures () =
  let coverage entries =
    let prima = Prima.create ~vocab:(S.vocab ()) ~p_ps:(S.policy_store ()) () in
    Prima.ingest_rules prima
      (Prima_core.Policy.rules (Audit_mgmt.To_policy.policy_of_entries entries));
    Prima.coverage prima
  in
  let fig3 = coverage (S.figure3_entries ()) in
  check_int "Figure 3 overlap" 3 fig3.Prima.set_semantics.C.overlap;
  check_int "Figure 3 denominator" 6 fig3.Prima.set_semantics.C.denominator;
  let table1 = coverage (S.table1_entries ()) in
  check_int "Table 1 overlap" 3 table1.Prima.bag_semantics.C.overlap;
  check_int "Table 1 denominator" 10 table1.Prima.bag_semantics.C.denominator;
  check_int "Table 1 uncovered entries" 7 (List.length table1.Prima.bag_semantics.C.uncovered)

(* A reading never forces P_AL, and a P_AL forced after later appends is
   still the snapshot of its own read. *)
let test_snapshot_isolation () =
  let sys = Sys_.create ~vocab:(S.vocab ()) ~p_ps:(S.policy_store ()) () in
  let store = Hdb.Control_center.audit_store (Sys_.control sys) in
  Hdb.Audit_store.append_all store (S.table1_entries ());
  let q = Sys_.coverage_qualified sys in
  check_int "3 of" 3 q.Sys_.bag_semantics.C.stats.C.overlap;
  check_int "10 entries" 10 q.Sys_.bag_semantics.C.stats.C.denominator;
  Hdb.Audit_store.append_all store (S.figure3_entries ());
  check_int "P_AL forced late holds the read's 10 entries" 10
    (Prima_core.Policy.cardinality (Prima.audit_policy (Sys_.prima sys)));
  let q = Sys_.coverage_qualified sys in
  check_int "the next read sees the delta" 16 q.Sys_.bag_semantics.C.stats.C.denominator

let () =
  Alcotest.run "incremental"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest ~long:false prop_incremental_matches_eager ] );
      ( "pinned",
        [ Alcotest.test_case "3/6 and 3/10 via Prima.coverage" `Quick test_paper_figures;
          Alcotest.test_case "lazy P_AL is a prefix snapshot" `Quick test_snapshot_isolation;
        ] );
    ]
