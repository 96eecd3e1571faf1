(* HDB Active Enforcement in action (Figure 5): fine-grained rules, patient
   consent, cell-level masking, row-level exclusion, Break-The-Glass, and
   the audit trail every decision leaves behind.

     dune exec examples/enforcement_demo.exe *)

module CC = Hdb.Control_center

let show_outcome label (outcome : Hdb.Enforcement.outcome) =
  Fmt.pr "@.-- %s --@." label;
  Fmt.pr "rewritten: %s@." outcome.Hdb.Enforcement.rewritten_sql;
  if outcome.Hdb.Enforcement.masked_columns <> [] then
    Fmt.pr "masked   : %s@." (String.concat ", " outcome.Hdb.Enforcement.masked_columns);
  if outcome.Hdb.Enforcement.excluded_patients <> [] then
    Fmt.pr "excluded : %s@." (String.concat ", " outcome.Hdb.Enforcement.excluded_patients);
  if outcome.Hdb.Enforcement.break_glass then Fmt.pr "break-the-glass access!@.";
  Fmt.pr "%a" Relational.Engine.pp_result outcome.Hdb.Enforcement.result

let run ?break_glass control ~user ~role ~purpose sql =
  Fmt.pr "@.%s (%s) asks, for %s:@.  %s@." user role purpose sql;
  match CC.query ?break_glass control ~user ~role ~purpose sql with
  | Ok outcome -> show_outcome "answer" outcome
  | Error e -> Fmt.pr "  => %s@." (Hdb.Enforcement.error_to_string e)

let () =
  let vocab = Vocabulary.Samples.figure1 () in
  let control = CC.create ~vocab () in

  (* Clinical schema + data. *)
  List.iter
    (fun sql -> ignore (CC.admin_exec control sql))
    [ "CREATE TABLE records (patient TEXT, name TEXT, address TEXT, referral TEXT, \
       prescription TEXT, psychiatry TEXT)";
      "INSERT INTO records VALUES \
       ('p1', 'Ann Ames',  '12 Elm St',  'cardiology',  'statin',   'none'), \
       ('p2', 'Bob Banks', '9 Oak Ave',  'radiology',   'insulin',  'anxiety'), \
       ('p3', 'Cyd Cole',  '4 Pine Rd',  'neurology',   'warfarin', 'none')";
    ];
  CC.set_patient_column control ~table:"records" ~column:"patient";
  List.iter
    (fun (column, category) -> CC.map_column control ~table:"records" ~column ~category)
    [ ("name", "name"); ("address", "address"); ("referral", "referral");
      ("prescription", "prescription"); ("psychiatry", "psychiatry") ];

  (* Stakeholder-defined policy: the Figure 3(a) rules. *)
  CC.permit control ~data:"routine" ~purpose:"treatment" ~authorized:"nurse";
  CC.permit control ~data:"psychiatry" ~purpose:"treatment" ~authorized:"psychiatrist";
  CC.permit control ~data:"demographic" ~purpose:"billing" ~authorized:"clerk";

  (* Patient choice: Bob opts out of billing uses of his demographics. *)
  CC.opt_out control ~patient:"p2" ~purpose:"billing" ~data:"demographic";

  Fmt.pr "=== Cell-level masking ===@.";
  run control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
    "SELECT patient, referral, psychiatry FROM records";

  Fmt.pr "@.=== Row-level consent exclusion ===@.";
  run control ~user:"bill" ~role:"clerk" ~purpose:"billing"
    "SELECT patient, name, address FROM records";

  Fmt.pr "@.=== Denial: purpose not permitted ===@.";
  run control ~user:"mark" ~role:"nurse" ~purpose:"registration"
    "SELECT referral FROM records";

  Fmt.pr "@.=== Break The Glass ===@.";
  run ~break_glass:true control ~user:"mark" ~role:"nurse" ~purpose:"registration"
    "SELECT referral FROM records";

  Fmt.pr "@.=== Denial: predicate over a forbidden category ===@.";
  run control ~user:"tim" ~role:"nurse" ~purpose:"treatment"
    "SELECT referral FROM records WHERE psychiatry = 'anxiety'";

  Fmt.pr "@.=== The audit trail (Compliance Auditing) ===@.";
  List.iter (fun e -> Fmt.pr "  %a@." Hdb.Audit_schema.pp e) (CC.audit_entries control);

  Fmt.pr "@.=== Compliance question: who saw referral data? ===@.";
  List.iter
    (fun e -> Fmt.pr "  %a@." Hdb.Audit_schema.pp e)
    (Hdb.Audit_query.disclosures (CC.audit_store control) ~data:"referral");

  Fmt.pr "@.=== Storage efficiency of the audit store ===@.";
  let store = CC.audit_store control in
  Fmt.pr "naive row-store bytes : %d@." (Hdb.Audit_store.naive_bytes store);
  Fmt.pr "dictionary-encoded    : %d@." (Hdb.Audit_store.encoded_bytes store)
