(* enforce: clinicians' queries under Active Enforcement.

   Set-up loads a records table of generated patients with category
   mappings and consent opt-outs, on central durable storage with group
   commit, and declares three tenant budget classes sized so the traffic
   sheds nothing.  The traffic is a seeded script of admitted queries
   (the read): patient point lookups, ward scans, break-glass accesses and
   role/purpose pairs the policy denies.  The simulated clock advances a
   fixed step per query and the WAL is synced every [sync_every] queries
   (the write). *)

module Sys_ = Prima_system.System
module Adm = Audit_mgmt.Admission
module H = Workload.Hospital
module V = Vocabulary

type scale = {
  patients : int;
  wards : int;
  queries : int;
  sync_every : int;
}

let full = { patients = 2_000; wards = 40; queries = 2_000; sync_every = 64 }
let small = { patients = 200; wards = 8; queries = 200; sync_every = 16 }

(* Clinical columns and the data category each holds; [ward] stays
   unmapped so scans can filter on it freely. *)
let columns =
  [ ("referral", "referral"); ("prescription", "prescription"); ("vitals", "vitals");
    ("lab_results", "lab-results"); ("allergies", "allergies"); ("psychiatry", "psychiatry");
    ("hiv_status", "hiv-status"); ("xray", "x-ray"); ("insurance", "insurance");
    ("address", "address"); ("phone", "phone");
  ]

let clock_step_ms = 5

type target =
  | Patient of string
  | Ward of string

type expect =
  | Permit of string list (* the columns expected masked *)
  | Deny
  | Break_glass

type query = {
  principal : Adm.principal;
  user : string;
  role : string;
  purpose : string;
  cols : (string * string) list; (* (column, category) *)
  target : target;
  break_glass : bool;
  expect : expect;
  sql : string;
}

type inputs = {
  scale : scale;
  config : H.config;
  rows : (string * string * string list) array; (* patient, ward, clinical values *)
  opt_outs : (string * string * string) list; (* patient, purpose, category *)
  script : query array;
}

let entries inputs = inputs.scale.queries

(* Tenants are role groups; each maps to its own budget class. *)
let tenant_of_role role =
  match role with
  | "doctor" | "psychiatrist" | "surgeon" | "radiologist" | "emergency-physician" -> "physicians"
  | "nurse" | "head-nurse" | "nurse-assistant" -> "nursing"
  | _ -> "support"

let tenants = [ "physicians"; "nursing"; "support" ]

(* The independent permission model: some documented triple's subtree
   holds the category, purpose and role. *)
let permitted config ~role ~purpose category =
  let vocab = config.H.vocab in
  let under attr v leaf = List.mem leaf (V.Taxonomy.leaves_under (V.Vocab.taxonomy vocab attr) v) in
  List.exists
    (fun (d, p, a) ->
      under V.Audit_attrs.data d category
      && under V.Audit_attrs.purpose p purpose
      && under V.Audit_attrs.authorized a role)
    config.H.documented

let generate ~seed scale =
  let config = H.default_config ~seed () in
  let vocab = config.H.vocab in
  let rng = Splitmix.create ~seed:(seed + 2) in
  let leaves attr v = V.Taxonomy.leaves_under (V.Vocab.taxonomy vocab attr) v in
  let staffed role = H.users_of_role config role <> [] in
  let patient i = Printf.sprintf "p%05d" i in
  let ward i = Printf.sprintf "w%02d" i in
  let rows =
    Array.init scale.patients (fun i ->
        ( patient i,
          ward (Splitmix.int rng scale.wards),
          List.map (fun (c, _) -> Printf.sprintf "%s-%d" c (Splitmix.int rng 1000)) columns ))
  in
  let purposes = leaves V.Audit_attrs.purpose "administering-healthcare" in
  let opt_outs =
    List.concat_map
      (fun i ->
        if Splitmix.float rng < 0.05 then
          List.init
            (1 + Splitmix.int rng 2)
            (fun _ -> (patient i, Splitmix.pick rng purposes, snd (Splitmix.pick rng columns)))
        else [])
      (List.init scale.patients Fun.id)
  in
  let target () =
    if Splitmix.bool rng ~probability:0.55 then Patient (patient (Splitmix.int rng scale.patients))
    else Ward (ward (Splitmix.int rng scale.wards))
  in
  let col_of category = List.find (fun (_, c) -> String.equal c category) columns in
  let has_col category = List.exists (fun (_, c) -> String.equal c category) columns in
  let query i ~role ~purpose ~cols ~break_glass ~expect =
    let user = Splitmix.pick rng (H.users_of_role config role) in
    let target = target () in
    let where =
      match target with
      | Patient p -> Printf.sprintf "patient = '%s'" p
      | Ward w -> Printf.sprintf "ward = '%s'" w
    in
    { principal =
        Adm.principal ~tenant:(tenant_of_role role) ~user ~session:user
          ~request:(string_of_int i) ();
      user;
      role;
      purpose;
      cols;
      target;
      break_glass;
      expect;
      sql =
        Printf.sprintf "SELECT patient, %s FROM records WHERE %s"
          (String.concat ", " (List.map fst cols)) where;
    }
  in
  let rec draw i =
    let r = Splitmix.float rng in
    if r < 0.10 then begin
      (* break-glass: an informal practice the policy does not document *)
      let p = Splitmix.pick rng config.H.informal in
      query i ~role:p.H.authorized ~purpose:p.H.purpose ~cols:[ col_of p.H.data ] ~break_glass:true
        ~expect:Break_glass
    end
    else if r < 0.20 then begin
      (* an expected denial: nothing requested is permitted *)
      let role =
        Splitmix.pick rng (List.filter staffed (leaves V.Audit_attrs.authorized "staff"))
      in
      let purpose = Splitmix.pick rng purposes in
      match List.filter (fun (_, c) -> not (permitted config ~role ~purpose c)) columns with
      | [] -> draw i
      | denied ->
        query i ~role ~purpose ~cols:[ Splitmix.pick rng denied ] ~break_glass:false ~expect:Deny
    end
    else begin
      let d, p, a = Splitmix.pick rng config.H.documented in
      let role = Splitmix.pick rng (List.filter staffed (leaves V.Audit_attrs.authorized a)) in
      let purpose = Splitmix.pick rng (leaves V.Audit_attrs.purpose p) in
      let allowed = List.map col_of (List.filter has_col (leaves V.Audit_attrs.data d)) in
      let cols = [ Splitmix.pick rng allowed ] in
      let masked =
        List.filter (fun (_, c) -> not (permitted config ~role ~purpose c)) columns
      in
      let cols =
        if masked <> [] && Splitmix.bool rng ~probability:0.3 then
          cols @ [ Splitmix.pick rng masked ]
        else cols
      in
      let cols = List.sort_uniq compare cols in
      let expect =
        Permit
          (List.sort compare
             (List.filter_map
                (fun (col, c) -> if permitted config ~role ~purpose c then None else Some col)
                cols))
      in
      query i ~role ~purpose ~cols ~break_glass:false ~expect
    end
  in
  { scale; config; rows; opt_outs; script = Array.init scale.queries draw }

(* A declared cost that covers a full scan of the table, so no grant's
   limits fire; the classes refill faster than the traffic drains them. *)
let cost inputs =
  let n = inputs.scale.patients in
  Adm.cost ~rows:n ~tuples:(2 * n) ~ticks:(4 * n) ()

let classes inputs =
  let c = cost inputs in
  let quota n = Adm.quota ~capacity:(64 * n) ~refill_per_s:(400 * n) () in
  List.map
    (fun tenant ->
      ( tenant,
        Adm.class_config ~rows:(quota c.Adm.c_rows) ~tuples:(quota c.Adm.c_tuples)
          ~ticks:(quota c.Adm.c_ticks) () ))
    tenants

let setup inputs =
  let config = inputs.config in
  let sys =
    Sys_.create ~storage:(Replay.central_storage ()) ~vocab:config.H.vocab
      ~p_ps:(H.policy_store config) ()
  in
  Sys_.set_group_commit sys true;
  let control = Sys_.control sys in
  ignore
    (Hdb.Control_center.admin_exec control
       (Printf.sprintf "CREATE TABLE records (patient TEXT, ward TEXT, %s)"
          (String.concat ", " (List.map (fun (c, _) -> c ^ " TEXT") columns))));
  let engine = Hdb.Control_center.engine control in
  Array.iter
    (fun (patient, ward, values) ->
      Relational.Engine.insert_row engine ~table:"records"
        (List.map (fun s -> Relational.Value.Str s) (patient :: ward :: values)))
    inputs.rows;
  Hdb.Control_center.set_patient_column control ~table:"records" ~column:"patient";
  List.iter
    (fun (column, category) ->
      Hdb.Control_center.map_column control ~table:"records" ~column ~category)
    columns;
  List.iter
    (fun (patient, purpose, data) -> Hdb.Control_center.opt_out control ~patient ~purpose ~data)
    inputs.opt_outs;
  Sys_.set_budget_classes sys (classes inputs);
  List.iter (fun tenant -> Sys_.assign_tenant sys ~tenant ~class_name:tenant) tenants;
  sys

(* Rows the model expects: the target's patients minus, unless the glass
   was broken, those who opted out of a disclosed use. *)
let expected_patients inputs q =
  let excluded patient =
    (not q.break_glass)
    && List.exists
         (fun (p, purpose, c) ->
           String.equal p patient && String.equal purpose q.purpose
           && List.exists
                (fun (col, cat) ->
                  String.equal cat c
                  && (match q.expect with Permit masked -> not (List.mem col masked) | _ -> true))
                q.cols)
         inputs.opt_outs
  in
  Array.to_list inputs.rows
  |> List.filter_map (fun (patient, ward, _) ->
         let hit =
           match q.target with Patient p -> String.equal p patient | Ward w -> String.equal w ward
         in
         if hit && not (excluded patient) then Some patient else None)
  |> List.sort compare

let check_outcome loop inputs i q result =
  let label = Printf.sprintf "query %d (%s/%s)" i q.role q.purpose in
  match q.expect, result with
  | Deny, Error (Sys_.Query_failed (Hdb.Enforcement.Denied _)) -> Loop.output loop "%d denied\n" i
  | _, Error (Sys_.Shed r) -> Loop.failed loop (label ^ " shed: " ^ Adm.rejection_to_string r)
  | _, Error (Sys_.Query_failed e) ->
    Loop.failed loop (label ^ " failed: " ^ Hdb.Enforcement.error_to_string e)
  | Deny, Ok _ -> Loop.problem loop ("check failed: " ^ label ^ " was not denied")
  | (Permit _ | Break_glass), Ok a ->
    let o = a.Sys_.outcome in
    let rows = o.Hdb.Enforcement.result.Relational.Executor.rows in
    let patients =
      List.sort compare
        (List.filter_map
           (fun row -> Relational.Value.as_string (Relational.Row.get row 0))
           rows)
    in
    let masked = List.sort compare o.Hdb.Enforcement.masked_columns in
    Loop.output loop "%d rows %d masked [%s] glass %b\n" i (List.length rows)
      (String.concat "," masked) o.Hdb.Enforcement.break_glass;
    Loop.check loop (not a.Sys_.browned_out) (label ^ " browned out");
    Loop.check loop (patients = expected_patients inputs q)
      (label ^ " returned rows other than the target's consenting patients");
    (match q.expect with
    | Permit expected ->
      Loop.check loop (masked = expected) (label ^ " masked columns differ from the mappings");
      Loop.check loop (not o.Hdb.Enforcement.break_glass) (label ^ " ran as break-glass")
    | Break_glass | Deny ->
      Loop.check loop o.Hdb.Enforcement.break_glass (label ^ " did not break the glass"))

let pass ~traced ~check:_ inputs =
  let loop = Loop.create () in
  let sys, setup_s = Loop.time (fun () -> setup inputs) in
  let cost = cost inputs in
  Array.iteri
    (fun i q ->
      Sys_.advance_clock sys clock_step_ms;
      let run () =
        let break_glass = q.break_glass and principal = q.principal in
        let user = q.user and role = q.role and purpose = q.purpose in
        if traced then
          Replay.enforce_admitted ~cost ~break_glass sys ~principal ~user ~role ~purpose q.sql
        else Sys_.enforce_admitted ~cost ~break_glass sys ~principal ~user ~role ~purpose q.sql
      in
      (match Loop.timed loop Loop.Read (fun () -> Trace.op "op.query" run) with
      | Some result -> check_outcome loop inputs i q result
      | None -> ());
      if (i + 1) mod inputs.scale.sync_every = 0 then
        ignore
          (Loop.timed loop Loop.Write (fun () ->
               Trace.op "op.flush" (fun () ->
                   Trace.span "durable.sync" (fun () -> Sys_.sync_durable sys)))))
    inputs.script;
  let store = Hdb.Control_center.audit_store (Sys_.control sys) in
  let wal = Durable.Log.wal_device (Option.get (Hdb.Audit_store.log store)) in
  let gov = Sys_.governance sys in
  Loop.finish loop ~setup_s
    ~counts:
      [ ("audit_entries", Hdb.Audit_store.length store);
        ("wal_bytes", Durable.Device.durable_size wal);
        ("syncs", Durable.Device.syncs wal);
        ("shed", gov.Sys_.shed_requests);
      ]
