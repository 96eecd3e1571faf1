(* Crash-safety tests for the durable layer: for every injected crash
   point, recovery must return a verified prefix of what was appended —
   never a reordered, corrupted or invented record — and everything synced
   before the crash must survive it (except a truncation that died
   mid-fsync, which is allowed to lose stable bytes but still only ever
   shortens the prefix).  On top of the device matrix: WAL -> snapshot ->
   WAL round-trips, quarantine persistence across a kill/restart, the
   payload decoders' reject branches, golden digests of every on-disk
   format, and the system-level downgrade of coverage to a lower bound
   after a dropped tail. *)

module C = Durable.Chain
module D = Durable.Device
module F = Durable.Frame
module L = Durable.Log
module R = Durable.Recovery
module Snap = Durable.Snapshot
module W = Durable.Wal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let matrix_seeds = [ 11; 22; 33 ]

let payload i = Printf.sprintf "record-%04d-%s" i (String.make (i mod 7) 'x')

let rec firstn n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: firstn (n - 1) tl

let is_prefix ~of_:whole part = part = firstn (List.length part) whole

(* Simulate a process restart: a fresh Log over the same (surviving)
   devices, as if the files were reopened. *)
let restart log = L.of_devices ~wal:(L.wal_device log) ~snapshot:(L.snapshot_device log)

(* Where the accepted records sit on stable media — tampering targets. *)
let data_spans image =
  List.filter (fun (_, _, k) -> k = F.Data) (W.frame_spans image)

(* --- the crash-point matrix --- *)

(* Append 30 records, sync after the 17th, crash at [point], recover.
   Verified-prefix invariant for every point; the synced prefix survives
   every point except Truncated_sync (which corrupts stable media by
   design). *)
let test_crash_matrix point seed () =
  let appended = List.init 30 payload in
  let synced = 17 in
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  List.iteri
    (fun i p ->
      ignore (L.append log p);
      if i = synced - 1 then L.sync log)
    appended;
  D.crash (L.wal_device log) ~point;
  let r = L.open_or_recover (restart log) in
  check_bool
    (Printf.sprintf "%s/%d: recovered a prefix" (D.crash_point_to_string point) seed)
    true
    (is_prefix ~of_:appended r.R.entries);
  if point <> D.Truncated_sync then
    check_bool
      (Printf.sprintf "%s/%d: synced prefix survived (%d >= %d)"
         (D.crash_point_to_string point) seed (List.length r.R.entries) synced)
      true
      (List.length r.R.entries >= synced);
  check_int "next LSN = recovered count" (List.length r.R.entries) r.R.next_lsn;
  (* zero false positives: crash damage lands in the unsynced tail, so no
     crash point may ever be classified as interior tampering *)
  check_bool
    (Printf.sprintf "%s/%d: crash damage never reads as tampering"
       (D.crash_point_to_string point) seed)
    false (R.tampered r)

(* After recovery, the log must accept appends again and a second restart
   must see them — the "recover, keep going, crash again" lifecycle. *)
let test_resume_after_crash point seed () =
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  List.iter (fun p -> ignore (L.append log p)) (List.init 12 payload);
  L.sync log;
  List.iter (fun p -> ignore (L.append log (p ^ "-unsynced"))) (List.init 6 payload);
  D.crash (L.wal_device log) ~point;
  let log2 = restart log in
  let r = L.open_or_recover log2 in
  let resumed_at = L.append log2 "post-crash" in
  check_int "append resumes at the recovered LSN" r.R.next_lsn resumed_at;
  L.sync log2;
  let r2 = L.open_or_recover (restart log2) in
  check_bool "second recovery is clean" true (R.clean r2);
  check_bool "post-crash record survived" true
    (r2.R.entries = r.R.entries @ [ "post-crash" ])

(* --- QCheck parity against an in-memory oracle --- *)

(* Random append/sync schedules, arbitrary payload bytes, one crash at the
   end.  Oracle: the plain list of appended payloads and how many of them
   had been synced.  Recovery must agree with the oracle's prefix. *)
let gen_schedule =
  let open QCheck2.Gen in
  let* seed = int_range 0 1000 in
  let* point = oneofl D.all_crash_points in
  let* sync_every = int_range 1 9 in
  let* payloads = list_size (int_range 1 40) (string_size ~gen:char (int_range 0 24)) in
  return (seed, point, sync_every, payloads)

let print_schedule (seed, point, sync_every, payloads) =
  Printf.sprintf "seed=%d point=%s sync_every=%d payloads=%d" seed
    (D.crash_point_to_string point)
    sync_every (List.length payloads)

let prop_recovery_matches_oracle =
  QCheck2.Test.make ~name:"recovery = verified prefix of the oracle" ~count:300
    ~print:print_schedule gen_schedule (fun (seed, point, sync_every, payloads) ->
      let log = L.create ~seed () in
      ignore (L.open_or_recover log);
      let synced = ref 0 in
      List.iteri
        (fun i p ->
          ignore (L.append log p);
          if (i + 1) mod sync_every = 0 then begin
            L.sync log;
            synced := i + 1
          end)
        payloads;
      D.crash (L.wal_device log) ~point;
      let r = L.open_or_recover (restart log) in
      is_prefix ~of_:payloads r.R.entries
      && (point = D.Truncated_sync || List.length r.R.entries >= !synced)
      && r.R.next_lsn = List.length r.R.entries)

(* --- checkpoint / snapshot --- *)

let test_wal_snapshot_wal_roundtrip () =
  let all = List.init 15 payload in
  let log = L.create ~seed:5 () in
  ignore (L.open_or_recover log);
  List.iter (fun p -> ignore (L.append log p)) (firstn 10 all);
  L.sync log;
  L.checkpoint log ~entries:(firstn 10 all);
  check_int "WAL truncated to header" Durable.Wal.header_size
    (D.durable_size (L.wal_device log));
  List.iteri (fun i p -> check_int "LSN continues" (10 + i) (L.append log p))
    (List.filteri (fun i _ -> i >= 10) all);
  L.sync log;
  let r = L.open_or_recover (restart log) in
  check_bool "clean" true (R.clean r);
  check_bool "snapshot + WAL stitch back to the full log" true (r.R.entries = all);
  check_int "snapshot contributed 10" 10 r.R.snapshot_entries;
  check_int "WAL contributed 5" 5 r.R.wal_entries;
  check_int "next LSN" 15 r.R.next_lsn

(* Crash in the checkpoint window: after the snapshot is written but
   before anything else happens, both the snapshot and the (already
   truncated) WAL must reconcile without losing or duplicating a record. *)
let test_crash_after_checkpoint () =
  List.iter
    (fun point ->
      let all = List.init 8 payload in
      let log = L.create ~seed:9 () in
      ignore (L.open_or_recover log);
      List.iter (fun p -> ignore (L.append log p)) all;
      L.sync log;
      L.checkpoint log ~entries:all;
      (* Nothing is unsynced here, so only stable-media damage can bite. *)
      D.crash (L.wal_device log) ~point;
      let r = L.open_or_recover (restart log) in
      check_bool
        (Printf.sprintf "%s after checkpoint: snapshot carries the log"
           (D.crash_point_to_string point))
        true
        (is_prefix ~of_:all r.R.entries);
      if point <> D.Truncated_sync then
        check_bool "whole log survived via the snapshot" true (r.R.entries = all))
    D.all_crash_points

(* A WAL overlapping its snapshot (the crash landed between snapshot sync
   and WAL reformat) must not duplicate the overlap. *)
let test_overlapping_wal_not_duplicated () =
  let all = List.init 12 payload in
  let wal = D.create ~seed:3 () in
  let snapshot = D.create ~seed:4 () in
  let log = L.of_devices ~wal ~snapshot in
  ignore (L.open_or_recover log);
  List.iter (fun p -> ignore (L.append log p)) all;
  L.sync log;
  (* Hand-write the snapshot as the checkpoint would — sealing the chain
     head at LSN 7 — then "crash" before the WAL reformat: the WAL still
     holds all 12 from LSN 0. *)
  let chain_at_7 =
    List.fold_left Durable.Chain.step Durable.Chain.zero (firstn 7 all)
  in
  Snap.write snapshot ~lsn:7 ~chain:chain_at_7 ~entries:(firstn 7 all);
  let r = L.open_or_recover (L.of_devices ~wal ~snapshot) in
  check_bool "clean" true (R.clean r);
  check_bool "no duplication across the overlap" true (r.R.entries = all);
  check_int "snapshot 7" 7 r.R.snapshot_entries;
  check_int "wal contributes only the suffix" 5 r.R.wal_entries

(* --- quarantine persistence --- *)

let raw_of i = [ ("user", Printf.sprintf "u%d" i); ("data", "referral") ]

let test_quarantine_survives_restart () =
  let log = L.create ~seed:21 () in
  let q = Audit_mgmt.Quarantine.create () in
  ignore (Audit_mgmt.Quarantine.restore q log);
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:1 ~raw:(raw_of 1) ~reason:"unmappable";
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:2 ~raw:(raw_of 2) ~reason:"corrupt";
  Audit_mgmt.Quarantine.add q ~site:"lab" ~seq:1 ~raw:(raw_of 3) ~reason:"unmappable";
  (* Resolve one: the removal must also survive the restart. *)
  Audit_mgmt.Quarantine.remove q ~site:"icu" ~seq:1;
  Audit_mgmt.Quarantine.sync q;
  let q2, r, undecodable = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_int "two items survived" 2 (Audit_mgmt.Quarantine.length q2);
  check_bool "resolution survived" false (Audit_mgmt.Quarantine.mem q2 ~site:"icu" ~seq:1);
  check_bool "items identical" true
    (Audit_mgmt.Quarantine.items q = Audit_mgmt.Quarantine.items q2)

let test_quarantine_checkpoint_and_crash () =
  let log = L.create ~seed:22 () in
  let q = Audit_mgmt.Quarantine.create () in
  ignore (Audit_mgmt.Quarantine.restore q log);
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:1 ~raw:(raw_of 1) ~reason:"unmappable";
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:2 ~raw:(raw_of 2) ~reason:"corrupt";
  Audit_mgmt.Quarantine.sync q;
  Audit_mgmt.Quarantine.checkpoint q;
  (* An unsynced mutation after the checkpoint is lost by a crash, but the
     checkpointed state must come back intact. *)
  Audit_mgmt.Quarantine.add q ~site:"lab" ~seq:9 ~raw:(raw_of 9) ~reason:"late";
  D.crash (L.wal_device log) ~point:D.Clean_loss;
  let q2, r, undecodable = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_int "no codec mismatches" 0 undecodable;
  check_int "checkpointed items back" 2 (Audit_mgmt.Quarantine.length q2);
  check_bool "unsynced late add lost" false (Audit_mgmt.Quarantine.mem q2 ~site:"lab" ~seq:9);
  check_int "snapshot carried them" 2 r.R.snapshot_entries

let test_quarantine_clear_is_durable () =
  let log = L.create ~seed:23 () in
  let q = Audit_mgmt.Quarantine.create () in
  ignore (Audit_mgmt.Quarantine.restore q log);
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:1 ~raw:(raw_of 1) ~reason:"unmappable";
  Audit_mgmt.Quarantine.clear q;
  Audit_mgmt.Quarantine.sync q;
  let q2, _, _ = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_int "clear survived" 0 (Audit_mgmt.Quarantine.length q2)

(* --- audit store persistence --- *)

let entry i =
  Hdb.Audit_schema.entry ~time:i
    ~op:(if i mod 5 = 0 then Hdb.Audit_schema.Disallow else Hdb.Audit_schema.Allow)
    ~user:(Printf.sprintf "user-%d" (i mod 3))
    ~data:"referral" ~purpose:"registration" ~authorized:"nurse"
    ~status:(if i mod 2 = 0 then Hdb.Audit_schema.Regular else Hdb.Audit_schema.Exception_based)

let test_audit_store_survives_restart () =
  let log = L.create ~seed:31 () in
  let store = Hdb.Audit_store.create () in
  ignore (Hdb.Audit_store.restore store log);
  let entries = List.init 20 entry in
  Hdb.Audit_store.append_all store entries;
  Hdb.Audit_store.sync store;
  let store2, r, undecodable = Hdb.Audit_store.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_bool "entries identical" true (Hdb.Audit_store.to_list store2 = entries);
  check_int "LSN continues" 20 (Hdb.Audit_store.lsn store2);
  (* checkpoint, extend, crash the unsynced tail, restart *)
  Hdb.Audit_store.checkpoint store2;
  Hdb.Audit_store.append store2 (entry 20);
  Hdb.Audit_store.sync store2;
  Hdb.Audit_store.append store2 (entry 21);
  (* not synced *)
  (match Hdb.Audit_store.log store2 with
  | Some log2 -> D.crash (L.wal_device log2) ~point:D.Torn_tail
  | None -> Alcotest.fail "store lost its log");
  let store3, r3, _ = Hdb.Audit_store.open_durable (restart log) in
  check_bool "synced 21 back" true
    (Hdb.Audit_store.to_list store3 = entries @ [ entry 20 ]
    || Hdb.Audit_store.to_list store3 = entries @ [ entry 20; entry 21 ]);
  check_int "snapshot carried the first 20" 20 r3.R.snapshot_entries

(* --- system level: dropped tail downgrades coverage --- *)

let scenario_entries () = Workload.Scenario.table1_entries ()

let test_system_recovery_and_lower_bound () =
  let audit_log = L.create ~seed:41 () in
  let quarantine_log = L.create ~seed:42 () in
  let storage = { Prima_system.System.audit_log; quarantine_log } in
  let vocab = Vocabulary.Samples.figure1 () in
  let p_ps = Workload.Scenario.policy_store () in
  (* Run 1: a durably-backed system accumulates a trail; part of it is
     synced, a tail is still in the page cache when the process dies. *)
  let system = Prima_system.System.create ~storage ~vocab ~p_ps () in
  check_bool "fresh storage recovers clean" false
    (Prima_system.System.durably_degraded system);
  let store = Hdb.Control_center.audit_store (Prima_system.System.control system) in
  let entries = scenario_entries () in
  Hdb.Audit_store.append_all store entries;
  Prima_system.System.sync_durable system;
  Hdb.Audit_store.append_all store (List.init 4 entry);
  D.crash (L.wal_device audit_log) ~point:D.Partial_header;
  (* Run 2: reopen the surviving media.  Partial_header always cuts inside
     an unsynced record's header, so the tail drop is guaranteed. *)
  let storage2 =
    { Prima_system.System.audit_log = restart audit_log;
      quarantine_log = restart quarantine_log;
    }
  in
  let system2 = Prima_system.System.create ~storage:storage2 ~vocab ~p_ps () in
  let recovery =
    match Prima_system.System.recovery system2 with
    | Some r -> r
    | None -> Alcotest.fail "no recovery report"
  in
  check_bool "audit tail dropped" true (R.dropped_tail recovery.Prima_system.System.audit);
  check_bool "system knows it is degraded" true
    (Prima_system.System.durably_degraded system2);
  let store2 = Hdb.Control_center.audit_store (Prima_system.System.control system2) in
  check_bool "synced trail survived" true
    (firstn (List.length entries) (Hdb.Audit_store.to_list store2) = entries);
  (* Even at completeness 1.0 the coverage label must be a lower bound:
     the trail on disk is a verified prefix, not certainly the history. *)
  let qc = Prima_system.System.coverage_qualified system2 in
  check_bool "window itself is complete" true
    (qc.Prima_system.System.health.Audit_mgmt.Health.completeness >= 1.0);
  (match qc.Prima_system.System.bag_semantics.Prima_core.Coverage.qualifier with
  | Prima_core.Coverage.Lower_bound _ -> ()
  | Prima_core.Coverage.Exact -> Alcotest.fail "dropped tail must downgrade to Lower_bound");
  match qc.Prima_system.System.set_semantics.Prima_core.Coverage.qualifier with
  | Prima_core.Coverage.Lower_bound _ -> ()
  | Prima_core.Coverage.Exact -> Alcotest.fail "dropped tail must downgrade to Lower_bound"

(* Tampering is surfaced all the way up: the system reports it, counts as
   durably degraded, amputates the trail at the divergence, and labels
   every coverage reading a lower bound. *)
let test_system_tamper_forces_lower_bound () =
  let audit_log = L.create ~seed:43 () in
  let quarantine_log = L.create ~seed:44 () in
  let storage = { Prima_system.System.audit_log; quarantine_log } in
  let vocab = Vocabulary.Samples.figure1 () in
  let p_ps = Workload.Scenario.policy_store () in
  let system = Prima_system.System.create ~storage ~vocab ~p_ps () in
  check_bool "fresh storage is untampered" false (Prima_system.System.tampered system);
  let store = Hdb.Control_center.audit_store (Prima_system.System.control system) in
  let entries = scenario_entries () in
  Hdb.Audit_store.append_all store entries;
  Prima_system.System.sync_durable system;
  (* interior mutation of an accepted record — the region crashes never touch *)
  let wal = L.wal_device audit_log in
  let off, _, _ = List.nth (data_spans (D.contents wal)) 1 in
  D.corrupt_stable wal ~pos:(off + F.header_size) ~bit:3;
  let storage2 =
    { Prima_system.System.audit_log = restart audit_log;
      quarantine_log = restart quarantine_log;
    }
  in
  let system2 = Prima_system.System.create ~storage:storage2 ~vocab ~p_ps () in
  check_bool "system reports the tampering" true (Prima_system.System.tampered system2);
  check_bool "tampering implies durably degraded" true
    (Prima_system.System.durably_degraded system2);
  let recovery =
    match Prima_system.System.recovery system2 with
    | Some r -> r
    | None -> Alcotest.fail "no recovery report"
  in
  (match recovery.Prima_system.System.audit.R.verdict with
  | R.Tamper_detected { offset } -> check_int "divergence at the mutated frame" off offset
  | v -> Alcotest.failf "expected tamper verdict, got %s" (R.verdict_to_string v));
  let store2 = Hdb.Control_center.audit_store (Prima_system.System.control system2) in
  check_bool "trail amputated just before the mutation" true
    (Hdb.Audit_store.to_list store2 = firstn 1 entries);
  let qc = Prima_system.System.coverage_qualified system2 in
  (match qc.Prima_system.System.set_semantics.Prima_core.Coverage.qualifier with
  | Prima_core.Coverage.Lower_bound _ -> ()
  | Prima_core.Coverage.Exact -> Alcotest.fail "tampered recovery must force Lower_bound");
  match qc.Prima_system.System.bag_semantics.Prima_core.Coverage.qualifier with
  | Prima_core.Coverage.Lower_bound _ -> ()
  | Prima_core.Coverage.Exact -> Alcotest.fail "tampered recovery must force Lower_bound"

(* The adaptive completeness gate: the configured floor applies in full to
   a large window, scaled down on a small one. *)
let test_adaptive_threshold_scales () =
  let vocab = Vocabulary.Samples.figure1 () in
  let p_ps = Workload.Scenario.policy_store () in
  let system = Prima_system.System.create ~completeness_threshold:0.9 ~vocab ~p_ps () in
  check_bool "small window floor is below the configured threshold" true
    (Prima_system.System.effective_threshold system < 0.9);
  (* effective = 0.9 * n / (n + 25): half the configured value at n = 25,
     converging towards 0.9 as n grows. *)
  let eps = 1e-9 in
  let eff n = 0.9 *. float_of_int n /. float_of_int (n + 25) in
  check_bool "n=25 halves the floor" true (abs_float (eff 25 -. 0.45) < eps);
  check_bool "monotone in window size" true (eff 100 > eff 25 && eff 10_000 > eff 100);
  check_bool "bounded by the configured threshold" true (eff 1_000_000 < 0.9)

(* --- tamper evidence: interior mutation of sealed media --- *)

(* A sealed log: [n] records appended and synced, so every data frame on
   stable media precedes a seal frame — the region a crash can never
   damage, and exactly where a tampering mutation must be caught. *)
let sealed_log ~seed ~n ~sync_every =
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  List.iteri
    (fun i p ->
      ignore (L.append log p);
      if (i + 1) mod sync_every = 0 || i = n - 1 then L.sync log)
    (List.init n payload);
  log

(* The corrupted-length case: flip a bit inside the length field of an
   accepted (stable, sealed) frame.  The CRC covers the length bytes, so a
   reframed scan cannot silently resynchronise — the verdict is tampering
   at exactly that frame, twice over, and adopting the log amputates the
   trail just before it, after which life goes on and the evidence is
   consumed. *)
let test_tamper_corrupted_length seed () =
  let all = List.init 12 payload in
  let log = sealed_log ~seed ~n:12 ~sync_every:5 in
  let wal = L.wal_device log and snap = L.snapshot_device log in
  let idx = 6 in
  let off, _, _ = List.nth (data_spans (D.contents wal)) idx in
  D.corrupt_stable wal ~pos:(off + (seed mod 4)) ~bit:(seed mod 8);
  let r1 = R.run ~wal ~snapshot:snap () in
  (match r1.R.verdict with
  | R.Tamper_detected { offset } ->
    check_int (Printf.sprintf "seed %d: divergence at the frame start" seed) off offset
  | v -> Alcotest.failf "seed %d: expected tamper, got %s" seed (R.verdict_to_string v));
  check_int "scan stopped dead at the mutated record" idx r1.R.wal_records;
  check_bool "mutated record never surfaced" true (r1.R.entries = firstn idx all);
  (* read-only verification is idempotent *)
  let r2 = R.run ~wal ~snapshot:snap () in
  check_bool "verdict idempotent" true (r1.R.verdict = r2.R.verdict);
  (* adoption: reopen truncates at the divergence and reseals *)
  let log2 = restart log in
  let r3 = L.open_or_recover log2 in
  check_bool "open still reports the tampering" true (R.tampered r3);
  check_bool "adopted trail is the amputated prefix" true (r3.R.entries = firstn idx all);
  ignore (L.append log2 "after-tamper");
  L.sync log2;
  let r4 = L.open_or_recover (restart log2) in
  check_bool "evidence consumed: next recovery is clean" true
    (R.clean r4 && not (R.tampered r4));
  check_bool "trail continues past the amputation" true
    (r4.R.entries = firstn idx all @ [ "after-tamper" ])

(* Mutating the already-synced header is tampering too: a crash cannot
   touch it, and the seals further in prove the file once verified. *)
let test_tamper_header_magic () =
  let log = sealed_log ~seed:77 ~n:8 ~sync_every:3 in
  let wal = L.wal_device log and snap = L.snapshot_device log in
  D.corrupt_stable wal ~pos:2 ~bit:1;
  let r = R.run ~wal ~snapshot:snap () in
  check_bool "mutilated magic reads as tampering" true (R.tampered r);
  check_bool "nothing surfaced from the unreadable file" true (r.R.entries = [])

let test_tamper_base_chain () =
  let log = sealed_log ~seed:78 ~n:8 ~sync_every:3 in
  let wal = L.wal_device log and snap = L.snapshot_device log in
  (* base_chain lives right after magic + base_lsn; flipping it breaks the
     first data frame's chain link *)
  D.corrupt_stable wal ~pos:(String.length W.magic + 8) ~bit:0;
  let r = R.run ~wal ~snapshot:snap () in
  match r.R.verdict with
  | R.Tamper_detected { offset } -> check_int "divergence at the first frame" W.header_size offset
  | v -> Alcotest.failf "expected tamper, got %s" (R.verdict_to_string v)

(* Pinned hole: Frame.get_u64 folds 64 stored bits into a 63-bit OCaml
   int, so a set bit 63 of either header u64 would vanish in the parse —
   and the header has no CRC.  Found by prop_single_bitflip_caught
   (seed=11 n=8 sync_every=4 pos_pick=40941 bit=7: bit 63 of base_lsn);
   read_header now rejects a top byte with either high bit set. *)
let test_tamper_header_high_bits () =
  List.iter
    (fun (name, field_offset) ->
      let lo = String.length W.magic + field_offset in
      List.iter
        (fun bit ->
          let log = sealed_log ~seed:80 ~n:8 ~sync_every:4 in
          let wal = L.wal_device log and snap = L.snapshot_device log in
          D.corrupt_stable wal ~pos:(lo + 7) ~bit;
          let r = R.run ~wal ~snapshot:snap () in
          check_bool
            (Printf.sprintf "bit %d of %s top byte reads as tampering" bit name)
            true (R.tampered r))
        [ 6; 7 ])
    [ ("base_lsn", 0); ("base_chain", 8) ]

(* The cross-device anchor: a snapshot whose sealed chain head the WAL's
   header cannot reproduce means one side's history was rewritten. *)
let test_tamper_snapshot_anchor () =
  let all = List.init 10 payload in
  let log = L.create ~seed:79 () in
  ignore (L.open_or_recover log);
  List.iter (fun p -> ignore (L.append log p)) (firstn 6 all);
  L.sync log;
  L.checkpoint log ~entries:(firstn 6 all);
  List.iter (fun p -> ignore (L.append log p)) (List.filteri (fun i _ -> i >= 6) all);
  L.sync log;
  (* flip one bit of the snapshot header's chain field *)
  D.corrupt_stable (L.snapshot_device log) ~pos:(String.length Snap.magic + 8) ~bit:4;
  let r = R.run ~wal:(L.wal_device log) ~snapshot:(L.snapshot_device log) () in
  match r.R.verdict with
  | R.Tamper_detected { offset } ->
    check_int "divergence points at the chain anchor" (String.length W.magic + 8) offset
  | v -> Alcotest.failf "expected anchor tamper, got %s" (R.verdict_to_string v)

let test_chain_hex_roundtrip () =
  List.iter
    (fun n ->
      match C.of_hex (C.to_hex n) with
      | Some m -> check_bool "hex round-trip" true (m = n)
      | None -> Alcotest.fail "to_hex produced unparseable hex")
    [ 0; 1; C.zero; C.step C.zero "x"; C.hash_string "payload" ];
  check_bool "garbage rejected" true (C.of_hex "not-hex-at-all!" = None);
  check_bool "short hex rejected" true (C.of_hex "abc" = None)

(* Satellite property: one bit flip at any sampled offset of a sealed WAL
   is caught — never a clean recovery — and a flip landing inside a data
   frame is classified as tampering at exactly that frame's offset, with
   the same verdict on a second verification.  Device seeds are the three
   fixed matrix seeds, so the damage streams are stable across runs. *)
let gen_tamper =
  let open QCheck2.Gen in
  let* seed = oneofl matrix_seeds in
  let* n = int_range 1 20 in
  let* sync_every = int_range 1 6 in
  let* pos_pick = int_range 0 100_000 in
  let* bit = int_range 0 7 in
  return (seed, n, sync_every, pos_pick, bit)

let print_tamper (seed, n, sync_every, pos_pick, bit) =
  Printf.sprintf "seed=%d n=%d sync_every=%d pos_pick=%d bit=%d" seed n sync_every pos_pick
    bit

let prop_single_bitflip_caught =
  QCheck2.Test.make ~name:"single bit flip on a sealed WAL is caught" ~count:300
    ~print:print_tamper gen_tamper (fun (seed, n, sync_every, pos_pick, bit) ->
      let log = sealed_log ~seed ~n ~sync_every in
      let wal = L.wal_device log and snap = L.snapshot_device log in
      let image = D.contents wal in
      let pos = pos_pick mod String.length image in
      D.corrupt_stable wal ~pos ~bit;
      let r1 = R.run ~wal ~snapshot:snap () in
      let r2 = R.run ~wal ~snapshot:snap () in
      let caught = not (R.clean r1) in
      let idempotent = r1.R.verdict = r2.R.verdict in
      let correct_offset =
        match
          List.find_opt
            (fun (off, len, _) -> pos >= off && pos < off + len)
            (data_spans image)
        with
        | Some (off, _, _) -> r1.R.verdict = R.Tamper_detected { offset = off }
        | None -> true (* header or seal bytes: caught above, offset unconstrained *)
      in
      caught && idempotent && correct_offset)

(* --- background checkpointing --- *)

(* The log compacts itself once the WAL exceeds the policy.  The image
   callback mirrors the write-ahead discipline of the real stores: memory
   is updated only after the append returns, so at trigger time (before
   the new payload is logged) the image covers exactly the WAL contents. *)
let test_auto_checkpoint_records () =
  let log = L.create ~seed:51 () in
  ignore (L.open_or_recover log);
  let mem = ref [] in
  L.set_auto_checkpoint log (L.checkpoint_every ~records:5 ()) (fun () -> !mem);
  let appended = List.init 23 payload in
  List.iter
    (fun p ->
      ignore (L.append log p);
      mem := !mem @ [ p ])
    appended;
  L.sync log;
  (* Trigger fires before appends 6, 11, 16 and 21 (WAL at 5 records). *)
  check_int "auto checkpoints fired" 4 (L.auto_checkpoints log);
  let r = L.open_or_recover (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_bool "nothing lost to compaction" true (r.R.entries = appended);
  check_int "snapshot carries the compacted prefix" 20 r.R.snapshot_entries;
  check_int "wal holds only the live tail" 3 r.R.wal_entries

let test_auto_checkpoint_bytes () =
  let log = L.create ~seed:52 () in
  ignore (L.open_or_recover log);
  let mem = ref [] in
  L.set_auto_checkpoint log (L.checkpoint_every ~bytes:50 ()) (fun () -> !mem);
  let appended = List.init 18 (Printf.sprintf "%010d") in
  List.iter
    (fun p ->
      ignore (L.append log p);
      mem := !mem @ [ p ])
    appended;
  L.sync log;
  (* 10-byte payloads against a 50-byte budget: fires before appends 6,
     11 and 16. *)
  check_int "auto checkpoints fired" 3 (L.auto_checkpoints log);
  let r = L.open_or_recover (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_bool "nothing lost to compaction" true (r.R.entries = appended);
  check_int "snapshot carries the compacted prefix" 15 r.R.snapshot_entries;
  (* clear_auto_checkpoint really detaches the policy *)
  let log2 = restart log in
  ignore (L.open_or_recover log2);
  L.set_auto_checkpoint log2 (L.checkpoint_every ~records:1 ()) (fun () -> !mem);
  L.clear_auto_checkpoint log2;
  ignore (L.append log2 "tail");
  check_int "cleared policy never fires" 0 (L.auto_checkpoints log2)

(* Crash during the auto-checkpointed lifecycle: whatever the WAL device
   loses, the snapshots written by the background policy sit on the other
   device and must bound the damage. *)
let test_crash_after_auto_checkpoint point seed () =
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  let mem = ref [] in
  L.set_auto_checkpoint log (L.checkpoint_every ~records:4 ()) (fun () -> !mem);
  let appended = List.init 14 payload in
  List.iter
    (fun p ->
      ignore (L.append log p);
      mem := !mem @ [ p ])
    appended;
  (* Triggers before appends 5, 9 and 13: snapshot covers 12, WAL holds 2
     unsynced records.  Crash only the WAL device. *)
  check_int "auto checkpoints fired" 3 (L.auto_checkpoints log);
  D.crash (L.wal_device log) ~point;
  let r = L.open_or_recover (restart log) in
  check_bool
    (Printf.sprintf "%s/%d: recovered a prefix" (D.crash_point_to_string point) seed)
    true
    (is_prefix ~of_:appended r.R.entries);
  if point <> D.Truncated_sync then
    check_bool
      (Printf.sprintf "%s/%d: snapshot floor held (%d >= 12)"
         (D.crash_point_to_string point) seed (List.length r.R.entries))
      true
      (List.length r.R.entries >= 12)

(* The store-level wiring: an audit store and a quarantine with the policy
   enabled compact themselves and still restart losslessly. *)
let test_audit_store_auto_checkpoint () =
  let log = L.create ~seed:53 () in
  let store, _, _ = Hdb.Audit_store.open_durable log in
  Hdb.Audit_store.enable_auto_checkpoint
    ~policy:(Durable.Log.checkpoint_every ~records:5 ()) store;
  let entries = List.init 17 entry in
  Hdb.Audit_store.append_all store entries;
  Hdb.Audit_store.sync store;
  check_bool "policy fired" true (L.auto_checkpoints log >= 2);
  let store2, r, undecodable = Hdb.Audit_store.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_bool "entries identical" true (Hdb.Audit_store.to_list store2 = entries);
  check_int "LSN continues" 17 (Hdb.Audit_store.lsn store2);
  check_bool "snapshot absorbed the prefix" true (r.R.snapshot_entries >= 10)

let test_quarantine_auto_checkpoint () =
  let log = L.create ~seed:54 () in
  let q, _, _ = Audit_mgmt.Quarantine.open_durable log in
  Audit_mgmt.Quarantine.enable_auto_checkpoint
    ~policy:(Durable.Log.checkpoint_every ~records:4 ()) q;
  for i = 1 to 13 do
    Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:i ~raw:(raw_of i) ~reason:"unmappable"
  done;
  (* Resolutions are ops too: they count against the policy and must not
     resurrect on restart even when compaction interleaves them. *)
  Audit_mgmt.Quarantine.remove q ~site:"icu" ~seq:2;
  Audit_mgmt.Quarantine.remove q ~site:"icu" ~seq:7;
  Audit_mgmt.Quarantine.sync q;
  check_bool "policy fired" true (L.auto_checkpoints log >= 2);
  let q2, r, undecodable = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_int "live items back" 11 (Audit_mgmt.Quarantine.length q2);
  check_bool "resolved item stayed resolved" false
    (Audit_mgmt.Quarantine.mem q2 ~site:"icu" ~seq:7);
  check_bool "items identical" true
    (Audit_mgmt.Quarantine.items q = Audit_mgmt.Quarantine.items q2)

let matrix name f =
  List.concat_map
    (fun point ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s %s seed %d" name (D.crash_point_to_string point) seed)
            `Quick (f point seed))
        matrix_seeds)
    D.all_crash_points

(* --- group-commit batching --- *)

(* With batching on, appends accumulate in user space — the device sees
   nothing until sync, which lands the whole batch as one write. *)
let test_group_commit_coalesces () =
  let log = L.create ~seed:44 () in
  ignore (L.open_or_recover log);
  let dev = L.wal_device log in
  let base_unsynced = D.unsynced dev in
  let base_syncs = D.syncs dev in
  L.set_group_commit log true;
  check_bool "mode reads back" true (L.group_commit log);
  for i = 0 to 9 do
    ignore (L.append log (payload i))
  done;
  check_int "appends pend in user space, not the page cache" base_unsynced
    (D.unsynced dev);
  check_int "ten records pending" 10 (L.pending_records log);
  L.sync log;
  check_int "sync drains the batch" 0 (L.pending_records log);
  check_int "one device sync covered all ten records" (base_syncs + 1) (D.syncs dev);
  let r = L.open_or_recover (restart log) in
  check_int "all ten durable" 10 (List.length r.R.entries)

(* Turning batching off flushes the pending batch to the page cache so
   nothing silently vanishes on the mode switch. *)
let test_group_commit_off_flushes () =
  let log = L.create ~seed:45 () in
  ignore (L.open_or_recover log);
  let dev = L.wal_device log in
  let base_unsynced = D.unsynced dev in
  L.set_group_commit log true;
  for i = 0 to 4 do
    ignore (L.append log (payload i))
  done;
  check_int "five pending" 5 (L.pending_records log);
  L.set_group_commit log false;
  check_int "switch-off flushes the batch" 0 (L.pending_records log);
  check_bool "bytes reached the page cache" true (D.unsynced dev > base_unsynced);
  L.sync log;
  let r = L.open_or_recover (restart log) in
  check_int "all five durable" 5 (List.length r.R.entries)

(* Checkpoint replaces the WAL object underneath the log; the batching mode
   must survive onto the fresh WAL. *)
let test_group_commit_survives_checkpoint () =
  let log = L.create ~seed:46 () in
  ignore (L.open_or_recover log);
  L.set_group_commit log true;
  for i = 0 to 4 do
    ignore (L.append log (payload i))
  done;
  L.checkpoint log ~entries:(List.init 5 payload);
  check_bool "mode survives the WAL replacement" true (L.group_commit log);
  ignore (L.append log (payload 99));
  check_int "appends still batch after checkpoint" 1 (L.pending_records log);
  L.sync log;
  let r = L.open_or_recover (restart log) in
  check_int "snapshot + post-checkpoint record" 6 (List.length r.R.entries)

(* Crash matrix under group commit: the pending batch is lost entirely —
   strictly within the durability contract — and since nothing unsynced
   ever reached the device, every crash point except the lying fsync
   recovers exactly the synced prefix. *)
let test_group_commit_crash_matrix point seed () =
  let appended = List.init 30 payload in
  let synced = 17 in
  let log = L.create ~seed () in
  ignore (L.open_or_recover log);
  L.set_group_commit log true;
  List.iteri
    (fun i p ->
      ignore (L.append log p);
      if i = synced - 1 then L.sync log)
    appended;
  D.crash (L.wal_device log) ~point;
  let r = L.open_or_recover (restart log) in
  check_bool
    (Printf.sprintf "gc/%s/%d: recovered a prefix" (D.crash_point_to_string point) seed)
    true
    (is_prefix ~of_:appended r.R.entries);
  if point <> D.Truncated_sync then
    check_int
      (Printf.sprintf "gc/%s/%d: exactly the synced batch survives"
         (D.crash_point_to_string point) seed)
      synced
      (List.length r.R.entries)

(* --- quarantine reprocess across a crash ---

   A site quarantines foreign records its mapping cannot read; the mapping
   fix arrives, and the process dies *between* the fix and the reprocess.
   After recovery the reprocess must run exactly once: a second reprocess
   and a full upstream retry of the original batch are both no-ops. *)

let foreign_raw i role_col =
  [
    ("time", string_of_int (i + 1));
    ("op", "allow");
    ("user", Printf.sprintf "u%d" i);
    ("data", "referral");
    ("purpose", "treatment");
    (role_col, "nurse");
    ("status", "btg");
  ]

let test_quarantine_reprocess_idempotent_across_crash () =
  let log = L.create ~seed:77 () in
  let q, _, _ = Audit_mgmt.Quarantine.open_durable log in
  let site = Audit_mgmt.Site.create ~quarantine:q ~name:"icu" () in
  (* "rolle" hides the authorized attribute from the identity mapping *)
  let batch = List.init 4 (fun i -> foreign_raw i "rolle") in
  let s = Audit_mgmt.Site.ingest_raw_batch site batch in
  check_int "all quarantined" 4 s.Audit_mgmt.Site.quarantined;
  Audit_mgmt.Quarantine.sync q;
  (* the mapping fix lands; the process dies before reprocessing runs *)
  D.crash (L.wal_device log) ~point:D.Clean_loss;
  let q2, r, undecodable = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "no codec mismatches" 0 undecodable;
  check_int "items survived the crash" 4 (Audit_mgmt.Quarantine.length q2);
  let fixed =
    Audit_mgmt.Mapping.create ~column_aliases:[ ("rolle", "authorized") ] ()
  in
  let site2 = Audit_mgmt.Site.create ~mapping:fixed ~quarantine:q2 ~name:"icu" () in
  let first = Audit_mgmt.Site.reprocess_quarantined site2 in
  check_int "reprocess ingests everything" 4 first.Audit_mgmt.Site.ingested;
  check_int "quarantine drained" 0 (Audit_mgmt.Quarantine.length q2);
  check_int "store holds the records" 4 (Audit_mgmt.Site.length site2);
  (* idempotence: a second reprocess is a no-op *)
  let second = Audit_mgmt.Site.reprocess_quarantined site2 in
  check_int "second reprocess ingests nothing" 0
    (Audit_mgmt.Site.summary_total second);
  (* and an upstream retry of the original batch at its original seqs is
     all duplicates — exactly-once across crash + reprocess *)
  let retry = Audit_mgmt.Site.ingest_raw_batch ~first_seq:0 site2 batch in
  check_int "retried batch is all duplicates" 4 retry.Audit_mgmt.Site.duplicates;
  check_int "store unchanged" 4 (Audit_mgmt.Site.length site2)

(* --- the shard manifest ---

   One checksummed catalogue frame behind a magic header.  The codec must
   round-trip arbitrary catalogues bit-for-bit, and any damage — a
   truncation at any byte, a flip of any bit — must make the whole image
   unreadable: the reader serves the full catalogue or none, never a
   half-catalogue.  Damage sweeps run per matrix seed so the device
   streams are stable across runs. *)

module M = Durable.Manifest

let gen_catalogue =
  let open QCheck2.Gen in
  let gen_shard =
    let* name = string_size ~gen:(char_range 'a' 'z') (int_range 0 12) in
    let* bucket = int_range 0 99 in
    let* lo = int_range 0 1_000_000 in
    let* span = int_range 0 10_000 in
    let* records = int_range 0 100_000 in
    let* chain = int_range 0 max_int in
    return
      { M.name = Printf.sprintf "%s#%d" name bucket;
        lo;
        hi = lo + span;
        records;
        chain;
      }
  in
  let* shards = list_size (int_range 0 12) gen_shard in
  return { M.shards }

let print_catalogue (t : M.t) = Format.asprintf "%a" M.pp t

let prop_manifest_roundtrip =
  QCheck2.Test.make ~name:"manifest encode/decode round-trip" ~count:300
    ~print:print_catalogue gen_catalogue (fun t -> M.decode (M.encode t) = Ok t)

(* A device holding [image] bytes, all synced — the state a manifest is
   read back from after a restart. *)
let device_of ~seed image =
  let dv = D.create ~seed () in
  D.append dv image;
  D.sync dv;
  dv

let sample_catalogue =
  { M.shards =
      [ { M.name = "icu#3"; lo = 30_000; hi = 39_992; records = 41; chain = 77 };
        { M.name = "icu#4"; lo = 40_001; hi = 49_871; records = 12; chain = 133 };
        { M.name = "lab#3"; lo = 30_505; hi = 39_404; records = 7; chain = 9 };
      ];
  }

let test_manifest_write_read seed () =
  let dv = D.create ~seed () in
  check_bool "empty device: no manifest yet" true (M.read dv = Ok None);
  M.write dv sample_catalogue;
  check_bool "reads back whole" true (M.read dv = Ok (Some sample_catalogue));
  (* a rewrite replaces, never appends *)
  let smaller = { M.shards = [ List.hd sample_catalogue.M.shards ] } in
  M.write dv smaller;
  check_bool "replaced wholesale" true (M.read dv = Ok (Some smaller))

(* Every proper truncation of the image is unreadable (the empty prefix is
   the one exception: indistinguishable from "no manifest yet", which is
   exactly the torn-write-from-scratch story — the store rebuilds). *)
let test_manifest_truncation seed () =
  let image = M.encode sample_catalogue in
  let n = String.length image in
  for cut = 0 to n - 1 do
    let dv = device_of ~seed (String.sub image 0 cut) in
    match M.read dv with
    | Ok None ->
      check_int "only the empty prefix reads as absent" 0 cut
    | Ok (Some _) ->
      Alcotest.failf "truncation at %d/%d served a catalogue" cut n
    | Error _ -> ()
  done

(* One flipped bit anywhere — magic, frame header, payload, CRC, chain —
   makes the image unreadable; the bit position is drawn per byte from the
   seeded stream so each matrix seed sweeps a different damage pattern. *)
let test_manifest_bitflip seed () =
  let image = M.encode sample_catalogue in
  let rng = Splitmix.create ~seed in
  String.iteri
    (fun pos _ ->
      let bit = Splitmix.int rng 8 in
      let dv = device_of ~seed image in
      D.corrupt_stable dv ~pos ~bit;
      match M.read dv with
      | Ok (Some t) when t = sample_catalogue ->
        (* the flip must actually change the byte, so this cannot happen *)
        Alcotest.failf "bit %d of byte %d read back as the intact catalogue" bit pos
      | Ok (Some _) -> Alcotest.failf "bit %d of byte %d served a catalogue" bit pos
      | Ok None -> Alcotest.failf "bit %d of byte %d read as an empty device" bit pos
      | Error _ -> ())
    image

let manifest_matrix name f =
  List.map
    (fun seed ->
      Alcotest.test_case (Printf.sprintf "%s, seed %d" name seed) `Quick (f seed))
    matrix_seeds

(* --- golden format: the on-disk bytes of every payload codec --- *)

(* A fixed script over every durable component — site ops E/S/P/Q/R/N,
   quarantine ops A/R/C, audit entries with and without provenance, a
   checkpoint each, and a manifest write — must produce WAL, snapshot and
   manifest images with these exact digests.  A codec change that moves a
   single byte fails here before it can strand an existing log. *)

let golden_entry ?provenance i =
  let e =
    Hdb.Audit_schema.entry ~time:(100 + i)
      ~op:(if i mod 2 = 0 then Hdb.Audit_schema.Allow else Hdb.Audit_schema.Disallow)
      ~user:(Printf.sprintf "user-%d" i) ~data:"referral" ~purpose:"treatment"
      ~authorized:"nurse"
      ~status:(if i mod 3 = 0 then Hdb.Audit_schema.Exception_based else Hdb.Audit_schema.Regular)
  in
  match provenance with
  | None -> e
  | Some parent ->
    Hdb.Audit_schema.with_provenance ~session:"s-1" ~request:(Printf.sprintf "r-%d" i)
      ?parent ~changed:[ "purpose"; "status" ] e

let golden_raw ?(authorized = "authorized") i =
  [ ("time", string_of_int (200 + i)); ("op", "1"); ("user", Printf.sprintf "raw-%d" i);
    ("data", "x-ray"); ("purpose", "registration"); (authorized, "clerk"); ("status", "1") ]

let images log =
  (D.contents (L.wal_device log), D.contents (L.snapshot_device log))

let hex s = Digest.to_hex (Digest.string s)

let golden_site () =
  let log = L.create ~seed:90 () in
  let site = Audit_mgmt.Site.create ~name:"icu" () in
  Audit_mgmt.Site.attach_wal site log;
  (* 'E' without and with provenance *)
  Audit_mgmt.Site.ingest_entries site
    [ golden_entry 1; golden_entry ~provenance:(Some 7) 2 ];
  (* 'N', 'S', 'Q' ("rolle" hides the authorized attribute) *)
  ignore
    (Audit_mgmt.Site.ingest_raw_batch site
       [ golden_raw 1; golden_raw ~authorized:"rolle" 2; golden_raw 3 ]);
  (* the snapshot re-encodes live state as 'E' + 'P' + 'Q' + 'N' *)
  Audit_mgmt.Site.checkpoint_wal site;
  (* 'R' then a fresh 'Q': the record still does not map *)
  ignore (Audit_mgmt.Site.reprocess_quarantined site);
  ignore (Audit_mgmt.Site.ingest_raw_batch site [ golden_raw 4 ]);
  Audit_mgmt.Site.ingest_entries site [ golden_entry ~provenance:None 5 ];
  Audit_mgmt.Site.sync_wal site;
  (site, log)

let golden_quarantine () =
  let log = L.create ~seed:91 () in
  let q = Audit_mgmt.Quarantine.create () in
  Audit_mgmt.Quarantine.attach_log q log;
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:1 ~raw:(golden_raw 1) ~reason:"unmappable";
  Audit_mgmt.Quarantine.add q ~site:"lab" ~seq:2 ~raw:[] ~reason:"corrupt";
  Audit_mgmt.Quarantine.checkpoint q;
  Audit_mgmt.Quarantine.remove q ~site:"icu" ~seq:1;
  Audit_mgmt.Quarantine.clear q;
  Audit_mgmt.Quarantine.add q ~site:"rad" ~seq:3 ~raw:(golden_raw 3) ~reason:"late";
  Audit_mgmt.Quarantine.sync q;
  (q, log)

let golden_audit () =
  let log = L.create ~seed:92 () in
  let store = Hdb.Audit_store.create () in
  Hdb.Audit_store.attach_log store log;
  Hdb.Audit_store.append_all store
    [ golden_entry 1; golden_entry ~provenance:(Some 3) 2; golden_entry ~provenance:None 3 ];
  Hdb.Audit_store.checkpoint store;
  Hdb.Audit_store.append_all store [ golden_entry 4; golden_entry ~provenance:(Some 4) 5 ];
  Hdb.Audit_store.sync store;
  (store, log)

let golden_manifest =
  { Durable.Manifest.shards =
      [ { Durable.Manifest.name = "icu#0"; lo = 101; hi = 105; records = 5; chain = 0x2a2a2a };
        { Durable.Manifest.name = "lab#3"; lo = 30_000; hi = 39_999; records = 0; chain = 0 };
      ];
  }

let test_golden_format () =
  let site, site_log = golden_site () in
  let q, q_log = golden_quarantine () in
  let store, audit_log = golden_audit () in
  let manifest = D.create ~seed:93 () in
  Durable.Manifest.write manifest golden_manifest;
  let site_wal, site_snap = images site_log in
  let q_wal, q_snap = images q_log in
  let audit_wal, audit_snap = images audit_log in
  let check_digest what expected image =
    Alcotest.(check string) (what ^ " digest") expected (hex image)
  in
  check_digest "site wal" "1ddc32e2e17ac16dc396bc87290a9a4c" site_wal;
  check_digest "site snapshot" "8de0bde6fb4a032b78f01919936f702c" site_snap;
  check_digest "quarantine wal" "8f8a7f02ec255b97639bfe0beb9a7fb9" q_wal;
  check_digest "quarantine snapshot" "e60312da3adecfb5d1338da65bbaa12b" q_snap;
  check_digest "audit wal" "2bf2f4bae3a13f9fd26339d061e7bdc0" audit_wal;
  check_digest "audit snapshot" "9dec1053ca3fe6ca49762a598d4a6189" audit_snap;
  check_digest "manifest" "945cba0e991931437f7169ef046c1ac4" (D.contents manifest);
  (* and the images restore the script's state *)
  let site', r, undecodable = Audit_mgmt.Site.open_durable ~name:"icu" (restart site_log) in
  check_bool "site clean" true (R.clean r);
  check_int "site decodes" 0 undecodable;
  check_bool "site entries" true
    (Audit_mgmt.Site.entries site' = Audit_mgmt.Site.entries site);
  check_bool "site quarantine" true
    (Audit_mgmt.Quarantine.items (Audit_mgmt.Site.quarantine site')
    = Audit_mgmt.Quarantine.items (Audit_mgmt.Site.quarantine site));
  check_int "site next_seq" (Audit_mgmt.Site.next_seq site) (Audit_mgmt.Site.next_seq site');
  let retry = Audit_mgmt.Site.ingest_raw_batch ~first_seq:0 site' (List.init 4 golden_raw) in
  check_int "site ledger: the replayed batch is all duplicates" 4
    retry.Audit_mgmt.Site.duplicates;
  let q', r, undecodable = Audit_mgmt.Quarantine.open_durable (restart q_log) in
  check_bool "quarantine clean" true (R.clean r);
  check_int "quarantine decodes" 0 undecodable;
  check_bool "quarantine items" true
    (Audit_mgmt.Quarantine.items q' = Audit_mgmt.Quarantine.items q);
  let store', r, undecodable = Hdb.Audit_store.open_durable (restart audit_log) in
  check_bool "audit clean" true (R.clean r);
  check_int "audit decodes" 0 undecodable;
  check_bool "audit entries" true
    (Hdb.Audit_store.to_list store' = Hdb.Audit_store.to_list store);
  check_bool "manifest reads back" true
    (Durable.Manifest.read manifest = Ok (Some golden_manifest))

(* --- decoder reject branches --- *)

(* Checksum-valid payloads that do not decode — truncated, one trailing
   byte, an unknown opcode, a u64 with bit 63 set — are each counted as
   undecodable by restore, never replayed as something else.  One good
   op first shows the rest of the log still replays. *)

let u64_bit63 = "\001\000\000\000\000\000\000\128" (* 1 + 2^63, little-endian *)

let with_str s =
  let buffer = Buffer.create 16 in
  F.put_u32 buffer (String.length s);
  Buffer.add_string buffer s;
  Buffer.contents buffer

let seq_bytes n =
  let buffer = Buffer.create 8 in
  F.put_u64 buffer n;
  Buffer.contents buffer

let append_synced log payloads =
  List.iter (fun p -> ignore (L.append log p)) payloads;
  L.sync log

let test_audit_store_rejects () =
  let good = Hdb.Audit_schema.to_wire (entry 1) in
  (* the audit entry wire has no u64 field: time and parent are decimal *)
  let bad =
    [ String.sub good 0 (String.length good - 1);
      good ^ "x";
      "\002" ^ String.sub good 1 (String.length good - 1) (* op byte beyond Allow *);
    ]
  in
  let log = L.create ~seed:94 () in
  append_synced log (good :: bad);
  let store, r, undecodable = Hdb.Audit_store.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "every malformed payload counted" (List.length bad) undecodable;
  check_bool "the good entry replayed" true (Hdb.Audit_store.to_list store = [ entry 1 ])

let test_quarantine_rejects () =
  let remove = "R" ^ seq_bytes 1 ^ with_str "icu" in
  let bad =
    [ String.sub remove 0 (String.length remove - 1);
      "Cx";
      "Z";
      "R" ^ u64_bit63 ^ with_str "icu";
    ]
  in
  let log = L.create ~seed:95 () in
  let q = Audit_mgmt.Quarantine.create () in
  Audit_mgmt.Quarantine.attach_log q log;
  Audit_mgmt.Quarantine.add q ~site:"icu" ~seq:1 ~raw:(raw_of 1) ~reason:"unmappable";
  append_synced log bad;
  let q2, r, undecodable = Audit_mgmt.Quarantine.open_durable (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "every malformed payload counted" (List.length bad) undecodable;
  check_bool "bit 63 did not remove seq 1" true (Audit_mgmt.Quarantine.mem q2 ~site:"icu" ~seq:1)

let test_site_rejects () =
  let bad =
    [ "P" ^ String.sub (seq_bytes 5) 0 7;
      "N" ^ seq_bytes 5 ^ "x";
      "Z";
      "P" ^ u64_bit63;
    ]
  in
  let log = L.create ~seed:96 () in
  let site = Audit_mgmt.Site.create ~name:"icu" () in
  Audit_mgmt.Site.attach_wal site log;
  Audit_mgmt.Site.ingest_entries site [ entry 1 ];
  append_synced log bad;
  let site', r, undecodable = Audit_mgmt.Site.open_durable ~name:"icu" (restart log) in
  check_bool "clean recovery" true (R.clean r);
  check_int "every malformed payload counted" (List.length bad) undecodable;
  check_int "the good entry replayed" 1 (Audit_mgmt.Site.length site');
  check_int "bit 63 did not move the sequence floor" 0 (Audit_mgmt.Site.next_seq site');
  check_bool "undecodable ops degrade the site" true (Audit_mgmt.Site.durably_degraded site')

let () =
  Alcotest.run "durable"
    [ ("crash-matrix", matrix "prefix" test_crash_matrix);
      ("resume", matrix "resume" test_resume_after_crash);
      ("oracle", [ QCheck_alcotest.to_alcotest ~long:false prop_recovery_matches_oracle ]);
      ( "checkpoint",
        [ Alcotest.test_case "wal -> snapshot -> wal" `Quick test_wal_snapshot_wal_roundtrip;
          Alcotest.test_case "crash after checkpoint" `Quick test_crash_after_checkpoint;
          Alcotest.test_case "overlapping wal not duplicated" `Quick
            test_overlapping_wal_not_duplicated;
        ] );
      ( "quarantine",
        [ Alcotest.test_case "survives restart" `Quick test_quarantine_survives_restart;
          Alcotest.test_case "checkpoint + crash" `Quick test_quarantine_checkpoint_and_crash;
          Alcotest.test_case "clear is durable" `Quick test_quarantine_clear_is_durable;
        ] );
      ( "audit-store",
        [ Alcotest.test_case "survives restart" `Quick test_audit_store_survives_restart ] );
      ( "auto-checkpoint",
        [ Alcotest.test_case "records trigger" `Quick test_auto_checkpoint_records;
          Alcotest.test_case "bytes trigger" `Quick test_auto_checkpoint_bytes;
          Alcotest.test_case "audit store compaction" `Quick
            test_audit_store_auto_checkpoint;
          Alcotest.test_case "quarantine compaction" `Quick
            test_quarantine_auto_checkpoint;
        ] );
      ("auto-checkpoint-crash", matrix "auto-ckpt" test_crash_after_auto_checkpoint);
      ( "tamper",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "corrupted length, seed %d" seed)
              `Quick
              (test_tamper_corrupted_length seed))
          matrix_seeds
        @ [ Alcotest.test_case "mutilated header magic" `Quick test_tamper_header_magic;
            Alcotest.test_case "mutilated base chain" `Quick test_tamper_base_chain;
            Alcotest.test_case "header u64 high bits" `Quick test_tamper_header_high_bits;
            Alcotest.test_case "snapshot anchor mismatch" `Quick
              test_tamper_snapshot_anchor;
            Alcotest.test_case "chain hex round-trip" `Quick test_chain_hex_roundtrip;
            QCheck_alcotest.to_alcotest ~long:false prop_single_bitflip_caught;
          ] );
      ( "group-commit",
        Alcotest.test_case "coalesces into one device write" `Quick
          test_group_commit_coalesces
        :: Alcotest.test_case "switch-off flushes" `Quick test_group_commit_off_flushes
        :: Alcotest.test_case "mode survives checkpoint" `Quick
             test_group_commit_survives_checkpoint
        :: matrix "gc" test_group_commit_crash_matrix );
      ( "reprocess",
        [ Alcotest.test_case "idempotent across crash before reprocess" `Quick
            test_quarantine_reprocess_idempotent_across_crash ] );
      ( "manifest",
        (QCheck_alcotest.to_alcotest ~long:false prop_manifest_roundtrip
         :: manifest_matrix "write/read/replace" test_manifest_write_read)
        @ manifest_matrix "every truncation unreadable" test_manifest_truncation
        @ manifest_matrix "every bit flip unreadable" test_manifest_bitflip );
      ( "reject-branches",
        [ Alcotest.test_case "audit store" `Quick test_audit_store_rejects;
          Alcotest.test_case "quarantine" `Quick test_quarantine_rejects;
          Alcotest.test_case "site" `Quick test_site_rejects;
        ] );
      ( "golden-format",
        [ Alcotest.test_case "images byte-identical and restorable" `Quick test_golden_format ] );
      ( "system",
        [ Alcotest.test_case "dropped tail -> lower bound" `Quick
            test_system_recovery_and_lower_bound;
          Alcotest.test_case "tamper -> lower bound" `Quick
            test_system_tamper_forces_lower_bound;
          Alcotest.test_case "adaptive threshold" `Quick test_adaptive_threshold_scales;
        ] );
    ]
