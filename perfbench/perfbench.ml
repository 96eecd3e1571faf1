(* The repository benchmark: one workload per run, its outputs checked, its
   metrics printed by name with unit and sample count, and as the last
   line of standard output one JSON object with the keys correct,
   attempted, failed and metrics.

     perfbench --workload monitor|refine|enforce --seed N --seconds S --trace 0|1

   Every run first replays a shrunken copy of the workload twice on the
   same seed (the determinism self-test), then generates the inputs once
   and runs whole passes (a fresh set-up plus the workload's fixed script)
   until [--seconds] have elapsed.  With [--trace 0] it reports the
   end-to-end metrics.  With [--trace 1] it runs one untraced pass, then
   traced passes that replay System's calls with a span around each call
   into a library, asserts the traced outputs equal the untraced ones, and
   reports the per-layer metrics.  Spans are written to
   .perfbench/trace-<workload>-<seed>.jsonl. *)

type instance = {
  pass : traced:bool -> check:bool -> Loop.pass;
  setup : unit -> float; (* one more set-up, timed and discarded *)
  setup_reps : int; (* extra set-ups per run, so setup_s is a median *)
  items : int; (* generated audit entries, or queries for enforce *)
}

let instance name ~seed ~small =
  let pick full small_scale = if small then small_scale else full in
  match name with
  | "monitor" ->
    let i = Monitor.generate ~seed (pick Monitor.full Monitor.small) in
    { pass = (fun ~traced ~check -> Monitor.pass ~traced ~check i);
      setup = (fun () -> snd (Loop.time ~settle:true (fun () -> ignore (Monitor.setup i))));
      setup_reps = 4;
      items = Monitor.entries i;
    }
  | "refine" ->
    let i = Refine.generate ~seed (pick Refine.full Refine.small) in
    { pass = (fun ~traced ~check -> Refine.pass ~traced ~check i);
      setup = (fun () -> snd (Loop.time ~settle:true (fun () -> ignore (Refine.setup i))));
      setup_reps = 9;
      items = Refine.entries i;
    }
  | "enforce" ->
    let i = Enforce.generate ~seed (pick Enforce.full Enforce.small) in
    { pass = (fun ~traced ~check -> Enforce.pass ~traced ~check i);
      setup = (fun () -> snd (Loop.time (fun () -> ignore (Enforce.setup i))));
      setup_reps = 15;
      items = Enforce.entries i;
    }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* --- the determinism self-test ---------------------------------------- *)

(* A shrunken copy runs twice on one seed (and once traced): identical
   outputs and identical work counts, every check passing. *)
let selftest name ~seed =
  let inst = instance name ~seed ~small:true in
  let a = inst.pass ~traced:false ~check:true in
  let b = inst.pass ~traced:false ~check:true in
  Trace.enabled := true;
  let c = inst.pass ~traced:true ~check:true in
  Trace.enabled := false;
  Trace.reset ();
  let problems =
    (if a.Loop.digest <> b.Loop.digest then [ "outputs differ between repeat runs" ] else [])
    @ (if a.Loop.counts <> b.Loop.counts then [ "work counts differ between repeat runs" ] else [])
    @ (if a.Loop.digest <> c.Loop.digest then [ "traced outputs differ from untraced" ] else [])
    @ List.concat_map (fun p -> p.Loop.errors) [ a; b; c ]
    @ if a.Loop.failed + b.Loop.failed + c.Loop.failed > 0 then [ "failed operations" ] else []
  in
  List.map (fun p -> "self-test: " ^ p) problems

(* --- reporting ----------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int; (* samples behind the value *)
}

let metric ?(n = 1) name unit_ value = { name; value; unit_; n }

let json_number v = if Float.is_finite v then Printf.sprintf "%.12g" v else "null"

(* A metric without a value (no samples) makes the run incorrect. *)
let print_result ~correct ~attempted ~failed metrics =
  let correct = correct && List.for_all (fun m -> Float.is_finite m.value) metrics in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)

let print_table metrics =
  List.iter
    (fun m -> Printf.printf "  %-46s %14.4f %-6s (n=%d)\n" m.name m.value m.unit_ m.n)
    metrics

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let all f passes = List.concat_map f passes

(* Whole passes until [seconds] have elapsed, at least one; the first one
   also runs the output checks. *)
let run_passes ~seconds ~traced inst =
  let t0 = Loop.now () in
  let rec go k acc =
    if k > 0 && Loop.now () -. t0 >= seconds then List.rev acc
    else go (k + 1) (inst.pass ~traced ~check:(k = 0) :: acc)
  in
  go 0 []

let consistency passes =
  match passes with
  | [] -> [ "no pass ran" ]
  | p :: rest ->
    List.concat_map (fun p -> p.Loop.errors) passes
    @
    if List.for_all (fun q -> q.Loop.digest = p.Loop.digest) rest then []
    else [ "passes over the same inputs produced different outputs" ]

let count passes key =
  match passes with
  | [] -> 0.
  | p :: _ -> float_of_int (Option.value (List.assoc_opt key p.Loop.counts) ~default:0)

let ratio a b = if b > 0. then a /. b else 0.

(* The metrics every workload reports under the same names. *)
let end_to_end ~extra_setups passes =
  let reads = all (fun p -> p.Loop.reads_ms) passes in
  let writes = all (fun p -> p.Loop.writes_ms) passes in
  let setups = extra_setups @ List.map (fun p -> p.Loop.setup_s) passes in
  let busy = Stats.sum (List.map (fun p -> p.Loop.busy_s) passes) in
  let n_reads = List.length reads in
  [ metric "setup_s" "s" (Stats.median setups) ~n:(List.length setups);
    metric "peak_heap_mb" "MB" (peak_heap_mb ());
    metric "read_ms.p50" "ms" (Stats.median reads) ~n:n_reads;
    metric "write_ms.p50" "ms" (Stats.median writes) ~n:(List.length writes);
    metric "reads_per_s" "1/s" (float_of_int n_reads /. busy) ~n:n_reads;
  ]

(* The same passes under the workload's own names, with tails and the
   workload's other timed steps; printed, not part of the result line. *)
let workload_view name passes =
  let reads = all (fun p -> p.Loop.reads_ms) passes in
  let writes = all (fun p -> p.Loop.writes_ms) passes in
  let n = List.length reads in
  let read, write =
    match name with
    | "monitor" -> ("coverage_read_ms", "append_ms")
    | "refine" -> ("epoch_ms", "batch_append_ms")
    | _ -> ("query_ms", "flush_ms")
  in
  let extras =
    List.map
      (fun (key, _) ->
        let xs =
          all (fun p -> Option.value (List.assoc_opt key p.Loop.extras) ~default:[]) passes
        in
        metric (key ^ ".p50") "ms" (Stats.median xs) ~n:(List.length xs))
      (match passes with p :: _ -> p.Loop.extras | [] -> [])
  in
  let per_pass = List.map (fun p -> Stats.sum p.Loop.reads_ms /. 1000.) passes in
  [ metric (read ^ ".p50") "ms" (Stats.median reads) ~n;
    metric (read ^ ".p90") "ms" (Stats.percentile 90. reads) ~n;
    metric (read ^ ".p99") "ms" (Stats.percentile 99. reads) ~n;
    metric (write ^ ".p50") "ms" (Stats.median writes) ~n:(List.length writes);
    metric (read ^ ".total_s_per_pass") "s" (Stats.median per_pass) ~n:(List.length passes);
  ]
  @ extras

(* Library spans of the traced run; each reports self time and allocation
   per pass, 0 where the workload never calls the layer. *)
let layers =
  [ "audit_mgmt.consolidate"; "audit_mgmt.to_policy"; "prima_core.ingest_rules";
    "prima_core.project"; "prima_core.coverage_set"; "prima_core.coverage_bag";
    "prima_core.trend"; "prima_core.filter"; "prima_core.materialize"; "prima_core.alg5_query";
    "prima_core.prune"; "prima_system.install_pattern"; "audit_mgmt.site_ingest";
    "hdb.audit_append"; "durable.sync"; "audit_mgmt.admit"; "hdb.rewrite"; "hdb.query";
  ]

let per_layer ~untraced ~traced ~generate_us =
  let k = float_of_int (List.length traced) in
  let totals = Trace.totals () in
  let get name = Hashtbl.find_opt totals name in
  let self name = match get name with Some t -> t.Trace.self_ms | None -> 0. in
  let spans =
    List.concat_map
      (fun l ->
        let t = get l in
        let calls = match t with Some t -> t.Trace.calls | None -> 0 in
        [ metric (l ^ ".self_ms") "ms" (self l /. k) ~n:calls;
          metric (l ^ ".alloc_mw") "Mword"
            ((match t with Some t -> t.Trace.self_kwords | None -> 0.) /. 1000. /. k)
            ~n:calls;
        ])
      layers
  in
  let op_total, op_self =
    Hashtbl.fold
      (fun name t (total, self) ->
        if String.starts_with ~prefix:"op." name then
          (total +. t.Trace.total_ms, self +. t.Trace.self_ms)
        else (total, self))
      totals (0., 0.)
  in
  let c name = Trace.counter name /. k in
  let converted = "audit_mgmt.to_policy.entries_converted" in
  let fresh = "audit_mgmt.to_policy.entries_new" in
  let traced_busy = Stats.sum (List.map (fun p -> p.Loop.busy_s) traced) /. k in
  let untraced_busy = untraced.Loop.busy_s in
  let probe_s = self "hdb.rewrite" /. 1000. in
  let entries = count traced "audit_entries" in
  let syncs = count traced "syncs" in
  let p_al = count traced "p_al_rules" in
  let distinct_triples = count traced "distinct_triples" in
  let attempted = Stats.sum (List.map (fun p -> float_of_int p.Loop.attempted) traced) in
  let failed = Stats.sum (List.map (fun p -> float_of_int p.Loop.failed) traced) in
  spans
  @ [ metric "audit_mgmt.to_policy.entries_converted" "count" (c converted);
      metric "audit_mgmt.to_policy.entries_new" "count" (c fresh);
      metric "audit_mgmt.to_policy.converted_per_new" "ratio" (ratio (c converted) (c fresh));
      metric "prima_core.distinct_triples" "count" distinct_triples;
      metric "prima_core.rules_per_distinct_triple" "ratio" (ratio p_al distinct_triples);
      metric "prima_core.practice_rows" "count" (c "prima_core.practice_rows");
      metric "prima_core.patterns" "count" (c "prima_core.patterns");
      metric "prima_core.useful" "count" (c "prima_core.useful");
      metric "prima_core.accepted" "count" (c "prima_core.accepted");
      metric "prima_core.useful_per_pattern" "ratio"
        (ratio (c "prima_core.useful") (c "prima_core.patterns"));
      metric "durable.wal_bytes_per_entry" "B" (ratio (count traced "wal_bytes") entries);
      metric "durable.syncs" "count" syncs;
      metric "durable.batch_size" "entries" (ratio entries syncs);
      metric "audit_mgmt.admit.admitted_ratio" "ratio"
        (ratio (c "audit_mgmt.admit.admitted") (c "audit_mgmt.admit.attempted"));
      metric "relational.tuples_per_row_returned" "ratio"
        (ratio (c "relational.tuples") (c "relational.rows_returned"));
      metric "workload.generate_us_per_entry" "us" generate_us;
      metric "trace.overhead_pct" "%"
        (100. *. ratio (traced_busy -. probe_s -. untraced_busy) untraced_busy);
      metric "trace.unattributed_pct" "%" (100. *. ratio op_self op_total);
      metric "failed_ratio" "ratio" (ratio failed attempted);
    ]

let main ~workload ~seed ~seconds ~trace =
  let problems = selftest workload ~seed in
  let inst, gen_s = Loop.time (fun () -> instance workload ~seed ~small:false) in
  let generate_us = 1e6 *. gen_s /. float_of_int inst.items in
  Printf.printf "workload %s seed %d: %d generated items in %.2f s (%.1f us each)\n" workload seed
    inst.items gen_s generate_us;
  if not trace then begin
    let extra_setups = List.init inst.setup_reps (fun _ -> inst.setup ()) in
    let passes = run_passes ~seconds ~traced:false inst in
    let generic = end_to_end ~extra_setups passes in
    Printf.printf "end-to-end, %d passes:\n" (List.length passes);
    print_table generic;
    Printf.printf "workload view:\n";
    print_table (workload_view workload passes);
    let problems = problems @ consistency passes in
    List.iter (Printf.printf "PROBLEM: %s\n") problems;
    let attempted = List.fold_left (fun n p -> n + p.Loop.attempted) 0 passes in
    let failed = List.fold_left (fun n p -> n + p.Loop.failed) 0 passes in
    print_result ~correct:(problems = []) ~attempted ~failed generic
  end
  else begin
    let untraced = inst.pass ~traced:false ~check:true in
    Trace.reset ();
    Trace.enabled := true;
    let traced = run_passes ~seconds:(seconds /. 2.) ~traced:true inst in
    Trace.enabled := false;
    let problems = problems @ consistency (untraced :: traced) in
    let metrics = per_layer ~untraced ~traced ~generate_us in
    Printf.printf "per-layer, %d traced passes:\n" (List.length traced);
    print_table metrics;
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/trace-%s-%d.jsonl" workload seed in
    Trace.write path;
    Printf.printf "spans written to %s\n" path;
    List.iter (Printf.printf "PROBLEM: %s\n") problems;
    let all = untraced :: traced in
    let attempted = List.fold_left (fun n p -> n + p.Loop.attempted) 0 all in
    let failed = List.fold_left (fun n p -> n + p.Loop.failed) 0 all in
    print_result ~correct:(problems = []) ~attempted ~failed metrics
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "monitor|refine|enforce");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "how long to measure");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  if not (List.mem !workload [ "monitor"; "refine"; "enforce" ]) then begin
    prerr_endline "perfbench: --workload must be monitor, refine or enforce";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
