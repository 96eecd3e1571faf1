(* The PRIMA policy-refinement component (Figure 4), at the policy level:
   it owns the policy store P_PS, consumes consolidated audit rules from
   Audit Management as P_AL, enforces a training period, and exposes
   coverage measurement and refinement runs.  The stakeholder-facing
   integration with HDB enforcement lives in the prima_system library. *)

type t = {
  mutable vocab : Vocabulary.Vocab.t;
  mutable p_ps : Policy.t;
  (* P_AL is forced only by refinement, trends and direct inspection;
     coverage reads [tally], the occurrences of each rule of P_AL projected
     onto the pattern attributes, and [in_training] reads [p_al_size].
     The tally is replaced, never updated in place. *)
  mutable p_al : Policy.t Lazy.t;
  mutable tally : int Rule.Tbl.t;
  mutable p_al_size : int;
  mutable training_minimum : int; (* entries required before refinement *)
  mutable refinement_config : Refinement.config;
  mutable history : Refinement.epoch_report list; (* newest first *)
}

let empty_audit = Policy.make ~source:Policy.Audit_log []

let create ?(training_minimum = 0) ?(config = Refinement.default_config) ~vocab ~p_ps () =
  { vocab;
    p_ps;
    p_al = Lazy.from_val empty_audit;
    tally = Rule.Tbl.create 64;
    p_al_size = 0;
    training_minimum;
    refinement_config = config;
    history = [];
  }

let vocab t = t.vocab

(* Adopt an edited vocabulary (e.g. a taxonomy that grew a leaf mid-run).
   Vocabulary values are immutable and freshly stamped, so every grounding
   cache keyed by the old stamp goes cold at once — subsequent coverage
   readings must be indistinguishable from a from-scratch recompute. *)
let set_vocab t vocab = t.vocab <- vocab

let policy_store t = t.p_ps
let audit_policy t = Lazy.force t.p_al
let history t = List.rev t.history

let set_training_minimum t n = t.training_minimum <- n
let refinement_config t = t.refinement_config
let set_refinement_config t config = t.refinement_config <- config

let pattern_attrs = Vocabulary.Audit_attrs.pattern

let ingest_rules t rules =
  let p_al = Policy.add_rules (audit_policy t) rules in
  t.p_al <- Lazy.from_val p_al;
  t.tally <- Coverage.tally ~attrs:pattern_attrs p_al;
  t.p_al_size <- t.p_al_size + List.length rules

let set_audit t ~tally p_al =
  t.p_al <- p_al;
  t.tally <- tally;
  t.p_al_size <- Rule.Tbl.fold (fun _ n acc -> acc + n) tally 0

let add_store_rule t rule = t.p_ps <- Policy.add_rule t.p_ps rule

(* Both coverage readings of the paper at once. *)
type coverage_report = Coverage.readings = {
  set_semantics : Coverage.stats; (* Definition 9 *)
  bag_semantics : Coverage.stats; (* Section 5 accounting *)
}

(* Coverage.aligned's readings, read by the kernel straight off the tally. *)
let coverage t =
  Coverage.of_tally t.vocab
    ~range_x:(Range.of_policy t.vocab (Policy.project t.p_ps ~attrs:pattern_attrs))
    t.tally

let in_training t = t.p_al_size < t.training_minimum

(* Run one refinement pass over everything collected so far; the accepted
   patterns extend the policy store in place.  [Error] while the training
   period has not accumulated enough log.  [completeness] qualifies the
   epoch's coverage readings when P_AL came from a partial consolidation;
   [limits] governs this epoch's extraction in place of the configured
   ones. *)
let refine ?(completeness = 1.0) ?(verified = true) ?limits t :
    (Refinement.epoch_report, string) result =
  if in_training t then
    Error
      (Printf.sprintf "training period: %d/%d audit entries collected"
         t.p_al_size t.training_minimum)
  else begin
    let config = t.refinement_config in
    let config = if limits = None then config else { config with Refinement.limits } in
    let report =
      Refinement.run_epoch ~config ~completeness ~verified
        ~vocab:t.vocab ~p_ps:t.p_ps ~p_al:(audit_policy t) ()
    in
    t.p_ps <- report.Refinement.p_ps';
    t.history <- report :: t.history;
    Ok report
  end

(* Drop consumed audit entries (e.g. after an epoch over a sliding window). *)
let reset_audit t = set_audit t ~tally:(Rule.Tbl.create 1) (Lazy.from_val empty_audit)
