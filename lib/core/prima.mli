(** The PRIMA policy-refinement component (Figure 4), at the policy level.

    Owns the policy store P_PS, consumes consolidated audit rules from
    Audit Management as P_AL, enforces a training period, and exposes
    coverage measurement and refinement runs.  The stakeholder-facing
    integration with HDB enforcement is {!Prima_system.System}. *)

type t

val create :
  ?training_minimum:int ->
  ?config:Refinement.config ->
  vocab:Vocabulary.Vocab.t ->
  p_ps:Policy.t ->
  unit ->
  t
(** [training_minimum] is the number of audit entries that must accumulate
    before {!refine} will run (default 0). *)

val vocab : t -> Vocabulary.Vocab.t

val set_vocab : t -> Vocabulary.Vocab.t -> unit
(** Adopt an edited vocabulary mid-run.  Vocabulary values are immutable
    and freshly stamped ({!Vocabulary.Vocab.stamp}), so the grounding
    caches keyed by the old stamp go cold atomically: coverage computed
    after the swap must equal a from-scratch recompute over the same
    policies. *)

val policy_store : t -> Policy.t

val audit_policy : t -> Policy.t
(** P_AL, forcing it if {!set_audit} left it unevaluated.  Coverage never
    forces it; refinement does. *)

val history : t -> Refinement.epoch_report list
(** All completed refinement runs, oldest first. *)

val set_training_minimum : t -> int -> unit
val refinement_config : t -> Refinement.config
val set_refinement_config : t -> Refinement.config -> unit

val ingest_rules : t -> Rule.t list -> unit
(** Append audit rules to P_AL (forcing it) and re-tally P_AL's
    projections onto the pattern attributes ({!Coverage.tally}). *)

val set_audit : t -> tally:int Rule.Tbl.t -> Policy.t Lazy.t -> unit
(** Replace P_AL with a lazily built policy, together with its tally: the
    occurrences of each distinct projection of its rules onto the pattern
    attributes.  The caller guarantees that the tally is exactly
    [Coverage.tally ~attrs:pattern P_AL] and that every rule of P_AL
    carries a pattern attribute — true of rules built from audit entries —
    so the tally's total is #P_AL.  The table is kept, not copied, and
    never modified; the caller must not modify it either.  {!coverage}
    then costs O(distinct rules), and the policy is forced only by
    refinement or {!audit_policy}. *)

val add_store_rule : t -> Rule.t -> unit
(** Stakeholder-driven extension of P_PS. *)

type coverage_report = Coverage.readings = {
  set_semantics : Coverage.stats;  (** Definition 9 *)
  bag_semantics : Coverage.stats;  (** Section 5 accounting *)
}

val coverage : t -> coverage_report
(** Both coverage readings over the pattern attributes — the readings of
    {!Coverage.aligned} on P_PS and P_AL — read by the kernel
    ({!Coverage.of_tally}) straight off the tally of projected P_AL
    rules. *)

val in_training : t -> bool

val refine :
  ?completeness:float ->
  ?verified:bool ->
  ?limits:Relational.Budget.limits ->
  t ->
  (Refinement.epoch_report, string) result
(** One refinement pass over everything collected so far; accepted patterns
    extend the store in place.  [Error] during the training period.
    [completeness] (default 1.0) qualifies the epoch's coverage readings
    when P_AL came from a partial consolidation.  [limits] governs this
    epoch's extraction query in place of {!refinement_config}'s, which it
    leaves unchanged. *)

val reset_audit : t -> unit
(** Drop consumed audit entries (sliding-window refinement). *)
