(** ComputeCoverage (Definition 9 / Algorithm 1).

    Coverage of P_x in relation to P_y is
    [#(Range(P_x) ∩ Range(P_y)) / #Range(P_y)].

    Two denominators coexist in the paper and both are provided: set
    semantics is Definition 9 verbatim (ranges are sets — Figure 3's
    3/6 = 50 %); bag semantics counts each rule occurrence of P_y, which is
    how Section 5 arrives at 3/10 = 30 % for Table 1.

    Both readings come from one kernel, {!of_tally}, over a {!tally} of
    P_y: each distinct rule with its number of occurrences.  Range(P_x) is
    built once and each distinct rule of P_y grounded once, however long
    the audit history.  {!compute}, {!compute_bag} and {!aligned} are
    tally-then-kernel wrappers. *)

type stats = {
  overlap : int;  (** numerator *)
  denominator : int;
  coverage : float;  (** 1.0 when the denominator is 0 (vacuous) *)
  uncovered : Rule.t list;  (** the rules of P_y driving the gap *)
}

type readings = {
  set_semantics : stats;
      (** Definition 9: over the distinct ground rules of P_y; [uncovered]
          is Range(P_y) \ Range(P_x) in {!Rule.compare} order *)
  bag_semantics : stats;
      (** Section 5: [overlap] sums the counts of the rules whose whole
          ground set lies in Range(P_x), [denominator] all counts;
          [uncovered] repeats each uncovered rule by its count, in
          {!Rule.compare} order *)
}

val tally : attrs:string list -> Policy.t -> int Rule.Tbl.t
(** One pass over the policy: each rule projected onto [attrs]
    ({!Rule.project}; rules with no surviving term drop out) and the
    occurrences of each projection counted.  The result is a fresh table
    the caller owns. *)

val of_tally : Vocabulary.Vocab.t -> range_x:Range.t -> int Rule.Tbl.t -> readings
(** The coverage kernel: both readings of P_x (given as its range) in
    relation to the P_y whose tally is given.  Counts must be positive. *)

val compute : Vocabulary.Vocab.t -> p_x:Policy.t -> p_y:Policy.t -> stats
(** Algorithm 1, set semantics, with every rule of P_y counted as it is.
    Policies over different attribute sets never intersect (Definition 6
    compares cardinalities) — align them with {!Policy.project} or use
    {!aligned}. *)

val compute_bag : Vocabulary.Vocab.t -> p_x:Policy.t -> p_y:Policy.t -> stats
(** Bag semantics over P_y's rule sequence: every occurrence counts once. *)

val aligned :
  ?bag:bool ->
  Vocabulary.Vocab.t ->
  attrs:string list ->
  p_x:Policy.t ->
  p_y:Policy.t ->
  stats
(** Projects P_x onto [attrs] and tallies P_y's projections, then reads the
    kernel ([bag] defaults to false: set semantics). *)

val complete : Vocabulary.Vocab.t -> p_x:Policy.t -> p_y:Policy.t -> bool
(** Definition 10: Range(P_y) ⊆ Range(P_x). *)

val pp_stats : Format.formatter -> stats -> unit
(** e.g. ["coverage = 3/10 = 30%"]. *)

type qualifier =
  | Exact
  | Lower_bound of float
      (** the completeness fraction of the audit window, in [0, 1].  It is
          1.0 when the window is complete but the reading still cannot
          claim exactness: {!qualify} with [~verified:false] over a
          complete window (a suspect trail), or a refinement epoch run
          browned out under admission control. *)

type qualified = {
  stats : stats;
  qualifier : qualifier;
}
(** A coverage measurement together with how much of the audit trail it was
    computed from.  A measurement over a partial P_AL (sites skipped,
    records quarantined) is only a statement about the entries that
    arrived: it is a lower bound, and must never drive pruning decisions —
    a pattern can look "already covered" only because its counter-evidence
    is missing. *)

val qualify : ?verified:bool -> completeness:float -> stats -> qualified
(** [Exact] when [completeness >= 1.0] and the trail is [verified]
    (default); [Lower_bound completeness] otherwise.  Pass
    [~verified:false] when the trail itself is suspect — e.g. crash
    recovery dropped an unverifiable WAL tail — to force the lower-bound
    label even over a nominally complete window. *)

val is_exact : qualified -> bool
val pp_qualifier : Format.formatter -> qualifier -> unit

val pp_qualified : Format.formatter -> qualified -> unit
(** e.g. ["coverage >= 3/10 = 30% (partial trail, completeness 83.3%)"]. *)
