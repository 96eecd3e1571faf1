(** dataAnalysis (Algorithm 5): translate (A, f, c) into the SQL statement

    {v SELECT A1,..,An FROM <table> GROUP BY A1,..,An
   HAVING COUNT( * ) >= f AND c v}

    and execute it on the relational engine. *)

type comparator =
  | At_least
      (** [COUNT( * ) >= f] — matches the paper's prose ("occurred at least
          f times") and the Section 5 walkthrough, where the pattern occurs
          exactly f = 5 times. *)
  | More_than  (** [COUNT( * ) > f] — the pseudocode read literally. *)

(** c: the extra HAVING conjunct, rendered to SQL only by {!statement}. *)
type condition =
  | Distinct_users_over of int  (** [COUNT(DISTINCT user) > n] *)
  | No_condition

type config = {
  attributes : string list;  (** A: a subset of the audit schema *)
  min_frequency : int;  (** f: the system-defined threshold *)
  comparator : comparator;
  condition : condition;  (** c: extra HAVING conjunct *)
}

val default_config : config
(** Algorithm 4's defaults: A = (data, purpose, authorized), f = 5,
    c = [Distinct_users_over 1], at-least comparator. *)

val materialize : Relational.Engine.t -> table_name:string -> Policy.t -> string list
(** Loads a policy of audit rules into a (re)created TEXT table, one column
    per attribute appearing in the rules; returns the column order. *)

val statement : table_name:string -> config -> string
(** The generated SQL text (Algorithm 5, line 2). *)

val run :
  ?budget:Relational.Budget.t -> Relational.Engine.t -> table_name:string -> config ->
  Rule.t list
(** Executes the statement; each surviving group becomes a rule over
    [config.attributes].  [budget] governs the query (see
    {!Relational.Budget}); omitted, execution is ungoverned. *)

(** {1 Governed execution with graceful degradation} *)

type governed = {
  patterns : Rule.t list;
  degraded : bool;
      (** the strict run exceeded its budget and the patterns were computed
          over a prefix of the practice table — a lower bound *)
  stats : Relational.Errors.budget_stats;
      (** resources the run consumed: after a degraded run, the strict
          attempt's usage up to the trip plus the partial retry's *)
}

val exact : Rule.t list -> governed
(** Wraps an ungoverned result: [degraded = false], zero stats. *)

val analyse : ?config:config -> ?limits:Relational.Budget.limits -> Policy.t -> governed
(** Algorithm 5 in one call: materialise the practice into a fresh engine
    and run {!statement} there.  Without [limits] the run is ungoverned and
    exact (zero stats).  With [limits] it runs under a strict budget first;
    when a quota fires, the same limits are retried in partial mode and the
    truncated pattern set is returned with [degraded = true]. *)
