(** Rule (Definition 5): a conjunction of RuleTerms.

    Terms are kept sorted and deduplicated, so structurally equal ground
    rules compare equal — which makes range sets (Definition 8) well
    defined. *)

type t

val make : Rule_term.t list -> t
(** @raise Invalid_argument on the empty conjunction. *)

val of_assoc : (string * string) list -> t
(** [of_assoc [(attr, value); ...]]. *)

val to_assoc : t -> (string * string) list
val terms : t -> Rule_term.t list

val cardinality : t -> int
(** #R of Definition 5. *)

val compare : t -> t -> int
(** Lexicographic over the sorted terms — the total order range sets and
    deterministic listings rely on. *)

val equal : t -> t -> bool
(** Structural equality, O(1) on the fast path: pointer equality accepts
    and precomputed-hash inequality rejects. *)

val equal_syntactic : t -> t -> bool
(** Alias of {!equal}. *)

val hash : t -> int
(** Precomputed structural hash, O(1).  Consistent with {!equal}. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by rules, on {!hash} and {!equal}. *)

val find_attr : t -> string -> string option
(** The value this rule assigns to [attr], if any. *)

val project : t -> attrs:string list -> t option
(** Restriction to the given attributes; [None] when no term survives. *)

val is_ground : Vocabulary.Vocab.t -> t -> bool

val ground_rules : Vocabulary.Vocab.t -> t -> t list
(** Corollary 1: the cartesian product of the terms' ground sets.
    Memoized per (vocabulary stamp, rule); vocabularies are immutable and
    freshly stamped on every construction, so entries never go stale. *)

val ground_rules_uncached : Vocabulary.Vocab.t -> t -> t list
(** The memo-free grounding path — the seed implementation, kept as the
    oracle for differential tests and benchmark baselines. *)

val equivalent : Vocabulary.Vocab.t -> t -> t -> bool
(** Definition 6: same cardinality and termwise equivalence. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_compact_string : ?attrs:string list -> t -> string
(** The paper's use-case notation, e.g. ["referral:registration:nurse"];
    [attrs] selects and orders the rendered values. *)
