(** RuleTerm (Definition 1): an (attribute, value) pair — the atomic unit
    every privacy policy notation maps onto. *)

type t

val make : attr:string -> value:string -> t
val attr : t -> string
val value : t -> string

val equal_syntactic : t -> t -> bool
(** Structural identity (no vocabulary involved).  The hash is
    precomputed, so distinct terms are rejected in O(1); equal terms compare
    their strings. *)

val compare : t -> t -> int
(** Total order by attribute then value; canonicalises rules. *)

val hash : t -> int
(** Precomputed structural hash, O(1). *)

val is_ground : Vocabulary.Vocab.t -> t -> bool
(** Definition 2: the value is atomic w.r.t. the vocabulary.  Values (or
    attributes) outside the vocabulary are ground by convention. *)

val ground_set : Vocabulary.Vocab.t -> t -> t list
(** Definition 3: the set RT' of ground terms derivable from this term.
    Always non-empty; a ground term grounds to itself. *)

val equivalent : Vocabulary.Vocab.t -> t -> t -> bool
(** Definition 4: the ground sets share a member.  Terms over different
    attributes are never equivalent. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
