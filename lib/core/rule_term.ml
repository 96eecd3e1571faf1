(* Definition 1: a RuleTerm is an (attr, value) pair — the atomic unit every
   policy notation maps onto.

   Terms are the unit of work in grounding and range algebra, so they carry
   a precomputed structural hash: distinct terms are rejected by hash before
   any string is compared. *)

type t = {
  attr : string;
  value : string;
  hash : int;
}

let combine_hash h1 h2 = (h1 * 0x01000193) lxor h2

let make ~attr ~value =
  { attr; value; hash = combine_hash (Hashtbl.hash attr) (Hashtbl.hash value) }

let attr t = t.attr

let value t = t.value

let hash t = t.hash

(* Syntactic identity, used to canonicalise ground rules and on every hash
   table probe.  Strings drawn from the vocabulary and the attribute-name
   constants are usually shared, and the inline [==] spares those the C
   call behind [String.equal]. *)
let equal_syntactic a b =
  a.hash = b.hash
  && (a.attr == b.attr || String.equal a.attr b.attr)
  && (a.value == b.value || String.equal a.value b.value)

let compare a b =
  let c = String.compare a.attr b.attr in
  if c <> 0 then c else String.compare a.value b.value

(* Definition 2: ground iff the value is atomic w.r.t. the vocabulary. *)
let is_ground vocab t = Vocabulary.Vocab.is_ground vocab ~attr:t.attr ~value:t.value

(* Definition 3: the set RT' of ground terms derivable from this term. *)
let ground_set vocab t =
  List.map
    (fun value -> make ~attr:t.attr ~value)
    (Vocabulary.Vocab.ground_set vocab ~attr:t.attr ~value:t.value)

(* Definition 4: terms are equivalent iff their ground sets share a member
   with equal attr and value.  Terms over different attributes are never
   equivalent. *)
let equivalent vocab a b =
  String.equal a.attr b.attr
  && Vocabulary.Vocab.equivalent_values vocab ~attr:a.attr a.value b.value

let pp ppf t = Fmt.pf ppf "(%s, %s)" t.attr t.value

let to_string t = Fmt.str "%a" pp t
