(* Definition 9 / Algorithm 1: ComputeCoverage.

   Coverage of P_x in relation to P_y is
     #(Range(P_x) ∩ Range(P_y)) / #Range(P_y).

   Two denominators coexist in the paper and both are provided:

   - [compute] is Definition 9 verbatim — ranges are *sets*, so repeated
     audit entries collapse (Figure 3's 3/6 = 50 %);
   - [compute_bag] counts each rule occurrence of P_y separately, which is
     how Section 5 arrives at 3/10 = 30 % for Table 1 (the pattern entry
     repeats five times).

   Policies over different attribute sets (seven-term audit rules vs
   three-term store rules) never intersect under Definition 6; callers
   align them first with [Policy.project] — [aligned] does this for you. *)

type stats = {
  overlap : int;
  denominator : int;
  coverage : float;
  uncovered : Rule.t list; (* the rules of P_y driving the gap *)
}

let ratio overlap denominator =
  if denominator = 0 then 1.0 else float_of_int overlap /. float_of_int denominator

(* Algorithm 1, set semantics.  When the caller does not need the
   uncovered listing ([~uncovered:false]), Range(P_y) and the overlap are
   only *counted* — streamed in one pass through Range.count_ground_rules —
   never materialised, which is what lets coverage run in the refinement
   inner loop. *)
let compute ?(uncovered = true) vocab ~p_x ~p_y : stats =
  let range_x = Range.of_policy vocab p_x in
  if uncovered then begin
    let range_y = Range.of_policy vocab p_y in
    (* One partitioning sweep over Range(P_y) yields both the overlap count
       and the uncovered listing — no intersection or difference tables. *)
    let overlap, uncov =
      Range.fold
        (fun g (n, uncov) ->
          if Range.mem g range_x then (n + 1, uncov) else (n, g :: uncov))
        range_y (0, [])
    in
    { overlap;
      denominator = Range.cardinality range_y;
      coverage = ratio overlap (Range.cardinality range_y);
      uncovered = List.sort Rule.compare uncov;
    }
  end
  else begin
    let denominator, overlap =
      Range.count_ground_rules ~within:range_x vocab (Policy.rules p_y)
    in
    { overlap; denominator; coverage = ratio overlap denominator; uncovered = [] }
  end

(* Bag semantics over P_y given as (rule, occurrences) pairs: the covered
   occurrences out of all of them.  Repeated rules are merged first, so the
   Range.covers test runs once per distinct rule however long the audit
   history; the uncovered listing repeats each uncovered rule by its count,
   in Rule.compare order. *)
let compute_bag_counts vocab ~p_x counts : stats =
  let range_x = Range.of_policy vocab p_x in
  let merged = Rule.Tbl.create 64 in
  List.iter
    (fun (rule, n) ->
      let seen = Option.value (Rule.Tbl.find_opt merged rule) ~default:0 in
      Rule.Tbl.replace merged rule (seen + n))
    counts;
  let overlap, denominator, uncov =
    Rule.Tbl.fold
      (fun rule n (overlap, denominator, uncov) ->
        if Range.covers vocab range_x rule then (overlap + n, denominator + n, uncov)
        else (overlap, denominator + n, (rule, n) :: uncov))
      merged (0, 0, [])
  in
  let uncovered =
    List.sort (fun (a, _) (b, _) -> Rule.compare a b) uncov
    |> List.concat_map (fun (rule, n) -> List.init n (fun _ -> rule))
  in
  { overlap; denominator; coverage = ratio overlap denominator; uncovered }

(* Bag semantics over P_y's rule sequence, as in the Section 5 walkthrough:
   every occurrence counts once. *)
let compute_bag vocab ~p_x ~p_y : stats =
  compute_bag_counts vocab ~p_x (List.map (fun rule -> (rule, 1)) (Policy.rules p_y))

(* Project both policies onto the attributes they share with the
   vocabulary's pattern dimensions before comparing. *)
let aligned ?(bag = false) ?(uncovered = true) vocab ~attrs ~p_x ~p_y : stats =
  let p_x = Policy.project p_x ~attrs in
  let p_y = Policy.project p_y ~attrs in
  if bag then compute_bag vocab ~p_x ~p_y else compute ~uncovered vocab ~p_x ~p_y

(* Definition 10. *)
let complete vocab ~p_x ~p_y =
  let range_x = Range.of_policy vocab p_x in
  let range_y = Range.of_policy vocab p_y in
  Range.subset range_y range_x

let pp_stats ppf s =
  Fmt.pf ppf "coverage = %d/%d = %.0f%%" s.overlap s.denominator (100. *. s.coverage)

(* Degraded-mode qualifier.  A measurement over a complete P_AL is [Exact];
   one computed from a partial trail (sites skipped, records quarantined)
   is only a statement about the entries that arrived, so it is labelled
   [Lower_bound] with the completeness fraction of the window it was
   computed from.  A lower bound must never drive pruning decisions: a
   pattern can look "already covered" only because its counter-evidence is
   missing. *)
type qualifier =
  | Exact
  | Lower_bound of float
      (* completeness of the audit window, in [0, 1]; 1.0 when the window
         is complete yet the reading cannot claim exactness *)

type qualified = {
  stats : stats;
  qualifier : qualifier;
}

(* [verified:false] means the trail itself is suspect — typically a crash
   recovery dropped an unverifiable WAL tail — so even a nominally complete
   window only bounds coverage from below. *)
let qualify ?(verified = true) ~completeness stats =
  if verified && completeness >= 1.0 then { stats; qualifier = Exact }
  else { stats; qualifier = Lower_bound (Float.min completeness 1.0) }

let is_exact = function { qualifier = Exact; _ } -> true | _ -> false

let pp_qualifier ppf = function
  | Exact -> Fmt.string ppf "exact"
  | Lower_bound c -> Fmt.pf ppf "lower bound (completeness %.1f%%)" (100. *. c)

let pp_qualified ppf q =
  match q.qualifier with
  | Exact -> pp_stats ppf q.stats
  | Lower_bound c ->
    Fmt.pf ppf "coverage >= %d/%d = %.0f%% (partial trail, completeness %.1f%%)"
      q.stats.overlap q.stats.denominator (100. *. q.stats.coverage) (100. *. c)
