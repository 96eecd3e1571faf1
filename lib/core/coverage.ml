(* Definition 9 / Algorithm 1: ComputeCoverage.

   Coverage of P_x in relation to P_y is
     #(Range(P_x) ∩ Range(P_y)) / #Range(P_y).

   Two denominators coexist in the paper and both are provided:

   - set semantics is Definition 9 verbatim — ranges are *sets*, so
     repeated audit entries collapse (Figure 3's 3/6 = 50 %);
   - bag semantics counts each rule occurrence of P_y separately, which is
     how Section 5 arrives at 3/10 = 30 % for Table 1 (the pattern entry
     repeats five times).

   Both are read from one kernel, [of_tally], over a tally of P_y: each
   distinct rule with its number of occurrences.  [compute], [compute_bag]
   and [aligned] tally their P_y and read the kernel.

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

let make_stats overlap denominator uncovered =
  { overlap; denominator; coverage = ratio overlap denominator; uncovered }

type readings = {
  set_semantics : stats;
  bag_semantics : stats;
}

let count_rules select policy =
  let tally = Rule.Tbl.create 64 in
  let count rule =
    match Rule.Tbl.find_opt tally rule with
    | Some n -> Rule.Tbl.replace tally rule (n + 1)
    | None -> Rule.Tbl.add tally rule 1
  in
  List.iter (fun rule -> Option.iter count (select rule)) (Policy.rules policy);
  tally

let tally ~attrs policy = count_rules (Rule.project ~attrs) policy

(* The kernel: one sweep over the distinct rules of the tally, grounding
   each once.  A ground rule met for the first time joins the set reading
   (inside Range(P_x) or uncovered); a rule all of whose ground rules lie
   in Range(P_x) adds its count to the bag overlap.  The set listing is
   Range(P_y) \ Range(P_x); the bag listing repeats each uncovered rule by
   its count.  Both are in Rule.compare order, and each is sorted only
   when its reading is asked for ([read ~bag]). *)
let sweep vocab ~range_x tally =
  let seen = Rule.Tbl.create (max 64 (Rule.Tbl.length tally)) in
  let set_overlap = ref 0 and set_uncovered = ref [] in
  let bag_overlap = ref 0 and bag_total = ref 0 and bag_uncovered = ref [] in
  Rule.Tbl.iter
    (fun rule n ->
      let covered =
        List.fold_left
          (fun covered g ->
            let inside = Range.mem g range_x in
            if not (Rule.Tbl.mem seen g) then begin
              Rule.Tbl.add seen g ();
              if inside then incr set_overlap else set_uncovered := g :: !set_uncovered
            end;
            covered && inside)
          true (Rule.ground_rules vocab rule)
      in
      bag_total := !bag_total + n;
      if covered then bag_overlap := !bag_overlap + n
      else bag_uncovered := (rule, n) :: !bag_uncovered)
    tally;
  fun ~bag ->
    if bag then
      List.sort (fun (a, _) (b, _) -> Rule.compare a b) !bag_uncovered
      |> List.concat_map (fun (rule, n) -> List.init n (fun _ -> rule))
      |> make_stats !bag_overlap !bag_total
    else
      make_stats !set_overlap (Rule.Tbl.length seen) (List.sort Rule.compare !set_uncovered)

let of_tally vocab ~range_x tally : readings =
  let read = sweep vocab ~range_x tally in
  { set_semantics = read ~bag:false; bag_semantics = read ~bag:true }

let read vocab ~p_x tally = sweep vocab ~range_x:(Range.of_policy vocab p_x) tally

(* Definition 9 verbatim and the Section 5 accounting over P_y as given:
   every rule of P_y counted, none projected. *)
let compute vocab ~p_x ~p_y = read vocab ~p_x (count_rules Option.some p_y) ~bag:false
let compute_bag vocab ~p_x ~p_y = read vocab ~p_x (count_rules Option.some p_y) ~bag:true

(* Project P_x onto the attributes shared with the vocabulary's pattern
   dimensions and tally P_y's projections, then read the kernel. *)
let aligned ?(bag = false) vocab ~attrs ~p_x ~p_y : stats =
  read vocab ~p_x:(Policy.project p_x ~attrs) (tally ~attrs p_y) ~bag

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
