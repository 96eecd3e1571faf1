(* Human-readable reporting: coverage statements, pattern tables, epoch
   summaries and the ASCII coverage trajectory used to render the Figure 2
   style series in benches and examples. *)

let pp_pattern ppf rule =
  Fmt.pf ppf "%s"
    (String.capitalize_ascii
       (Rule.to_compact_string ~attrs:Vocabulary.Audit_attrs.pattern rule))

let pp_patterns ppf = function
  | [] -> Fmt.pf ppf "  (none)@."
  | patterns ->
    List.iteri (fun i p -> Fmt.pf ppf "  %d. %a@." (i + 1) pp_pattern p) patterns

let pp_epoch ppf (r : Refinement.epoch_report) =
  Fmt.pf ppf "practice entries : %d@." r.Refinement.practice_size;
  Fmt.pf ppf "patterns found   :@.";
  pp_patterns ppf r.Refinement.patterns;
  Fmt.pf ppf "useful (pruned)  :@.";
  pp_patterns ppf r.Refinement.useful;
  Fmt.pf ppf "accepted         :@.";
  pp_patterns ppf r.Refinement.accepted;
  Fmt.pf ppf "coverage         : %a -> %a@." Coverage.pp_stats r.Refinement.coverage_before
    Coverage.pp_stats r.Refinement.coverage_after;
  if r.Refinement.degraded then
    Fmt.pf ppf
      "degraded         : extraction hit its resource budget (%s); patterns are a lower \
       bound@."
      (Relational.Errors.stats_to_string r.Refinement.budget_stats);
  match r.Refinement.qualifier with
  | Coverage.Exact -> ()
  | Coverage.Lower_bound _ as q ->
    Fmt.pf ppf "qualifier        : %a — figures are floors, not measurements@."
      Coverage.pp_qualifier q

(* A row-per-epoch series, e.g.
     epoch  1 |############............| 48.0%
   for rendering coverage trajectories on a terminal. *)
let pp_series ppf (series : (string * float) list) =
  let width = 40 in
  List.iter
    (fun (label, fraction) ->
      let filled = int_of_float (Float.round (fraction *. float_of_int width)) in
      let filled = max 0 (min width filled) in
      Fmt.pf ppf "%-10s |%s%s| %5.1f%%@." label (String.make filled '#')
        (String.make (width - filled) '.')
        (100. *. fraction))
    series

let pp_audit_table ppf (rules : Rule.t list) =
  let attrs = Vocabulary.Audit_attrs.all in
  let header = List.map String.capitalize_ascii attrs in
  let rows =
    List.map
      (fun rule ->
        List.map
          (fun attr -> Option.value (Rule.find_attr rule attr) ~default:"-")
          attrs)
      rules
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length h) rows)
      header
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line cells = String.concat " | " (List.map2 pad cells widths) in
  Fmt.pf ppf "%s@." (line header);
  Fmt.pf ppf "%s@." (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Fmt.pf ppf "%s@." (line row)) rows
