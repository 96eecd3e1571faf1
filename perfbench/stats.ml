(* Order statistics over samples. *)

(* Linear interpolation between closest ranks; nan on no samples. *)
let percentile p samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let h = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median = percentile 50.

let sum = List.fold_left ( +. ) 0.
