(* In-memory span recorder for the traced run.

   A span wraps one call the benchmark makes into a library's public
   function.  Each records its name, start, end, parent span and the id of
   the operation (round, epoch or query) it belongs to, plus the words
   allocated while it was open.  Self time and self allocation subtract
   whatever the span's children covered.  Spans stay in memory until the
   run writes them out; nothing is recorded while tracing is off. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int; (* -1 for an operation's root span *)
  start : float; (* seconds on the monotonic clock *)
  stop : float;
  self_s : float;
  self_words : float;
}

type frame = {
  f_id : int;
  f_start : float;
  f_words : float;
  mutable child_s : float;
  mutable child_words : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : frame list ref = ref []
let next_id = ref 0
let current_op = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  current_op := 0;
  Hashtbl.reset counters

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.f_id | [] -> -1 in
    let frame =
      { f_id = !next_id;
        f_start = Loop.now ();
        f_words = allocated_words ();
        child_s = 0.;
        child_words = 0.;
      }
    in
    incr next_id;
    stack := frame :: !stack;
    let close () =
      let stop = Loop.now () in
      let words = allocated_words () -. frame.f_words in
      let dur = stop -. frame.f_start in
      stack := List.tl !stack;
      (match !stack with
      | p :: _ ->
        p.child_s <- p.child_s +. dur;
        p.child_words <- p.child_words +. words
      | [] -> ());
      spans :=
        { id = frame.f_id;
          name;
          op = !current_op;
          parent;
          start = frame.f_start;
          stop;
          self_s = dur -. frame.child_s;
          self_words = words -. frame.child_words;
        }
        :: !spans
    in
    Fun.protect ~finally:close f
  end

(* An operation's root span; every span opened inside it shares its id. *)
let op name f =
  if not !enabled then f ()
  else begin
    incr current_op;
    span name f
  end

let count name n =
  if !enabled then
    Hashtbl.replace counters name
      (n +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.

type totals = {
  calls : int;
  self_ms : float;
  self_kwords : float;
  total_ms : float;
}

(* Per-name sums over every recorded span. *)
let totals () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let t =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; self_ms = 0.; self_kwords = 0.; total_ms = 0. }
      in
      Hashtbl.replace tbl s.name
        { calls = t.calls + 1;
          self_ms = t.self_ms +. (1000. *. s.self_s);
          self_kwords = t.self_kwords +. (s.self_words /. 1000.);
          total_ms = t.total_ms +. (1000. *. (s.stop -. s.start));
        })
    !spans;
  tbl

(* One JSON object per line, in the order the spans closed. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,%s}\n"
        s.id s.name s.op s.parent s.start s.stop
        (Printf.sprintf "\"self_ms\":%.4f,\"self_words\":%.0f" (1000. *. s.self_s) s.self_words))
    (List.rev !spans);
  close_out oc
