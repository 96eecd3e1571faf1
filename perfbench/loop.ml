(* The measured loop shared by the three workloads: timed calls, failure
   accounting, an output digest and the work counts of one scripted pass.

   A pass is one fresh set-up followed by a fixed script of operations, so
   every pass over the same seed makes the same calls on the same inputs
   and must produce the same outputs.  Only the calls into the system are
   timed; output checks and bookkeeping run outside the timed regions. *)

(* Seconds on a monotonic clock, nanosecond resolution. *)
external now : unit -> (float[@unboxed]) = "perfbench_now_byte" "perfbench_now" [@@noalloc]

type pass = {
  setup_s : float;
  reads_ms : float list; (* the workload's user-facing read, oldest first *)
  writes_ms : float list; (* the workload's write step *)
  extras : (string * float list) list; (* other timed steps, by name *)
  busy_s : float; (* every timed call of the loop, set-up excluded *)
  attempted : int;
  failed : int;
  digest : string; (* every output the pass produced *)
  counts : (string * int) list; (* work done, for the determinism self-test *)
  errors : string list; (* failed output checks *)
}

type t = {
  settle : bool; (* collect the heap before each timed call *)
  mutable reads : float list;
  mutable writes : float list;
  extra_samples : (string, float list) Hashtbl.t;
  mutable busy : float;
  mutable n_attempted : int;
  mutable n_failed : int;
  out : Buffer.t;
  mutable problems : string list;
}

(* [settle] runs a full major collection before each timed call, outside
   the timed region, so a call does not pay for garbage its predecessors
   left behind. *)
let create ?(settle = false) () =
  { settle;
    reads = [];
    writes = [];
    extra_samples = Hashtbl.create 4;
    busy = 0.;
    n_attempted = 0;
    n_failed = 0;
    out = Buffer.create 4096;
    problems = [];
  }

type kind =
  | Read
  | Write
  | Extra of string

let record t kind ms =
  t.busy <- t.busy +. (ms /. 1000.);
  match kind with
  | Read -> t.reads <- ms :: t.reads
  | Write -> t.writes <- ms :: t.writes
  | Extra name ->
    Hashtbl.replace t.extra_samples name
      (ms :: Option.value (Hashtbl.find_opt t.extra_samples name) ~default:[])

let problem t msg =
  if List.length t.problems < 20 then t.problems <- msg :: t.problems

(* One attempted operation: timed, and counted as failed when it raises.
   An escaped exception never stops the run. *)
let timed t kind f =
  t.n_attempted <- t.n_attempted + 1;
  if t.settle then Gc.full_major ();
  let t0 = now () in
  match f () with
  | r ->
    record t kind (1000. *. (now () -. t0));
    Some r
  | exception e ->
    record t kind (1000. *. (now () -. t0));
    t.n_failed <- t.n_failed + 1;
    problem t ("escaped exception: " ^ Printexc.to_string e);
    None

(* A result the workload judged a failure (a shed, an unexpected error). *)
let failed t msg =
  t.n_failed <- t.n_failed + 1;
  problem t msg

let output t fmt = Printf.bprintf t.out fmt

let check t ok msg = if not ok then problem t ("check failed: " ^ msg)

let time ?(settle = false) f =
  if settle then Gc.full_major ();
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let finish t ~setup_s ~counts =
  { setup_s;
    reads_ms = List.rev t.reads;
    writes_ms = List.rev t.writes;
    extras =
      Hashtbl.fold (fun name xs acc -> (name, List.rev xs) :: acc) t.extra_samples []
      |> List.sort compare;
    busy_s = t.busy;
    attempted = t.n_attempted;
    failed = t.n_failed;
    digest = Digest.to_hex (Digest.string (Buffer.contents t.out));
    counts;
    errors = List.rev t.problems;
  }
