(* Host-side profiler with enum granularity levels (exemplar: OCCAM-Nim's
   profile.nim — SNIPPETS.md Snippet 3): Off must be free, Coarse times
   whole operations, Fine adds event-loop counters and peak-RSS tracking.

   The profiler is a strict observer: it only ever reads the wall clock
   and its own tables, never simulation state, so enabling it cannot
   perturb a schedule (proven over the whole gallery in
   test/test_engine_scale.ml).  When Off, every instrumentation site costs
   exactly one immediate-value comparison. *)

type level = Off | Coarse | Fine

type op_stats = {
  mutable calls : int;
  mutable total_ns : int;
  mutable min_ns : int;
  mutable max_ns : int;
}

type state = {
  mutable lvl : level;
  ops : (string, op_stats) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
}

let state = { lvl = Off; ops = Hashtbl.create 16; counters = Hashtbl.create 16 }

let current () = state.lvl
let set_level l = state.lvl <- l
let fine () = state.lvl = Fine

let with_level l f =
  let old = state.lvl in
  state.lvl <- l;
  Fun.protect ~finally:(fun () -> state.lvl <- old) f

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let add_span name ~ns =
  if state.lvl <> Off then begin
    match Hashtbl.find_opt state.ops name with
    | Some s ->
        s.calls <- s.calls + 1;
        s.total_ns <- s.total_ns + ns;
        if ns < s.min_ns then s.min_ns <- ns;
        if ns > s.max_ns then s.max_ns <- ns
    | None ->
        Hashtbl.add state.ops name { calls = 1; total_ns = ns; min_ns = ns; max_ns = ns }
  end

let span name f =
  if state.lvl = Off then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> add_span name ~ns:(now_ns () - t0)) f
  end

let add_count name n =
  if state.lvl = Fine then begin
    match Hashtbl.find_opt state.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add state.counters name (ref n)
  end

let record_max name n =
  if state.lvl = Fine then begin
    match Hashtbl.find_opt state.counters name with
    | Some r -> if n > !r then r := n
    | None -> Hashtbl.add state.counters name (ref n)
  end

(* Linux: VmHWM ("high-water mark" of the resident set) from
   /proc/self/status; 0 where unavailable.  Read lazily at snapshot time —
   never on a hot path. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
              let digits = String.to_seq line |> Seq.filter (fun c -> c >= '0' && c <= '9') in
              let s = String.of_seq digits in
              if s = "" then 0 else int_of_string s
            end
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

type snapshot = {
  slevel : level;
  ops : (string * op_stats) list; (* sorted by name *)
  counters : (string * int) list; (* sorted by name *)
  rss_kb : int;
}

let snapshot () =
  {
    slevel = state.lvl;
    ops =
      Hashtbl.fold
        (fun name s acc ->
          (name, { calls = s.calls; total_ns = s.total_ns; min_ns = s.min_ns; max_ns = s.max_ns })
          :: acc)
        state.ops []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    counters =
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) state.counters []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    rss_kb = (if state.lvl = Fine then peak_rss_kb () else 0);
  }

let reset () =
  Hashtbl.reset state.ops;
  Hashtbl.reset state.counters
