let class_name = function
  | Analysis.Late_sender -> "late-sender"
  | Analysis.Late_receiver -> "late-receiver"
  | Analysis.Wait_at_collective -> "wait-at-collective"

let ms t = t *. 1e3

let to_string (r : Analysis.report) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let d = r.data in
  pf "trace: %d ranks, %d spans, %d messages, %d waits, total %.3f ms\n"
    d.ranks (List.length d.spans)
    (List.length d.messages)
    (List.length d.waits) (ms d.total);
  pf "%-5s %12s %12s %12s %12s %12s %12s\n" "rank" "span(ms)" "work(ms)"
    "wait(ms)" "late-snd" "late-rcv" "coll-wait";
  Array.iter
    (fun (s : Analysis.rank_stats) ->
      pf "%-5d %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f\n" s.rank
        (ms s.span) (ms s.working) (ms s.waiting) (ms s.late_sender)
        (ms s.late_receiver) (ms s.coll_wait))
    r.per_rank;
  (match r.wait_states with
  | [] -> pf "no classified wait states\n"
  | ws ->
      pf "top wait states (of %d):\n" (List.length ws);
      List.iteri
        (fun i w ->
          if i < 5 then
            pf "  %-18s rank %d%s  %-20s %10.3f ms at t=%.3f ms\n"
              (class_name w.Analysis.ws_class)
              w.ws_rank
              (if w.ws_peer >= 0 then Printf.sprintf " <- %d" w.ws_peer
               else "")
              w.ws_op (ms w.ws_amount) (ms w.ws_time))
        ws);
  let run, blocked, transfer =
    List.fold_left
      (fun (r0, bl, tr) (s : Analysis.step) ->
        let d = s.st_t1 -. s.st_t0 in
        match s.st_kind with
        | Analysis.Run -> (r0 +. d, bl, tr)
        | Analysis.Blocked -> (r0, bl +. d, tr)
        | Analysis.Transfer -> (r0, bl, tr +. d))
      (0.0, 0.0, 0.0) r.critical_path
  in
  pf
    "critical path: %d steps, %.3f ms (run %.3f, transfer %.3f, blocked \
     %.3f)\n"
    (List.length r.critical_path)
    (ms (Analysis.critical_length r))
    (ms run) (ms transfer) (ms blocked);
  Buffer.contents b

let print r = print_string (to_string r)
