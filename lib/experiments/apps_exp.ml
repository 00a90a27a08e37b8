(* The application-gallery benchmark (BENCH_apps.json): the scenario
   wave's three workloads as self-validated gates.

   1. {b PageRank exchange crossover} — one PageRank configuration per
      (family, degree) cell, run through the sparse (NBX), dense (tuned
      alltoallv) and neighborhood-collective exchange variants.  The
      interesting output is the crossover: low-locality families
      amortize the dense exchange, high-locality ones favour the
      sparse/neighbor paths.  Gate: all variants bit-identical to the
      sequential oracle; the timing spread is reported, not gated.

   2. {b CG transport parity} — the stencil solve through p2p,
      persistent-channel and RMA halos.  Gate: bit-identical iterates
      and residuals; p2p and persistent within a noise band (they issue
      the same message pattern), RMA reported.

   3. {b Streaming windows} — the aggregator pipeline against the
      sequential oracle, exact. *)

module J = Serde.Json
module K = Kamping.Comm
module C = Apps.Cg_stencil
module S = Apps.Stream_analytics
module Gen = Graphgen.Generators

(* ---------------- gate 1: pagerank crossover ---------------- *)

let pr_ranks = 8
let pr_n = 256
let pr_alpha = 0.85
let pr_iters = 6

type pr_row = {
  family : Gen.family;
  degree : int;
  times : (Apps.Gexchange.variant * float) list;
  exact : bool;
}

let pagerank_cell family degree =
  let seed = 71 in
  let expect =
    Apps.Pagerank.reference family ~global_n:pr_n ~avg_degree:degree ~seed ~alpha:pr_alpha
      ~iters:pr_iters
  in
  let one variant =
    let res =
      Mpisim.Mpi.run ~ranks:pr_ranks (fun raw ->
          let g =
            Gen.generate family ~rank:(Mpisim.Comm.rank raw) ~comm_size:pr_ranks ~global_n:pr_n
              ~avg_degree:degree ~seed
          in
          Apps.Pagerank.run ~variant (K.wrap raw) g ~alpha:pr_alpha ~iters:pr_iters)
    in
    let scores = Array.concat (Array.to_list (Mpisim.Mpi.results_exn res)) in
    (res.Mpisim.Mpi.sim_time, scores = expect)
  in
  let cells = List.map (fun v -> (v, one v)) Apps.Gexchange.all_variants in
  {
    family;
    degree;
    times = List.map (fun (v, (t, _)) -> (v, t)) cells;
    exact = List.for_all (fun (_, (_, ok)) -> ok) cells;
  }

let pr_cells = [ (Gen.Erdos_renyi, 4); (Gen.Erdos_renyi, 12); (Gen.Rgg2d, 4); (Gen.Rgg2d, 12) ]

let winner row =
  match List.sort (fun (_, a) (_, b) -> compare a b) row.times with
  | (v, _) :: _ -> Apps.Gexchange.variant_name v
  | [] -> "-"

(* ---------------- gate 2: cg transport parity ---------------- *)

let cg_ranks = 6
let cg_dims = [| 3; 2 |]
let cg_nx = 30
let cg_ny = 24
let cg_iters = 20
let cg_seed = 17

type cg_row = { transport : C.transport; time : float; exact : bool }

let cg_runs () =
  let ref_field, ref_rr = C.reference ~dims:cg_dims ~nx:cg_nx ~ny:cg_ny ~iters:cg_iters ~seed:cg_seed in
  let assemble rs =
    let field = Array.make (cg_nx * cg_ny) 0.0 in
    Array.iter
      (fun r ->
        for k = 0 to (r.C.lx * r.C.ly) - 1 do
          field.(((r.C.gi0 + (k / r.C.ly)) * cg_ny) + r.C.gj0 + (k mod r.C.ly)) <- r.C.x.(k)
        done)
      rs;
    field
  in
  List.map
    (fun transport ->
      let res =
        Mpisim.Mpi.run ~ranks:cg_ranks (fun raw ->
            C.solve ~transport (K.wrap raw) ~dims:cg_dims ~nx:cg_nx ~ny:cg_ny ~iters:cg_iters
              ~seed:cg_seed)
      in
      let rs = Mpisim.Mpi.results_exn res in
      let exact = assemble rs = ref_field && Array.for_all (fun r -> r.C.rr = ref_rr) rs in
      { transport; time = res.Mpisim.Mpi.sim_time; exact })
    C.all_transports

let time_of rows t = (List.find (fun r -> r.transport = t) rows).time

(* ---------------- gate 3: streaming windows ---------------- *)

let stream_cfg =
  {
    S.n_shards = 8;
    windows = 4;
    events_per_shard = 64;
    n_keys = 16;
    n_values = 48;
    topk = 4;
    threshold = 16;
    flush_every = 40e-6;
    seed = 29;
  }

let stream_run () =
  let expect = S.reference stream_cfg in
  let res = Mpisim.Mpi.run ~ranks:4 (fun raw -> S.run (K.wrap raw) stream_cfg) in
  let per_rank = Mpisim.Mpi.results_exn res in
  (res.Mpisim.Mpi.sim_time, Array.for_all (fun r -> r = expect) per_rank)

let run () =
  Printf.printf "Application gallery: exchange crossover, CG halo transports, streaming windows\n\n";
  let pr_rows = List.map (fun (f, d) -> pagerank_cell f d) pr_cells in
  Table_fmt.print_table
    ~title:
      (Printf.sprintf "PageRank exchange variants (p=%d, n=%d, %d iters)" pr_ranks pr_n pr_iters)
    ~header:[ "family"; "degree"; "sparse"; "dense"; "neighbor"; "fastest"; "exact" ]
    (List.map
       (fun row ->
         Gen.family_name row.family :: string_of_int row.degree
         :: List.map (fun (_, t) -> Table_fmt.seconds t) row.times
         @ [ winner row; string_of_bool row.exact ])
       pr_rows);
  print_endline "  (dense amortizes on low-locality families; locality favours sparse/neighbor)";
  let pr_ok = List.for_all (fun (r : pr_row) -> r.exact) pr_rows in

  let cg_rows = cg_runs () in
  Table_fmt.print_table
    ~title:
      (Printf.sprintf "CG halo transports (%dx%d grid, %dx%d ranks, %d iters)" cg_nx cg_ny
         cg_dims.(0) cg_dims.(1) cg_iters)
    ~header:[ "transport"; "sim time"; "exact" ]
    (List.map
       (fun r -> [ C.transport_name r.transport; Table_fmt.seconds r.time; string_of_bool r.exact ])
       cg_rows);
  let cg_exact = List.for_all (fun r -> r.exact) cg_rows in
  (* p2p and persistent halos move the same bytes over the same edges;
     their times may only differ by per-call software setup noise *)
  let p2p_t = time_of cg_rows C.P2p and pers_t = time_of cg_rows C.Persistent in
  let cg_noise = max p2p_t pers_t /. min p2p_t pers_t in
  let cg_noise_ok = cg_noise <= 1.25 in
  Printf.printf "  p2p vs persistent spread: %.3fx (gate <= 1.25x)\n\n" cg_noise;

  let stream_time, stream_ok = stream_run () in
  Printf.printf "Streaming windows: %d windows over %d shards in %s — oracle exact: %b\n\n"
    stream_cfg.S.windows stream_cfg.S.n_shards (Table_fmt.seconds stream_time) stream_ok;

  let json =
    J.Obj
      [
        ( "config",
          J.Obj
            [
              ( "pagerank",
                J.Obj
                  [
                    ("ranks", J.Num (float_of_int pr_ranks));
                    ("global_n", J.Num (float_of_int pr_n));
                    ("iters", J.Num (float_of_int pr_iters));
                  ] );
              ( "cg",
                J.Obj
                  [
                    ("ranks", J.Num (float_of_int cg_ranks));
                    ("nx", J.Num (float_of_int cg_nx));
                    ("ny", J.Num (float_of_int cg_ny));
                    ("iters", J.Num (float_of_int cg_iters));
                  ] );
              ( "stream",
                J.Obj
                  [
                    ("shards", J.Num (float_of_int stream_cfg.S.n_shards));
                    ("windows", J.Num (float_of_int stream_cfg.S.windows));
                  ] );
            ] );
        ( "pagerank_crossover",
          J.List
            (List.map
               (fun row ->
                 J.Obj
                   (("family", J.Str (Gen.family_name row.family))
                    :: ("degree", J.Num (float_of_int row.degree))
                    :: ("fastest", J.Str (winner row))
                    :: List.map
                         (fun (v, t) -> (Apps.Gexchange.variant_name v, J.Num t))
                         row.times))
               pr_rows) );
        ( "cg_transports",
          J.Obj
            (("p2p_vs_persistent_spread", J.Num cg_noise)
             :: List.map (fun r -> (C.transport_name r.transport, J.Num r.time)) cg_rows) );
        ("stream_sim_time_s", J.Num stream_time);
      ]
  in
  Bench_report.report ~name:"apps" ~path:"BENCH_apps.json" json
    [
      ("pagerank_variants_oracle_exact", pr_ok);
      ("cg_transports_bit_identical", cg_exact);
      ("cg_p2p_persistent_within_noise", cg_noise_ok);
      ("stream_oracle_exact", stream_ok);
    ]
