(* Ablation studies for the design choices the library makes:
   1. network sensitivity — how the grid-vs-alltoallv crossover moves when
      the fabric's latency shrinks (the grid plugin trades volume for
      start-ups, so cheap start-ups erode its advantage);
   2. NBX poll interval — termination-detection responsiveness vs. CPU;
   3. sample-sort oversampling — the 16 log p + 1 choice vs. smaller and
      larger sampling factors (splitter quality = load balance);
   4. assertion levels — what the leveled checks cost on the wire. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module V = Ds.Vec
module Gen = Graphgen.Generators

(* -------- 1. network sensitivity -------- *)

let bfs_time ?net strategy ~ranks =
  let global_n = ranks * 1024 in
  let res =
    Mpisim.Mpi.run ?net ~ranks (fun comm ->
        let graph =
          Gen.generate Gen.Rhg ~rank:(Mpisim.Comm.rank comm) ~comm_size:ranks ~global_n
            ~avg_degree:8 ~seed:31
        in
        let t0 = Mpisim.Comm.now comm in
        let (_ : int array) = strategy comm graph ~src:0 in
        Mpisim.Comm.now comm -. t0)
  in
  Array.fold_left Float.max 0.0 (Mpisim.Mpi.results_exn res)

let network_sensitivity () =
  let nets =
    [ ("default (2us latency)", Simnet.Netmodel.default);
      ("low latency (0.5us)", Simnet.Netmodel.low_latency) ]
  in
  let rows =
    List.map
      (fun (name, net) ->
        let direct = bfs_time ~net Apps.Bfs_kamping.bfs ~ranks:64 in
        let grid = bfs_time ~net Apps.Bfs_strategies.bfs_grid ~ranks:64 in
        [ name; Table_fmt.seconds direct; Table_fmt.seconds grid;
          Printf.sprintf "%.2fx" (direct /. grid) ])
      nets
  in
  Table_fmt.print_table ~title:"Ablation 1 - grid advantage vs. network latency (BFS rhg, p=64)"
    ~header:[ "network"; "alltoallv"; "grid"; "grid speedup" ]
    rows;
  print_endline "  (cheaper start-ups shrink the start-up-saving grid's advantage)"

(* -------- 1b. indirection dimension sweep (paper Sec. VI) -------- *)

let dimension_sweep () =
  let ranks = 64 in
  let global_n = ranks * 1024 in
  let exchange_time make_exchange =
    let res =
      Mpisim.Mpi.run ~ranks (fun raw ->
          let comm = K.wrap raw in
          let graph =
            Gen.generate Gen.Erdos_renyi ~rank:(K.rank comm) ~comm_size:ranks ~global_n
              ~avg_degree:8 ~seed:31
          in
          let exchange = make_exchange comm in
          let st = Apps.Bfs_common.init raw graph 0 in
          let all_empty (st : Apps.Bfs_common.state) empty =
            K.allreduce_single (K.wrap st.Apps.Bfs_common.comm) D.bool Mpisim.Op.bool_and empty
          in
          let t0 = K.now comm in
          let (_ : int array) = Apps.Bfs_common.run st ~exchange ~all_empty in
          K.now comm -. t0)
    in
    Array.fold_left Float.max 0.0 (Mpisim.Mpi.results_exn res)
  in
  let direct comm =
    ignore comm;
    fun (st : Apps.Bfs_common.state) remote ->
      let kc = K.wrap st.Apps.Bfs_common.comm in
      let flat = Kamping.Flatten.flatten ~comm_size:(K.size kc) remote in
      (K.alltoallv_flat kc D.int flat).K.recv_buf
  in
  let hyper ndims comm =
    let hg = Kamping_plugins.Hypergrid.create comm ~ndims in
    fun (st : Apps.Bfs_common.state) remote ->
      let p = Mpisim.Comm.size st.Apps.Bfs_common.comm in
      let data, send_counts = Apps.Bfs_common.flatten_buckets p remote in
      fst (Kamping_plugins.Hypergrid.alltoallv hg D.int ~send_buf:data ~send_counts)
  in
  let rows =
    [ ("direct alltoallv (63 partners)", exchange_time direct);
      ("2d grid (14 partners, 2x volume)", exchange_time (hyper 2));
      ("3d grid (9 partners, 3x volume)", exchange_time (hyper 3)) ]
  in
  Table_fmt.print_table
    ~title:"Ablation 1b - indirection dimension (BFS erdos-renyi, p=64; Sec. VI future work)"
    ~header:[ "routing"; "time" ]
    (List.map (fun (name, t) -> [ name; Table_fmt.seconds t ]) rows)

(* -------- 1c. hierarchical fabric (node-aware) -------- *)

let node_awareness () =
  let ranks = 64 in
  let bfs ?fabric strategy =
    let global_n = ranks * 1024 in
    let res =
      Mpisim.Mpi.run ?fabric ~ranks (fun comm ->
          let graph =
            Gen.generate Gen.Erdos_renyi ~rank:(Mpisim.Comm.rank comm) ~comm_size:ranks ~global_n
              ~avg_degree:8 ~seed:31
          in
          let t0 = Mpisim.Comm.now comm in
          let (_ : int array) = strategy comm graph ~src:0 in
          Mpisim.Comm.now comm -. t0)
    in
    Array.fold_left Float.max 0.0 (Mpisim.Mpi.results_exn res)
  in
  (* node size 8 = grid row width: phase 1 of the grid plugin becomes
     intra-node traffic *)
  let fabric = Simnet.Netmodel.two_tier ~node_size:8 ~ranks () in
  let rows =
    [
      [ "flat fabric"; Table_fmt.seconds (bfs Apps.Bfs_kamping.bfs);
        Table_fmt.seconds (bfs Apps.Bfs_strategies.bfs_grid) ];
      [ "8-rank nodes (rows = nodes)"; Table_fmt.seconds (bfs ~fabric Apps.Bfs_kamping.bfs);
        Table_fmt.seconds (bfs ~fabric Apps.Bfs_strategies.bfs_grid) ];
    ]
  in
  Table_fmt.print_table
    ~title:"Ablation 1c - node-aware fabric (BFS erdos-renyi, p=64, 8 ranks/node)"
    ~header:[ "fabric"; "alltoallv"; "grid" ]
    rows;
  print_endline
    "  (the grid's first hop stays inside the node when rows align with nodes)"

(* -------- 2. NBX poll interval -------- *)

let nbx_poll_sensitivity () =
  let time_with poll_interval =
    let ranks = 32 in
    let res =
      Mpisim.Mpi.run ~ranks (fun raw ->
          let comm = K.wrap raw in
          let r = K.rank comm in
          let t0 = K.now comm in
          for round = 1 to 5 do
            ignore
              (Kamping_plugins.Sparse_alltoall.exchange ~tag:(0x900 + round) ~poll_interval comm
                 D.int
                 ~messages:[ ((r + 1) mod ranks, V.make 16 r) ])
          done;
          K.now comm -. t0)
    in
    Array.fold_left Float.max 0.0 (Mpisim.Mpi.results_exn res)
  in
  let rows =
    List.map
      (fun poll ->
        [ Printf.sprintf "%.1f us" (1e6 *. poll); Table_fmt.seconds (time_with poll) ])
      [ 0.2e-6; 1.0e-6; 5.0e-6; 20.0e-6 ]
  in
  Table_fmt.print_table ~title:"Ablation 2 - NBX poll interval (5 sparse rounds, p=32)"
    ~header:[ "poll interval"; "time" ] rows

(* -------- 3. sample sort oversampling -------- *)

let oversampling_quality () =
  let ranks = 16 and n_per_rank = 4000 in
  let imbalance oversampling =
    let res =
      Mpisim.Mpi.run ~ranks (fun raw ->
          let comm = K.wrap raw in
          let rng = Simnet.Rng.split (Simnet.Rng.create 3L) (K.rank comm) in
          let data = V.init n_per_rank (fun _ -> Simnet.Rng.int rng 1_000_000) in
          let sorted = Kamping_plugins.Sorter.sort ~oversampling comm D.int ~cmp:compare data in
          V.length sorted)
    in
    let sizes = Mpisim.Mpi.results_exn res in
    let max_size = Array.fold_left max 0 sizes in
    float_of_int max_size /. (float_of_int (ranks * n_per_rank) /. float_of_int ranks)
  in
  let logp = int_of_float (ceil (log (float_of_int ranks) /. log 2.0)) in
  let rows =
    List.map
      (fun (label, s) -> [ label; string_of_int s; Printf.sprintf "%.2f" (imbalance s) ])
      [
        ("1 (minimal)", 1);
        ("4 log p", 4 * logp);
        ("16 log p + 1 (paper)", (16 * logp) + 1);
        ("64 log p", 64 * logp);
      ]
  in
  Table_fmt.print_table
    ~title:"Ablation 3 - sample sort oversampling vs. load imbalance (p=16)"
    ~header:[ "oversampling"; "samples/rank"; "max load / avg load" ]
    rows

(* -------- 4. assertion levels -------- *)

let assertion_levels () =
  let profile level =
    let res =
      Kamping.Assertions.with_level level (fun () ->
          Mpisim.Mpi.run ~ranks:8 (fun raw ->
              let comm = K.wrap raw in
              ignore (K.allgather comm D.int ~send_buf:(V.make 4 (K.rank comm)))))
    in
    let prof = res.Mpisim.Mpi.profile in
    let calls = List.fold_left (fun acc (_, c) -> acc + c) 0 prof.Mpisim.Profiling.calls in
    (calls, prof.Mpisim.Profiling.messages, res.Mpisim.Mpi.sim_time)
  in
  let rows =
    List.map
      (fun (name, level) ->
        let calls, messages, time = profile level in
        [ name; string_of_int calls; string_of_int messages; Table_fmt.seconds time ])
      [
        ("off", Kamping.Assertions.Off);
        ("light (default)", Kamping.Assertions.Light);
        ("normal", Kamping.Assertions.Normal);
        ("heavy (communicating)", Kamping.Assertions.Heavy);
      ]
  in
  Table_fmt.print_table ~title:"Ablation 4 - assertion levels on one allgather (p=8)"
    ~header:[ "level"; "MPI calls"; "messages"; "simulated time" ]
    rows

let run () =
  network_sensitivity ();
  dimension_sweep ();
  node_awareness ();
  nbx_poll_sensitivity ();
  oversampling_quality ();
  assertion_levels ()
