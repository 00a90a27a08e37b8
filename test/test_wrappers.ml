(* Each Kamping.Comm wrapper against the mpisim call it wraps.  Both
   bodies of a case run at p = 1 and p = 5; they must return the same
   per-rank result, record the same PMPI profile and end at the same
   simulated time: a wrapper issues exactly the hand-rolled MPI calls
   (paper Sec. III-H). *)

module K = Kamping.Comm
module C = Mpisim.Collectives
module P = Mpisim.P2p
module D = Mpisim.Datatype
module Op = Mpisim.Op
module Persist = Mpisim.Persist
module V = Ds.Vec

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))
let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))

let status (st : Mpisim.Request.status) =
  Printf.sprintf "src=%d tag=%d count=%d " st.source st.tag st.count

let algo = function Some a -> a | None -> "-"
let rank c = Mpisim.Comm.rank c
let next c = (rank c + 1) mod Mpisim.Comm.size c
let prev c = (rank c + Mpisim.Comm.size c - 1) mod Mpisim.Comm.size c
let shape c = Printf.sprintf "%d/%d" (Mpisim.Comm.rank c) (Mpisim.Comm.size c)

(* A send count no 31-bit MPI count can carry. *)
let big = D.max_small_count + 5

type case = { name : string; kamping : K.t -> string; mpisim : Mpisim.Comm.t -> string }

(* [prefix ~name wrapper wrapped dt op ~show ~input] is a prefix-reduction
   case over two elements per rank; rank 0's exscan buffer keeps its input
   on both sides. *)
let prefix ~name wrapper wrapped dt op ~show ~input =
  {
    name;
    kamping =
      (fun comm ->
        let send_buf = V.of_array (input (K.rank comm)) in
        show (V.to_array (wrapper comm dt op ~send_buf)));
    mpisim =
      (fun raw ->
        let sendbuf = input (rank raw) in
        let recvbuf = Array.copy sendbuf in
        wrapped raw dt op ~sendbuf ~recvbuf ~count:2;
        show recvbuf);
  }

let int_input r = [| r + 1; (3 * r) + 2 |]
let float_input r = [| float_of_int r +. 1.5; 0.5 -. float_of_int r |]

let cases =
  [
    prefix ~name:"scan int_prod" K.scan C.scan D.int Op.int_prod ~show:ints ~input:int_input;
    prefix ~name:"scan int_land" K.scan C.scan D.int Op.int_land ~show:ints ~input:int_input;
    prefix ~name:"scan float_prod" K.scan C.scan D.float Op.float_prod ~show:floats
      ~input:float_input;
    prefix ~name:"exscan int_lor" K.exscan C.exscan D.int Op.int_lor ~show:ints ~input:int_input;
    prefix ~name:"exscan int_lxor" K.exscan C.exscan D.int Op.int_lxor ~show:ints
      ~input:int_input;
    {
      name = "split";
      kamping =
        (fun comm ->
          let r = K.rank comm in
          match K.split comm ~color:(if r = 2 then -1 else r mod 2) ~key:(-r) with
          | Some c -> shape (K.raw c)
          | None -> "undefined");
      mpisim =
        (fun raw ->
          let r = rank raw in
          match C.split raw ~color:(if r = 2 then -1 else r mod 2) ~key:(-r) with
          | Some c -> shape c
          | None -> "undefined");
    };
    {
      name = "dup";
      kamping = (fun comm -> shape (K.raw (K.dup comm)));
      mpisim = (fun raw -> shape (C.dup raw));
    };
    {
      name = "issend";
      kamping =
        (fun comm ->
          let raw = K.raw comm in
          let h = K.issend comm D.int ~send_buf:(V.of_array [| rank raw; 7 |]) ~dst:(next raw) in
          let buf = Array.make 2 0 in
          let st = P.recv raw D.int buf ~src:(prev raw) ~tag:0 in
          ints (V.to_array (Kamping.Nb_result.wait h)) ^ status st ^ ints buf);
      mpisim =
        (fun raw ->
          let send = [| rank raw; 7 |] in
          let req = P.issend raw D.int send ~dst:(next raw) ~tag:0 in
          let buf = Array.make 2 0 in
          let st = P.recv raw D.int buf ~src:(prev raw) ~tag:0 in
          ignore (Mpisim.Request.wait req);
          ints send ^ status st ^ ints buf);
    };
    (let probe_then_recv iprobe raw =
       P.send raw D.int [| rank raw |] ~dst:(next raw) ~tag:5;
       let rec poll () =
         match iprobe () with
         | Some st -> st
         | None ->
             Mpisim.Comm.compute raw 1e-6;
             poll ()
       in
       let st = poll () in
       let buf = [| -1 |] in
       ignore (P.recv raw D.int buf ~src:(prev raw) ~tag:5);
       status st ^ ints buf
     in
     {
       name = "iprobe";
       kamping =
         (fun comm ->
           let raw = K.raw comm in
           probe_then_recv (fun () -> K.iprobe ~tag:5 comm ~src:(prev raw)) raw);
       mpisim = (fun raw -> probe_then_recv (fun () -> P.iprobe raw ~src:(prev raw) ~tag:5) raw);
     });
    {
      name = "ssend_init + start + free_request";
      kamping =
        (fun comm ->
          let raw = K.raw comm in
          let send_buf = V.of_array [| rank raw; 9 |] in
          let h = K.ssend_init comm D.int ~send_buf ~dst:(next raw) in
          let buf = Array.make 2 0 in
          K.start h;
          let st = P.recv raw D.int buf ~src:(prev raw) ~tag:0 in
          ignore (Persist.wait h);
          K.free_request h;
          status st ^ ints buf);
      mpisim =
        (fun raw ->
          let h = P.ssend_init raw D.int [| rank raw; 9 |] ~dst:(next raw) ~tag:0 in
          let buf = Array.make 2 0 in
          Persist.start h;
          let st = P.recv raw D.int buf ~src:(prev raw) ~tag:0 in
          ignore (Persist.wait h);
          Persist.free h;
          status st ^ ints buf);
    };
    {
      name = "psend_init + precv_init + startall";
      kamping =
        (fun comm ->
          let raw = K.raw comm in
          let hr, buf = K.precv_init ~partitions:2 ~count:1 comm D.int ~src:(prev raw) in
          let hs =
            K.psend_init comm D.int
              ~send_buf:(V.of_array [| rank raw; rank raw + 10 |])
              ~partitions:2 ~count:1 ~dst:(next raw)
          in
          K.startall [ hr; hs ];
          Persist.pready hs 1;
          Persist.pready hs 0;
          ignore (Persist.wait hs);
          let st = Persist.wait hr in
          K.free_request hs;
          K.free_request hr;
          status st ^ ints (V.to_array buf));
      mpisim =
        (fun raw ->
          let buf = Array.make 2 0 in
          let hr = P.precv_init raw D.int buf ~partitions:2 ~count:1 ~src:(prev raw) ~tag:0 in
          let hs =
            P.psend_init raw D.int [| rank raw; rank raw + 10 |] ~partitions:2 ~count:1
              ~dst:(next raw) ~tag:0
          in
          Persist.startall [ hr; hs ];
          Persist.pready hs 1;
          Persist.pready hs 0;
          ignore (Persist.wait hs);
          let st = Persist.wait hr in
          Persist.free hs;
          Persist.free hr;
          status st ^ ints buf);
    };
    {
      name = "bcast_init";
      kamping =
        (fun comm ->
          let buf = V.of_array (if K.rank comm = 1 then [| 4; 5; 6 |] else [| 0; 0; 0 |]) in
          let root = 1 mod K.size comm in
          let h = K.bcast_init ~root comm D.int ~send_recv_buf:buf in
          for _ = 1 to 2 do
            K.start h;
            ignore (Persist.wait h)
          done;
          K.free_request h;
          ints (V.to_array buf));
      mpisim =
        (fun raw ->
          let buf = if rank raw = 1 then [| 4; 5; 6 |] else [| 0; 0; 0 |] in
          let root = 1 mod Mpisim.Comm.size raw in
          let h = C.bcast_init raw D.int buf ~root in
          for _ = 1 to 2 do
            Persist.start h;
            ignore (Persist.wait h)
          done;
          Persist.free h;
          ints buf);
    };
    {
      name = "send_sparse + recv_sparse";
      kamping =
        (fun comm ->
          let raw = K.raw comm in
          K.send_sparse comm D.char ~count:big ~dst:(next raw);
          status (K.recv_sparse comm D.char ~capacity:big ~src:(prev raw)));
      mpisim =
        (fun raw ->
          P.send_sparse raw D.char ~count:big ~dst:(next raw) ~tag:0;
          status (P.recv_sparse raw D.char ~capacity:big ~src:(prev raw) ~tag:0));
    };
    {
      name = "pinned_algorithm + unpin_algorithm";
      kamping =
        (fun comm ->
          K.pin_algorithm comm ~coll:"bcast" ~algo:"scatter_allgather";
          let pinned = K.pinned_algorithm comm ~coll:"bcast" in
          let buf = V.of_array (Array.make 6 (K.rank comm)) in
          K.bcast comm D.int ~send_recv_buf:buf;
          K.unpin_algorithm comm ~coll:"bcast";
          let after = K.pinned_algorithm comm ~coll:"bcast" in
          K.bcast comm D.int ~send_recv_buf:buf;
          String.concat " " [ algo pinned; algo after; ints (V.to_array buf) ]);
      mpisim =
        (fun raw ->
          C.pin_algorithm raw ~coll:"bcast" ~algo:"scatter_allgather";
          let pinned = C.pinned_algorithm raw ~coll:"bcast" in
          let buf = Array.make 6 (rank raw) in
          C.bcast raw D.int buf ~root:0;
          C.unpin_algorithm raw ~coll:"bcast";
          let after = C.pinned_algorithm raw ~coll:"bcast" in
          C.bcast raw D.int buf ~root:0;
          String.concat " " [ algo pinned; algo after; ints buf ]);
    };
  ]

let outcome ~ranks f =
  let res = Tutil.run_full ~ranks f in
  let results =
    Array.map (function Ok s -> s | Error e -> raise e) res.Mpisim.Mpi.results
  in
  (results, res.Mpisim.Mpi.profile, res.Mpisim.Mpi.sim_time)

let test_wrappers_issue_the_wrapped_calls () =
  List.iter
    (fun case ->
      List.iter
        (fun ranks ->
          let label what = Printf.sprintf "%s at p=%d: %s" case.name ranks what in
          let k_results, k_profile, k_time =
            outcome ~ranks (fun raw -> case.kamping (K.wrap raw))
          in
          let m_results, m_profile, m_time = outcome ~ranks case.mpisim in
          Alcotest.(check (array string)) (label "results") m_results k_results;
          Alcotest.(check (list (pair string int)))
            (label "calls") m_profile.Mpisim.Profiling.calls k_profile.Mpisim.Profiling.calls;
          Alcotest.(check bool) (label "profile") true (m_profile = k_profile);
          Alcotest.(check bool) (label "simulated time") true (Float.equal m_time k_time))
        [ 1; 5 ])
    cases

(* The builtin reductions the cases use are the predefined operations; a
   lambda is not. *)
let test_builtin_ops () =
  List.iter
    (fun (name, builtin) -> Alcotest.(check bool) name true builtin)
    [
      ("int_prod", Op.is_builtin Op.int_prod);
      ("int_land", Op.is_builtin Op.int_land);
      ("int_lor", Op.is_builtin Op.int_lor);
      ("int_lxor", Op.is_builtin Op.int_lxor);
      ("float_prod", Op.is_builtin Op.float_prod);
    ];
  Alcotest.(check bool) "lambda" false (Op.is_builtin (Op.of_fun ( + )))

(* A star graph: rank 0 sends to every other rank, so its in- and
   out-degree differ from everyone else's. *)
let test_graph_degrees () =
  let degrees =
    Tutil.run ~ranks:5 (fun raw ->
        let p = Mpisim.Comm.size raw in
        let others = Array.init (p - 1) (fun i -> i + 1) in
        let topo =
          if rank raw = 0 then
            Mpisim.Topology.dist_graph_create_adjacent raw ~sources:[||] ~destinations:others
          else Mpisim.Topology.dist_graph_create_adjacent raw ~sources:[| 0 |] ~destinations:[||]
        in
        (Mpisim.Topology.indegree topo, Mpisim.Topology.outdegree topo))
  in
  Array.iteri
    (fun r (indegree, outdegree) ->
      let want = if r = 0 then (0, 4) else (1, 0) in
      Alcotest.(check (pair int int)) (Printf.sprintf "rank %d" r) want (indegree, outdegree))
    degrees

let suite =
  [
    Alcotest.test_case "each wrapper issues exactly the wrapped calls" `Quick
      test_wrappers_issue_the_wrapped_calls;
    Alcotest.test_case "builtin reduction ops" `Quick test_builtin_ops;
    Alcotest.test_case "dist graph degrees" `Quick test_graph_degrees;
  ]
