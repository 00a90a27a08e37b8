(* Tests for process groups, group-collective communicator creation, the
   hierarchical network model and the *_single convenience wrappers. *)

module Fabric = Topology.Fabric
open Mpisim
module K = Kamping.Comm
module V = Ds.Vec

let run = Tutil.run

let test_group_set_ops () =
  ignore
    (run ~ranks:6 (fun comm ->
         let g = Group.of_comm comm in
         Alcotest.(check int) "size" 6 (Group.size g);
         let evens = Group.incl g [| 0; 2; 4 |] in
         Alcotest.(check int) "incl size" 3 (Group.size evens);
         let odds = Group.excl g [| 0; 2; 4 |] in
         Alcotest.(check int) "excl size" 3 (Group.size odds);
         Alcotest.(check int) "union" 6 (Group.size (Group.union evens odds));
         Alcotest.(check int) "intersection" 0 (Group.size (Group.intersection evens odds));
         let low = Group.incl g [| 0; 1; 2; 3 |] in
         Alcotest.(check int) "difference" 2 (Group.size (Group.difference low evens));
         Alcotest.(check bool) "duplicate rejected" true
           (match Group.incl g [| 1; 1 |] with
           | (_ : Group.t) -> false
           | exception Errors.Usage_error _ -> true)))

let test_group_translate () =
  ignore
    (run ~ranks:5 (fun comm ->
         let g = Group.of_comm comm in
         let sub = Group.incl g [| 4; 2; 0 |] in
         let translated = Group.translate_ranks sub [| 0; 1; 2 |] g in
         Alcotest.(check (array (option int))) "positions in world group"
           [| Some 4; Some 2; Some 0 |] translated;
         let back = Group.translate_ranks g [| 0; 1; 2; 3; 4 |] sub in
         Alcotest.(check (array (option int))) "reverse, with misses"
           [| Some 2; None; Some 1; None; Some 0 |] back))

let test_comm_create_group () =
  (* only the group members participate — the excluded rank does other
     work, which MPI_Comm_create could not allow *)
  let results =
    run ~ranks:5 (fun comm ->
        let r = Comm.rank comm in
        let g = Group.excl (Group.of_comm comm) [| 2 |] in
        match Group.rank_in g comm with
        | Some _ ->
            let sub = Group.comm_create_group comm g ~tag:99 in
            let out = Array.make (Comm.size sub) (-1) in
            Collectives.allgather sub Datatype.int ~sendbuf:[| r |] ~recvbuf:out ~count:1;
            Array.to_list out
        | None -> [ -2 ] (* rank 2 never joins *))
  in
  Alcotest.(check (list int)) "members" [ 0; 1; 3; 4 ] results.(0);
  Alcotest.(check (list int)) "excluded did not participate" [ -2 ] results.(2)

let test_hierarchical_network_faster_intra () =
  let ping ?fabric () =
    let res =
      Mpisim.Mpi.run ?fabric ~ranks:4 (fun comm ->
          if Comm.rank comm = 0 then
            P2p.send comm Datatype.int (Array.make 1000 7) ~dst:1 ~tag:0
          else if Comm.rank comm = 1 then
            ignore (P2p.recv comm Datatype.int (Array.make 1000 0) ~src:0 ~tag:0))
    in
    res.Mpisim.Mpi.sim_time
  in
  let flat = ping () in
  let hier = ping ~fabric:(Simnet.Netmodel.two_tier ~node_size:2 ~ranks:4 ()) () in
  Alcotest.(check bool)
    (Printf.sprintf "intra-node cheaper (%.2fus vs %.2fus)" (1e6 *. hier) (1e6 *. flat))
    true (hier < flat)

let test_hierarchical_inter_node_unchanged () =
  (* every rank on its own single-rank node: the fabric is the flat model,
     so p2p traffic and every collective's selection replay bit for bit *)
  let ranks = 6 in
  let job ?fabric () =
    let res =
      Mpisim.Mpi.run ?fabric ~ranks (fun comm ->
          let r = Comm.rank comm in
          if r = 0 then P2p.send comm Datatype.int [| 1 |] ~dst:1 ~tag:0
          else if r = 1 then ignore (P2p.recv comm Datatype.int [| 0 |] ~src:0 ~tag:0);
          let sum = Array.make 64 0 in
          Collectives.allreduce comm Datatype.int Op.int_sum ~sendbuf:(Array.make 64 r)
            ~recvbuf:sum ~count:64;
          let x = Array.make (4 * ranks) 0 in
          Collectives.alltoall comm Datatype.int ~sendbuf:(Array.make (4 * ranks) r) ~recvbuf:x
            ~count:4;
          let b = Array.make 1000 r in
          Collectives.bcast comm Datatype.int b ~root:2;
          (sum, x, b))
    in
    (Int64.bits_of_float res.Mpi.sim_time, res.Mpi.events, Mpi.results_exn res)
  in
  let flat = job () and one_per_node = job ~fabric:(Simnet.Netmodel.two_tier ~node_size:1 ~ranks ()) () in
  Alcotest.(check bool) "node_size 1 = flat, bit for bit" true (flat = one_per_node)

let test_single_wrappers () =
  ignore
    (run ~ranks:4 (fun raw ->
         let comm = K.wrap raw in
         let r = K.rank comm in
         (match K.reduce_single ~root:2 comm Datatype.int Op.int_sum (r + 1) with
         | Some total -> Alcotest.(check int) "reduce_single at root" 10 total
         | None -> Alcotest.(check bool) "non-root gets None" true (r <> 2));
         let gathered = K.gather_single ~root:1 comm Datatype.int (r * r) in
         if r = 1 then
           Alcotest.(check (list int)) "gather_single" [ 0; 1; 4; 9 ] (V.to_list gathered)
         else Alcotest.(check int) "others empty" 0 (V.length gathered)))

let suite =
  [
    Alcotest.test_case "group set operations" `Quick test_group_set_ops;
    Alcotest.test_case "group rank translation" `Quick test_group_translate;
    Alcotest.test_case "comm_create_group" `Quick test_comm_create_group;
    Alcotest.test_case "hierarchical net: intra-node cheaper" `Quick
      test_hierarchical_network_faster_intra;
    Alcotest.test_case "hierarchical net: degenerate = flat" `Quick
      test_hierarchical_inter_node_unchanged;
    Alcotest.test_case "reduce_single / gather_single" `Quick test_single_wrappers;
  ]
