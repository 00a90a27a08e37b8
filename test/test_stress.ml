(* Stress and corner-case tests: large fiber counts, nested communicator
   management, repeated failure recovery, derived datatypes on the wire,
   and receive-capacity semantics. *)

open Mpisim
module K = Kamping.Comm
module V = Ds.Vec

let run = Tutil.run

let test_many_ranks () =
  (* 512 fibers through a full allreduce: exercises the event engine at a
     scale well above the benchmarks *)
  let results =
    run ~ranks:512 (fun comm ->
        let out = Array.make 1 0 in
        Collectives.allreduce comm Datatype.int Op.int_sum ~sendbuf:[| 1 |] ~recvbuf:out ~count:1;
        out.(0))
  in
  Array.iter (fun v -> Alcotest.(check int) "512-rank allreduce" 512 v) results

let test_nested_splits () =
  (* split a split of a split; leaf communicators stay consistent *)
  ignore
    (run ~ranks:12 (fun comm ->
         let r = Comm.rank comm in
         let half = Option.get (Collectives.split comm ~color:(r / 6) ~key:r) in
         let quarter = Option.get (Collectives.split half ~color:(Comm.rank half / 3) ~key:r) in
         let leaf = Option.get (Collectives.split quarter ~color:(Comm.rank quarter mod 3) ~key:r) in
         Alcotest.(check int) "leaf size" 1 (Comm.size leaf);
         let out = Array.make (Comm.size quarter) (-1) in
         Collectives.allgather quarter Datatype.int ~sendbuf:[| r |] ~recvbuf:out ~count:1;
         let base = (r / 3) * 3 in
         Alcotest.(check Tutil.int_array) "quarter members" [| base; base + 1; base + 2 |] out))

let test_shrink_of_shrink () =
  (* two failures, two recoveries *)
  let res =
    Tutil.run_full ~ranks:6
      ~fail_at:[ (1, 20.0e-6); (4, 200.0e-6) ]
      (fun raw ->
        let comm = ref (K.wrap raw) in
        let recoveries = ref 0 in
        let done_ = ref 0 in
        while !done_ < 6 && !recoveries < 4 do
          K.compute !comm 40.0e-6;
          try
            let (_ : int) = K.allreduce_single !comm Datatype.int Op.int_sum 1 in
            incr done_
          with Errors.Process_failed _ | Errors.Comm_revoked ->
            if not (Kamping_plugins.Ulfm.is_revoked !comm) then Kamping_plugins.Ulfm.revoke !comm;
            comm := Kamping_plugins.Ulfm.shrink !comm;
            incr recoveries;
            done_ := K.allreduce_single !comm Datatype.int Op.int_min !done_
        done;
        (Comm.size (K.raw !comm), !done_, !recoveries))
  in
  Array.iteri
    (fun r outcome ->
      if r <> 1 && r <> 4 then begin
        match outcome with
        | Ok (size, done_, recoveries) ->
            Alcotest.(check int) "final size" 4 size;
            Alcotest.(check int) "rounds finished" 6 done_;
            Alcotest.(check int) "two recoveries" 2 recoveries
        | Error e -> raise e
      end)
    res.Mpisim.Mpi.results

let test_contiguous_datatype_on_wire () =
  (* fixed-size blocks as single elements (MPI_Type_contiguous) *)
  let dt = Datatype.contiguous Datatype.int 3 in
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then
           P2p.send comm dt [| [| 1; 2; 3 |]; [| 4; 5; 6 |] |] ~dst:1 ~tag:0
         else begin
           let buf = [| [| 0; 0; 0 |]; [| 0; 0; 0 |] |] in
           let st = P2p.recv comm dt buf ~src:0 ~tag:0 in
           Alcotest.(check int) "two blocks" 2 st.Request.count;
           Alcotest.(check Tutil.int_array) "block 0" [| 1; 2; 3 |] buf.(0);
           Alcotest.(check Tutil.int_array) "block 1" [| 4; 5; 6 |] buf.(1)
         end))

let test_struct_type_through_collective () =
  let dt : (int * float) Datatype.t =
    Kamping.Type_traits.struct_type ~default:(0, 0.0) ~name:"kv"
      Kamping.Type_traits.[ Int "k"; Float "v" ]
  in
  let results =
    run ~ranks:4 (fun raw ->
        let comm = K.wrap raw in
        let r = K.rank comm in
        V.to_list (K.allgather comm dt ~send_buf:(V.of_list [ (r, float_of_int r /. 2.0) ])))
  in
  Array.iter
    (fun got ->
      Alcotest.(check bool) "struct payload intact" true
        (got = [ (0, 0.0); (1, 0.5); (2, 1.0); (3, 1.5) ]))
    results

let test_recv_capacity_upper_bound () =
  (* ?count is a capacity: the vector shrinks to the actual size *)
  ignore
    (run ~ranks:2 (fun raw ->
         let comm = K.wrap raw in
         if K.rank comm = 0 then K.send comm Datatype.int ~send_buf:(V.of_list [ 1; 2 ]) ~dst:1
         else begin
           let got = K.recv ~count:10 comm Datatype.int ~src:0 in
           Alcotest.(check (list int)) "shrunk to actual" [ 1; 2 ] (V.to_list got)
         end))

let test_request_wait_any () =
  ignore
    (run ~ranks:3 (fun comm ->
         let r = Comm.rank comm in
         if r = 0 then begin
           (* two pending receives; rank 2 answers first (rank 1 is slow) *)
           let b1 = [| 0 |] and b2 = [| 0 |] in
           let r1 = P2p.irecv comm Datatype.int b1 ~src:1 ~tag:1 in
           let r2 = P2p.irecv comm Datatype.int b2 ~src:2 ~tag:2 in
           let idx, st = Request.wait_any [ r1; r2 ] in
           Alcotest.(check int) "fast sender completes first" 1 idx;
           Alcotest.(check int) "its source" 2 st.Request.source;
           ignore (Request.wait r1);
           Alcotest.(check int) "slow payload" 11 b1.(0);
           Alcotest.(check int) "fast payload" 22 b2.(0)
         end
         else if r = 1 then begin
           Mpisim.Comm.compute comm 100.0e-6;
           P2p.send comm Datatype.int [| 11 |] ~dst:0 ~tag:1
         end
         else P2p.send comm Datatype.int [| 22 |] ~dst:0 ~tag:2))

let test_deep_recursion_dcx_scale () =
  (* a longer unary-ish text: maximal recursion depth for DCX *)
  let text = String.make 1500 'a' in
  let n = String.length text in
  let results =
    run ~ranks:8 (fun raw ->
        let comm = K.wrap raw in
        let first, local_n = Apps.Dist_util.block_of ~n ~p:(K.size comm) (K.rank comm) in
        let local = Array.init local_n (fun i -> text.[first + i]) in
        Apps.Dcx.build comm ~text:local ~global_n:n)
  in
  let sa = Array.concat (Array.to_list results) in
  (* suffixes of a^n sort by decreasing start position *)
  Alcotest.(check Tutil.int_array) "unary text" (Array.init n (fun i -> n - 1 - i)) sa

let suite =
  [
    Alcotest.test_case "512-rank allreduce" `Quick test_many_ranks;
    Alcotest.test_case "nested splits" `Quick test_nested_splits;
    Alcotest.test_case "shrink of shrink (two failures)" `Quick test_shrink_of_shrink;
    Alcotest.test_case "contiguous datatype on the wire" `Quick test_contiguous_datatype_on_wire;
    Alcotest.test_case "struct type through a collective" `Quick test_struct_type_through_collective;
    Alcotest.test_case "recv capacity upper bound" `Quick test_recv_capacity_upper_bound;
    Alcotest.test_case "request wait_any" `Quick test_request_wait_any;
    Alcotest.test_case "dcx on a unary text (max recursion)" `Quick test_deep_recursion_dcx_scale;
  ]
