(* Tests for the simulated MPI runtime: datatypes, point-to-point semantics,
   every collective against a sequential reference, communicator management,
   profiling, and failure handling. *)

open Mpisim
module V = Ds.Vec

let run = Tutil.run

(* ------------- datatypes ------------- *)

let test_datatype_basics () =
  Alcotest.(check int) "int extent" 8 (Datatype.extent Datatype.int);
  Alcotest.(check int) "char extent" 1 (Datatype.extent Datatype.char);
  Alcotest.(check int) "bytes" 80 (Datatype.bytes Datatype.int 10);
  Alcotest.(check bool) "self witness" true
    (Datatype.equal_witness Datatype.int Datatype.int <> None);
  Alcotest.(check bool) "distinct types don't match" true
    (Datatype.equal_witness Datatype.int Datatype.float = None)

let test_datatype_pool () =
  let a = Datatype.pair Datatype.int Datatype.float in
  let b = Datatype.pair Datatype.int Datatype.float in
  Alcotest.(check bool) "pair memoized" true (Datatype.equal_witness a b <> None);
  Alcotest.(check int) "pair extent" 16 (Datatype.extent a);
  let c = Datatype.contiguous Datatype.int 4 in
  let d = Datatype.contiguous Datatype.int 4 in
  Alcotest.(check bool) "contiguous memoized" true (Datatype.equal_witness c d <> None);
  let e = Datatype.contiguous Datatype.int 5 in
  Alcotest.(check bool) "different length distinct" true (Datatype.equal_witness c e = None);
  let t1 = Datatype.triple Datatype.int Datatype.int Datatype.char in
  let t2 = Datatype.triple Datatype.int Datatype.int Datatype.char in
  Alcotest.(check bool) "triple memoized" true (Datatype.equal_witness t1 t2 <> None)

let test_datatype_struct_layout () =
  (* struct { double a; char c; } -> padded to 16, payload 9 *)
  let dt : unit Datatype.t =
    Datatype.struct_type ~name:"s" [ ("a", 8, 8); ("c", 1, 1) ]
  in
  Alcotest.(check int) "payload only on wire" 9 (Datatype.extent dt);
  (match Datatype.kind dt with
  | Datatype.Struct { padding_bytes; _ } -> Alcotest.(check int) "padding" 7 padding_bytes
  | _ -> Alcotest.fail "expected struct kind");
  Alcotest.(check bool) "gapped struct packs slower" true (Datatype.pack_factor dt > 1.0);
  let packed : unit Datatype.t = Datatype.struct_type ~name:"p" [ ("a", 8, 8); ("b", 8, 8) ] in
  Alcotest.(check (float 1e-9)) "packed struct has no penalty" 1.0 (Datatype.pack_factor packed)

let test_datatype_commit_tracking () =
  let before = Datatype.live_committed_types () in
  let dt : int Datatype.t = Datatype.custom ~name:"fresh" ~extent:4 () in
  Alcotest.(check bool) "not committed" false (Datatype.committed dt);
  ignore (run ~ranks:2 (fun comm -> Collectives.bcast comm dt [| 1 |] ~root:0));
  Alcotest.(check bool) "committed after use" true (Datatype.committed dt);
  Alcotest.(check int) "exactly one new commit" (before + 1) (Datatype.live_committed_types ())

(* ------------- point-to-point ------------- *)

let test_p2p_blocking () =
  let results =
    run ~ranks:2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int [| 10; 20; 30 |] ~dst:1 ~tag:5;
          [||]
        end
        else begin
          let buf = Array.make 3 0 in
          let st = P2p.recv comm Datatype.int buf ~src:0 ~tag:5 in
          Alcotest.(check int) "status count" 3 st.Request.count;
          Alcotest.(check int) "status source" 0 st.Request.source;
          buf
        end)
  in
  Alcotest.(check Tutil.int_array) "payload" [| 10; 20; 30 |] results.(1)

let test_p2p_any_source_tag () =
  ignore
    (run ~ranks:3 (fun comm ->
         if Comm.rank comm = 2 then begin
           let buf = Array.make 1 0 in
           let st1 = P2p.recv comm Datatype.int buf ~src:P2p.any_source ~tag:P2p.any_tag in
           let st2 = P2p.recv comm Datatype.int buf ~src:P2p.any_source ~tag:P2p.any_tag in
           Alcotest.(check bool) "both senders seen" true
             (List.sort compare [ st1.Request.source; st2.Request.source ] = [ 0; 1 ])
         end
         else P2p.send comm Datatype.int [| Comm.rank comm |] ~dst:2 ~tag:(Comm.rank comm)))

let test_p2p_type_mismatch () =
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then P2p.send comm Datatype.int [| 1 |] ~dst:1 ~tag:0
         else begin
           let buf = [| 0.0 |] in
           match P2p.recv comm Datatype.float buf ~src:0 ~tag:0 with
           | (_ : Request.status) -> Alcotest.fail "expected type mismatch"
           | exception Errors.Type_mismatch { sent; expected } ->
               Alcotest.(check string) "sent" "int" sent;
               Alcotest.(check string) "expected" "double" expected
         end))

let test_p2p_truncation () =
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then P2p.send comm Datatype.int [| 1; 2; 3 |] ~dst:1 ~tag:0
         else begin
           let buf = [| 0 |] in
           match P2p.recv comm Datatype.int buf ~src:0 ~tag:0 with
           | (_ : Request.status) -> Alcotest.fail "expected truncation"
           | exception Errors.Truncated { sent; capacity } ->
               Alcotest.(check int) "sent" 3 sent;
               Alcotest.(check int) "capacity" 1 capacity
         end))

(* ------------- serialized payloads in flight ------------- *)

let chars s = Array.init (String.length s) (String.get s)
let string_of_chars a = String.init (Array.length a) (Array.get a)

let test_serialized_pack () =
  (match Msg.pack Datatype.serialized (chars "xwirey") 1 4 with
  | Msg.Serialized b -> Alcotest.(check string) "window bytes" "wire" (Bytes.to_string b)
  | _ -> Alcotest.fail "a serialized window travels as Bytes");
  (match Msg.pack Datatype.char (chars "wire") 0 4 with
  | Msg.Packed _ -> ()
  | _ -> Alcotest.fail "a char window travels as a char array");
  match Msg.pack Datatype.int [| 1; 2; 3 |] 1 2 with
  | Msg.Packed _ -> ()
  | _ -> Alcotest.fail "an int window travels as an int array"

(* [serialized] and [char] share an OCaml element type and an extent, but
   they are distinct MPI datatypes: neither receives the other's message. *)
let test_serialized_type_mismatch () =
  let crossed sdt rdt =
    let got =
      run ~ranks:2 (fun comm ->
          if Comm.rank comm = 0 then begin
            P2p.send comm sdt (chars "abc") ~dst:1 ~tag:0;
            None
          end
          else
            match P2p.recv comm rdt (Array.make 3 ' ') ~src:0 ~tag:0 with
            | (_ : Request.status) -> None
            | exception Errors.Type_mismatch { sent; expected } -> Some (sent, expected))
    in
    got.(1)
  in
  Alcotest.(check (option (pair string string)))
    "serialized into char" (Some ("serialized", "char"))
    (crossed Datatype.serialized Datatype.char);
  Alcotest.(check (option (pair string string)))
    "char into serialized" (Some ("char", "serialized"))
    (crossed Datatype.char Datatype.serialized)

let test_serialized_truncation () =
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then P2p.send comm Datatype.serialized (chars "hello") ~dst:1 ~tag:0
         else
           match P2p.recv comm Datatype.serialized (Array.make 8 ' ') ~count:4 ~src:0 ~tag:0 with
           | (_ : Request.status) -> Alcotest.fail "expected truncation"
           | exception Errors.Truncated { sent; capacity } ->
               Alcotest.(check int) "sent" 5 sent;
               Alcotest.(check int) "capacity" 4 capacity))

(* Probe and receive report the byte count; the receiver gets the bytes
   of the sender's window as it was at the send, not as it is later. *)
let test_serialized_probe_and_copy () =
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then begin
           let buf = chars "..payload.." in
           let req = P2p.isend comm Datatype.serialized buf ~pos:2 ~count:7 ~dst:1 ~tag:5 in
           Array.fill buf 0 (Array.length buf) '!';
           ignore (Request.wait req)
         end
         else begin
           let st = P2p.probe comm ~src:0 ~tag:5 in
           Alcotest.(check int) "probed byte count" 7 st.Request.count;
           let buf = Array.make 10 '_' in
           let st = P2p.recv comm Datatype.serialized buf ~pos:1 ~src:0 ~tag:5 in
           Alcotest.(check int) "status byte count" 7 st.Request.count;
           Alcotest.(check string) "bytes at pos" "_payload__" (string_of_chars buf)
         end))

let test_serialized_persistent () =
  let rounds = [ "first"; "second!" ] in
  let got =
    run ~ranks:2 (fun comm ->
        if Comm.rank comm = 0 then begin
          let buf = Array.make 7 ' ' in
          let h = P2p.send_init comm Datatype.serialized buf ~count:7 ~dst:1 ~tag:1 in
          List.iter
            (fun r ->
              Array.fill buf 0 7 ' ';
              Array.blit (chars r) 0 buf 0 (String.length r);
              Persist.start h;
              ignore (Persist.wait h))
            rounds;
          Persist.free h;
          []
        end
        else begin
          let buf = Array.make 7 '?' in
          let h = P2p.recv_init comm Datatype.serialized buf ~src:0 ~tag:1 in
          let out =
            List.map
              (fun _ ->
                Persist.start h;
                let st = Persist.wait h in
                Alcotest.(check int) "persistent byte count" 7 st.Request.count;
                string_of_chars buf)
              rounds
          in
          Persist.free h;
          out
        end)
  in
  Alcotest.(check (list string)) "persistent rounds" [ "first  "; "second!" ] got.(1);
  let parts = 3 and per = 2 in
  let got =
    run ~ranks:2 (fun comm ->
        if Comm.rank comm = 0 then begin
          let h =
            P2p.psend_init comm Datatype.serialized (chars "ab-cd-") ~partitions:parts ~count:per
              ~dst:1 ~tag:2
          in
          Persist.start h;
          for i = parts - 1 downto 0 do
            Persist.pready h i
          done;
          ignore (Persist.wait h);
          Persist.free h;
          ""
        end
        else begin
          let buf = Array.make (parts * per) ' ' in
          let h =
            P2p.precv_init comm Datatype.serialized buf ~partitions:parts ~count:per ~src:0 ~tag:2
          in
          Persist.start h;
          ignore (Persist.wait h);
          Persist.free h;
          string_of_chars buf
        end)
  in
  Alcotest.(check string) "partitioned bytes" "ab-cd-" got.(1)

(* Large-count serialized transfers stay sparse: nothing is packed, and
   both the sparse and the dense payload pass the buffer-free receive. *)
let test_serialized_sparse () =
  let big = (2 * (Datatype.max_small_count + 1)) + 5 in
  let got =
    run ~ranks:2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send_sparse comm Datatype.serialized ~count:big ~dst:1 ~tag:3;
          P2p.send comm Datatype.serialized (chars "four") ~dst:1 ~tag:4;
          (0, 0)
        end
        else
          let sparse = P2p.recv_sparse comm Datatype.serialized ~capacity:big ~src:0 ~tag:3 in
          let dense = P2p.recv_sparse comm Datatype.serialized ~capacity:big ~src:0 ~tag:4 in
          (sparse.Request.count, dense.Request.count))
  in
  Alcotest.(check (pair int int)) "counts" (big, 4) got.(1)

let test_p2p_message_ordering () =
  (* FIFO per (src, tag): messages must arrive in send order. *)
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then
           for i = 1 to 10 do
             P2p.send comm Datatype.int [| i |] ~dst:1 ~tag:3
           done
         else begin
           let buf = [| 0 |] in
           for i = 1 to 10 do
             ignore (P2p.recv comm Datatype.int buf ~src:0 ~tag:3);
             Alcotest.(check int) (Printf.sprintf "message %d in order" i) i buf.(0)
           done
         end))

let test_p2p_nonblocking () =
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then begin
           let req = P2p.isend comm Datatype.int [| 7 |] ~dst:1 ~tag:1 in
           ignore (Request.wait req)
         end
         else begin
           let buf = [| 0 |] in
           let req = P2p.irecv comm Datatype.int buf ~src:0 ~tag:1 in
           let st = Request.wait req in
           Alcotest.(check int) "irecv value" 7 buf.(0);
           Alcotest.(check int) "irecv count" 1 st.Request.count
         end))

let test_p2p_issend_completes_on_match () =
  ignore
    (run ~ranks:2 (fun comm ->
         let w = Comm.world comm in
         if Comm.rank comm = 0 then begin
           let req = P2p.issend comm Datatype.int [| 7 |] ~dst:1 ~tag:1 in
           Alcotest.(check bool) "not complete before receiver matched" false
             (Request.is_complete req);
           ignore (Request.wait req);
           (* receiver waits 50us before receiving *)
           Alcotest.(check bool) "completed after match"
             true
             (Mpisim.World.now w >= 50.0e-6)
         end
         else begin
           Mpisim.Comm.compute comm 50.0e-6;
           let buf = [| 0 |] in
           ignore (P2p.recv comm Datatype.int buf ~src:0 ~tag:1)
         end))

let test_p2p_probe () =
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then begin
           Mpisim.Comm.compute comm 10.0e-6;
           P2p.send comm Datatype.int [| 1; 2; 3; 4 |] ~dst:1 ~tag:9
         end
         else begin
           (* blocking probe parks until the message is announced *)
           let st = P2p.probe comm ~src:P2p.any_source ~tag:9 in
           Alcotest.(check int) "probed count" 4 st.Request.count;
           (* message still there afterwards *)
           let buf = Array.make st.Request.count 0 in
           ignore (P2p.recv comm Datatype.int buf ~src:st.Request.source ~tag:9);
           Alcotest.(check Tutil.int_array) "received" [| 1; 2; 3; 4 |] buf
         end))

let test_p2p_iprobe () =
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then P2p.send comm Datatype.int [| 1 |] ~dst:1 ~tag:2
         else begin
           Alcotest.(check bool) "nothing yet" true (P2p.iprobe comm ~src:0 ~tag:2 = None);
           Mpisim.Comm.compute comm 1.0 (* ample time for delivery *);
           (match P2p.iprobe comm ~src:0 ~tag:2 with
           | Some st -> Alcotest.(check int) "count" 1 st.Request.count
           | None -> Alcotest.fail "message should be probeable");
           let buf = [| 0 |] in
           ignore (P2p.recv comm Datatype.int buf ~src:0 ~tag:2)
         end))

let test_p2p_sendrecv_ring () =
  let results =
    run ~ranks:4 (fun comm ->
        let r = Comm.rank comm and p = Comm.size comm in
        let recv = [| -1 |] in
        ignore
          (P2p.sendrecv comm Datatype.int ~send:[| r |] ~dst:((r + 1) mod p) ~stag:0 ~recv
             ~src:((r - 1 + p) mod p) ~rtag:0 ());
        recv.(0))
  in
  Alcotest.(check Tutil.int_array) "ring shift" [| 3; 0; 1; 2 |] results

let test_p2p_user_tag_validation () =
  ignore
    (run ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then
           match P2p.send comm Datatype.int [| 1 |] ~dst:1 ~tag:(-3) with
           | () -> Alcotest.fail "negative user tag accepted"
           | exception Errors.Usage_error _ -> ()))

let test_p2p_deadlock_detected () =
  (* below checker level Heavy a hang still surfaces as the engine's
     Deadlock exception (Test_checker covers the diagnosing path) *)
  let deadlocked =
    Mpisim.Checker.with_level Mpisim.Checker.Light (fun () ->
        match
          Mpisim.Mpi.run ~ranks:2 (fun comm ->
              if Comm.rank comm = 0 then
                (* recv that never matches *)
                ignore (P2p.recv comm Datatype.int [| 0 |] ~src:1 ~tag:0))
        with
        | (_ : unit Mpisim.Mpi.run_result) -> false
        | exception Simnet.Engine.Deadlock _ -> true)
  in
  Alcotest.(check bool) "hang detected" true deadlocked

(* ------------- collectives ------------- *)

let test_bcast () =
  List.iter
    (fun p ->
      List.iter
        (fun root ->
          let results =
            run ~ranks:p (fun comm ->
                let buf = if Comm.rank comm = root then [| 1; 2; 3 |] else Array.make 3 0 in
                Collectives.bcast comm Datatype.int buf ~root;
                buf)
          in
          Array.iteri
            (fun r got ->
              Alcotest.(check Tutil.int_array)
                (Printf.sprintf "bcast p=%d root=%d rank=%d" p root r)
                [| 1; 2; 3 |] got)
            results)
        [ 0; p - 1 ])
    [ 1; 2; 3; 5; 8; 13 ]

let test_reduce_allreduce () =
  List.iter
    (fun p ->
      let results =
        run ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let out = Array.make 2 0 in
            Collectives.reduce comm Datatype.int Op.int_sum ~sendbuf:[| r; 2 * r |] ~recvbuf:out
              ~count:2 ~root:0;
            let all = Array.make 2 0 in
            Collectives.allreduce comm Datatype.int Op.int_max ~sendbuf:[| r; -r |] ~recvbuf:all
              ~count:2;
            (out, all))
      in
      let total = p * (p - 1) / 2 in
      let root_out, _ = results.(0) in
      Alcotest.(check Tutil.int_array) (Printf.sprintf "reduce p=%d" p) [| total; 2 * total |]
        root_out;
      Array.iteri
        (fun r (_, all) ->
          Alcotest.(check Tutil.int_array) (Printf.sprintf "allreduce p=%d rank=%d" p r)
            [| p - 1; 0 |] all)
        results)
    [ 1; 2; 4; 7 ]

let test_allgather () =
  List.iter
    (fun p ->
      let results =
        run ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let recv = Array.make (2 * p) (-1) in
            Collectives.allgather comm Datatype.int ~sendbuf:[| r; r * 10 |] ~recvbuf:recv ~count:2;
            recv)
      in
      let expected = Array.init (2 * p) (fun i -> if i mod 2 = 0 then i / 2 else i / 2 * 10) in
      Array.iteri
        (fun r got ->
          Alcotest.(check Tutil.int_array) (Printf.sprintf "allgather p=%d rank=%d" p r) expected got)
        results)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 16 ]

let test_allgather_inplace () =
  let p = 5 in
  let results =
    run ~ranks:p (fun comm ->
        let r = Comm.rank comm in
        let buf = Array.make p (-1) in
        buf.(r) <- r * r;
        Collectives.allgather ~inplace:true comm Datatype.int ~sendbuf:[||] ~recvbuf:buf ~count:1;
        buf)
  in
  let expected = Array.init p (fun i -> i * i) in
  Array.iter (fun got -> Alcotest.(check Tutil.int_array) "inplace allgather" expected got) results

let test_allgatherv () =
  List.iter
    (fun p ->
      let results =
        run ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let mine = Array.make (r + 1) r in
            let rcounts = Array.init p (fun i -> i + 1) in
            let rdispls = Array.make p 0 in
            for i = 1 to p - 1 do
              rdispls.(i) <- rdispls.(i - 1) + rcounts.(i - 1)
            done;
            let total = rdispls.(p - 1) + rcounts.(p - 1) in
            let out = Array.make total (-1) in
            Collectives.allgatherv comm Datatype.int ~sendbuf:mine ~scount:(r + 1) ~recvbuf:out
              ~rcounts ~rdispls;
            out)
      in
      let expected =
        Array.concat (List.init p (fun i -> Array.make (i + 1) i))
      in
      Array.iter
        (fun got -> Alcotest.(check Tutil.int_array) (Printf.sprintf "allgatherv p=%d" p) expected got)
        results)
    [ 1; 2; 3; 5; 9 ]

let test_gather_scatter () =
  let p = 6 in
  ignore
    (run ~ranks:p (fun comm ->
         let r = Comm.rank comm in
         (* gather *)
         let recv = if r = 2 then Some (Array.make p 0) else None in
         Collectives.gather ?recvbuf:recv comm Datatype.int ~sendbuf:[| r * 3 |] ~count:1 ~root:2;
         (match recv with
         | Some buf ->
             Alcotest.(check Tutil.int_array) "gather" (Array.init p (fun i -> 3 * i)) buf
         | None -> ());
         (* scatter *)
         let send = if r = 1 then Some (Array.init (2 * p) Fun.id) else None in
         let out = Array.make 2 (-1) in
         Collectives.scatter ?sendbuf:send comm Datatype.int ~recvbuf:out ~count:2 ~root:1;
         Alcotest.(check Tutil.int_array) "scatter" [| 2 * r; (2 * r) + 1 |] out))

let test_gatherv_scatterv () =
  let p = 4 in
  ignore
    (run ~ranks:p (fun comm ->
         let r = Comm.rank comm in
         let counts = Array.init p (fun i -> i + 1) in
         let displs = [| 0; 1; 3; 6 |] in
         let mine = Array.make (r + 1) (100 + r) in
         let recv = if r = 0 then Some (Array.make 10 0) else None in
         Collectives.gatherv ?recvbuf:recv ~rcounts:counts ~rdispls:displs comm Datatype.int
           ~sendbuf:mine ~scount:(r + 1) ~root:0;
         (match recv with
         | Some buf ->
             let expected = Array.concat (List.init p (fun i -> Array.make (i + 1) (100 + i))) in
             Alcotest.(check Tutil.int_array) "gatherv" expected buf
         | None -> ());
         (* scatterv: reverse distribution *)
         let send = if r = 3 then Some (Array.init 10 Fun.id) else None in
         let out = Array.make (r + 1) (-1) in
         Collectives.scatterv ?sendbuf:send
           ?scounts:(if r = 3 then Some counts else None)
           ?sdispls:(if r = 3 then Some displs else None)
           comm Datatype.int ~recvbuf:out ~rcount:(r + 1) ~root:3;
         Alcotest.(check Tutil.int_array) "scatterv"
           (Array.init (r + 1) (fun i -> displs.(r) + i))
           out))

let test_alltoall () =
  List.iter
    (fun p ->
      let results =
        run ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let send = Array.init p (fun d -> (r * 100) + d) in
            let recv = Array.make p (-1) in
            Collectives.alltoall comm Datatype.int ~sendbuf:send ~recvbuf:recv ~count:1;
            recv)
      in
      Array.iteri
        (fun r got ->
          let expected = Array.init p (fun s -> (s * 100) + r) in
          Alcotest.(check Tutil.int_array) (Printf.sprintf "alltoall p=%d rank=%d" p r) expected got)
        results)
    [ 1; 2; 3; 4; 8 ]

(* Sequential reference for alltoallv given everyone's send layout. *)
let alltoallv_reference ~p ~data ~counts =
  (* data.(s) laid out by destination; returns per-destination received *)
  let received = Array.make p [||] in
  for d = 0 to p - 1 do
    let parts =
      List.init p (fun s ->
          let displ = ref 0 in
          for d' = 0 to d - 1 do
            displ := !displ + counts.(s).(d')
          done;
          Array.sub data.(s) !displ counts.(s).(d))
    in
    received.(d) <- Array.concat parts
  done;
  received

let alltoallv_runner ~use_w p counts_of =
  let counts = Array.init p (fun s -> Array.init p (fun d -> counts_of s d)) in
  let data =
    Array.init p (fun s ->
        Array.init (Array.fold_left ( + ) 0 counts.(s)) (fun i -> (s * 10_000) + i))
  in
  let expected = alltoallv_reference ~p ~data ~counts in
  let results =
    run ~ranks:p (fun comm ->
        let r = Comm.rank comm in
        let scounts = counts.(r) in
        let sdispls = Array.make p 0 in
        for i = 1 to p - 1 do
          sdispls.(i) <- sdispls.(i - 1) + scounts.(i - 1)
        done;
        let rcounts = Array.init p (fun s -> counts.(s).(r)) in
        let rdispls = Array.make p 0 in
        for i = 1 to p - 1 do
          rdispls.(i) <- rdispls.(i - 1) + rcounts.(i - 1)
        done;
        let total = rdispls.(p - 1) + rcounts.(p - 1) in
        let recvbuf = Array.make total (-1) in
        (if use_w then
           Collectives.alltoallw_style comm Datatype.int ~sendbuf:data.(r) ~scounts ~sdispls
             ~recvbuf ~rcounts ~rdispls
         else
           Collectives.alltoallv comm Datatype.int ~sendbuf:data.(r) ~scounts ~sdispls ~recvbuf
             ~rcounts ~rdispls);
        recvbuf)
  in
  Array.iteri
    (fun r got ->
      Alcotest.(check Tutil.int_array)
        (Printf.sprintf "alltoall%s p=%d rank=%d" (if use_w then "w" else "v") p r)
        expected.(r) got)
    results

let test_alltoallv () =
  alltoallv_runner ~use_w:false 4 (fun s d -> ((s + d) mod 3) + 1);
  alltoallv_runner ~use_w:false 5 (fun s d -> if (s + d) mod 2 = 0 then 0 else s + 1);
  alltoallv_runner ~use_w:false 3 (fun _ _ -> 0)

let test_alltoallw_style () =
  alltoallv_runner ~use_w:true 4 (fun s d -> ((s * d) mod 4) + 1);
  alltoallv_runner ~use_w:true 5 (fun s d -> if s = d then 3 else 0)

let prop_alltoallv_random =
  Tutil.qtest ~count:25 "alltoallv random counts match reference"
    QCheck2.Gen.(pair (int_range 2 6) (array_size (return 36) (int_bound 4)))
    (fun (p, raw) ->
      let counts_of s d = raw.(((s * p) + d) mod 36) in
      alltoallv_runner ~use_w:false p counts_of;
      true)

let test_scan_exscan () =
  List.iter
    (fun p ->
      let results =
        run ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let inc = Array.make 1 0 in
            Collectives.scan comm Datatype.int Op.int_sum ~sendbuf:[| r + 1 |] ~recvbuf:inc ~count:1;
            let exc = Array.make 1 (-777) in
            Collectives.exscan comm Datatype.int Op.int_sum ~sendbuf:[| r + 1 |] ~recvbuf:exc
              ~count:1;
            (inc.(0), exc.(0)))
      in
      Array.iteri
        (fun r (inc, exc) ->
          Alcotest.(check int) (Printf.sprintf "scan p=%d rank=%d" p r) ((r + 1) * (r + 2) / 2) inc;
          if r = 0 then Alcotest.(check int) "exscan rank0 untouched" (-777) exc
          else Alcotest.(check int) (Printf.sprintf "exscan p=%d rank=%d" p r) (r * (r + 1) / 2) exc)
        results)
    [ 1; 2; 3; 5; 8 ]

let test_barrier_synchronizes () =
  let results =
    run ~ranks:4 (fun comm ->
        (* rank 2 is slow; everyone must leave the barrier after it *)
        if Comm.rank comm = 2 then Mpisim.Comm.compute comm 1.0e-3;
        Collectives.barrier comm;
        Mpisim.Comm.now comm)
  in
  Array.iter
    (fun t -> Alcotest.(check bool) "left barrier after slowest rank" true (t >= 1.0e-3))
    results

let test_ibarrier () =
  ignore
    (run ~ranks:4 (fun comm ->
         let req = Collectives.ibarrier comm in
         (* overlap: do local work while the barrier progresses *)
         Mpisim.Comm.compute comm 10.0e-6;
         ignore (Request.wait req)))

let test_scan_non_commutative () =
  (* Composition of affine maps (a, b) : x -> a*x + b is associative but
     not commutative, so it checks the scan's left-to-right order. *)
  let compose (a1, b1) (a2, b2) = (a1 * a2, (a2 * b1) + b2) in
  let elt r = (2, r + 1) in
  List.iter
    (fun p ->
      let results =
        run ~ranks:p (fun comm ->
            let dt = Datatype.pair Datatype.int Datatype.int in
            let out = Array.make 1 (0, 0) in
            Collectives.scan comm dt
              (Op.of_fun ~commutative:false compose)
              ~sendbuf:[| elt (Comm.rank comm) |] ~recvbuf:out ~count:1;
            out.(0))
      in
      Array.iteri
        (fun r got ->
          let expected = ref (elt 0) in
          for i = 1 to r do
            expected := compose !expected (elt i)
          done;
          Alcotest.(check (pair int int)) (Printf.sprintf "scan order p=%d rank=%d" p r) !expected
            got)
        results)
    [ 1; 2; 3; 5; 8 ]

(* ------------- communicator management ------------- *)

let test_dup_isolation () =
  ignore
    (run ~ranks:3 (fun comm ->
         let dup = Collectives.dup comm in
         Alcotest.(check bool) "distinct id" true (Comm.id dup <> Comm.id comm);
         (* traffic on dup does not interfere with comm *)
         if Comm.rank comm = 0 then begin
           P2p.send comm Datatype.int [| 1 |] ~dst:1 ~tag:0;
           P2p.send dup Datatype.int [| 2 |] ~dst:1 ~tag:0
         end
         else if Comm.rank comm = 1 then begin
           let buf = [| 0 |] in
           ignore (P2p.recv dup Datatype.int buf ~src:0 ~tag:0);
           Alcotest.(check int) "dup message" 2 buf.(0);
           ignore (P2p.recv comm Datatype.int buf ~src:0 ~tag:0);
           Alcotest.(check int) "original message" 1 buf.(0)
         end))

let test_split () =
  let results =
    run ~ranks:6 (fun comm ->
        let r = Comm.rank comm in
        match Collectives.split comm ~color:(r mod 2) ~key:(-r) with
        | Some sub ->
            (* key = -r reverses the order within each color *)
            let got = Array.make (Comm.size sub) (-1) in
            Collectives.allgather sub Datatype.int ~sendbuf:[| r |] ~recvbuf:got ~count:1;
            (Comm.rank sub, Comm.size sub, got)
        | None -> Alcotest.fail "no communicator")
  in
  let _, size0, members0 = results.(0) in
  Alcotest.(check int) "even group size" 3 size0;
  Alcotest.(check Tutil.int_array) "reversed by key" [| 4; 2; 0 |] members0;
  let rank5, _, members5 = results.(5) in
  Alcotest.(check int) "rank 5 first in odd group" 0 rank5;
  Alcotest.(check Tutil.int_array) "odd group" [| 5; 3; 1 |] members5

let test_split_undefined () =
  let results =
    run ~ranks:4 (fun comm ->
        let color = if Comm.rank comm < 2 then 0 else -1 in
        match Collectives.split comm ~color ~key:0 with
        | Some sub -> Comm.size sub
        | None -> -1)
  in
  Alcotest.(check Tutil.int_array) "undefined color excluded" [| 2; 2; -1; -1 |] results

(* ------------- profiling ------------- *)

let test_profiling_counts () =
  let res =
    Tutil.run_full ~ranks:4 (fun comm ->
        Collectives.barrier comm;
        Collectives.allreduce comm Datatype.int Op.int_sum ~sendbuf:[| 1 |]
          ~recvbuf:(Array.make 1 0) ~count:1;
        if Comm.rank comm = 0 then P2p.send comm Datatype.int [| 1 |] ~dst:1 ~tag:0
        else if Comm.rank comm = 1 then
          ignore (P2p.recv comm Datatype.int [| 0 |] ~src:0 ~tag:0))
  in
  let prof = res.Mpisim.Mpi.profile in
  Alcotest.(check int) "barrier calls" 4 (Profiling.calls_of "MPI_Barrier" prof);
  Alcotest.(check int) "allreduce calls" 4 (Profiling.calls_of "MPI_Allreduce" prof);
  Alcotest.(check int) "send calls" 1 (Profiling.calls_of "MPI_Send" prof);
  Alcotest.(check int) "recv calls" 1 (Profiling.calls_of "MPI_Recv" prof);
  Alcotest.(check bool) "messages flowed" true (prof.Profiling.messages > 0)

let test_profiling_edge_cases () =
  (* empty snapshots: diff of nothing is nothing, lookups are zero *)
  let empty = Profiling.snapshot (Profiling.create ()) in
  let d0 = Profiling.diff ~before:empty ~after:empty in
  Alcotest.(check (list (pair string int))) "empty diff: no calls" [] d0.Profiling.calls;
  Alcotest.(check (list (pair string int))) "empty diff: no algos" [] d0.algo_calls;
  Alcotest.(check int) "empty diff: no messages" 0 d0.messages;
  Alcotest.(check int) "missing call name counts zero" 0 (Profiling.calls_of "MPI_Nope" empty);
  Alcotest.(check int) "missing algo name counts zero" 0
    (Profiling.algo_calls_of "MPI_Nope[x]" empty);
  (* annotated algorithm names: [calls_of] falls through to the algorithm
     table so callers need not know whether a collective was annotated *)
  let t = Profiling.create () in
  Profiling.record_call t "MPI_Send";
  Profiling.record_algo t "MPI_Allreduce[rabenseifner]";
  Profiling.record_message t ~bytes:64;
  let s = Profiling.snapshot t in
  Alcotest.(check int) "plain name via calls_of" 1 (Profiling.calls_of "MPI_Send" s);
  Alcotest.(check int) "annotated name transparent via calls_of" 1
    (Profiling.calls_of "MPI_Allreduce[rabenseifner]" s);
  Alcotest.(check int) "annotated name via algo_calls_of" 1
    (Profiling.algo_calls_of "MPI_Allreduce[rabenseifner]" s);
  Alcotest.(check int) "annotated name absent from plain table" 0
    (match List.assoc_opt "MPI_Allreduce[rabenseifner]" s.Profiling.calls with
    | Some n -> n
    | None -> 0);
  (* diff against the empty baseline reproduces the snapshot *)
  let d = Profiling.diff ~before:empty ~after:s in
  Alcotest.(check (list (pair string int))) "diff calls" [ ("MPI_Send", 1) ] d.Profiling.calls;
  Alcotest.(check (list (pair string int)))
    "diff algo calls"
    [ ("MPI_Allreduce[rabenseifner]", 1) ]
    d.algo_calls;
  Alcotest.(check int) "diff messages" 1 d.messages;
  Alcotest.(check int) "diff bytes" 64 d.bytes;
  (* a reversed diff is the negation *)
  let neg = Profiling.diff ~before:s ~after:empty in
  Alcotest.(check (list (pair string int))) "negated calls" [ ("MPI_Send", -1) ] neg.Profiling.calls;
  Alcotest.(check int) "negated bytes" (-64) neg.bytes;
  (* reset drops everything; diff across a reset reports the removals *)
  Profiling.reset t;
  let after_reset = Profiling.snapshot t in
  Alcotest.(check (list (pair string int))) "reset clears calls" [] after_reset.Profiling.calls;
  Alcotest.(check int) "reset clears messages" 0 after_reset.messages;
  let across = Profiling.diff ~before:s ~after:after_reset in
  Alcotest.(check (list (pair string int)))
    "diff across reset shows removal" [ ("MPI_Send", -1) ] across.Profiling.calls;
  (* equal non-empty snapshots diff to nothing *)
  Profiling.record_call t "MPI_Bcast";
  let s1 = Profiling.snapshot t in
  let d_same = Profiling.diff ~before:s1 ~after:s1 in
  Alcotest.(check (list (pair string int))) "identical snapshots: empty diff" []
    d_same.Profiling.calls

(* Misused collective buffers and v-collective layouts fail as a
   [Usage_error] naming the call and the argument, never as an internal
   exception or an error about the runtime's own p2p calls.  Where every
   rank passes the bad argument, every rank fails so; a bad root-only
   buffer fails the root, and under the Communication checker the other
   ranks end with [Rank_died] instead of hanging. *)
let test_v_collective_layout_errors () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let usage name r ~mentions = function
    | Error (Errors.Usage_error msg) ->
        List.iter
          (fun m ->
            if not (contains msg m) then
              Alcotest.failf "%s: rank %d: %S does not mention %S" name r msg m)
          mentions
    | Error e -> Alcotest.failf "%s: rank %d raised %s" name r (Printexc.to_string e)
    | Ok () -> Alcotest.failf "%s: rank %d accepted the call" name r
  in
  let expect name ~mentions f =
    let res = Mpi.run ~ranks:4 f in
    Array.iteri (fun r -> usage name r ~mentions) res.Mpi.results
  in
  (* The root (rank 0) passes a bad buffer, everyone else a good call;
     the others end with [Rank_died] where they wait on the root, and may
     finish where they only send to it. *)
  let expect_root name ~mentions ~others_wait f =
    let res =
      Checker.with_level Checker.Communication (fun () ->
          Mpi.run ~deadline:Tutil.default_deadline ~ranks:4 f)
    in
    Array.iteri
      (fun r result ->
        match result with
        | _ when r = 0 -> usage name r ~mentions result
        | Error Mpi.Rank_died -> ()
        | Ok () when not others_wait -> ()
        | Ok () -> Alcotest.failf "%s: rank %d finished" name r
        | Error e -> Alcotest.failf "%s: rank %d raised %s" name r (Printexc.to_string e))
      res.Mpi.results
  in
  let ints n = Array.make n 0 and displs p k = Array.init p (fun i -> k * i) in
  expect "alltoallv: scounts past the send buffer" ~mentions:[ "alltoallv"; "scounts" ]
    (fun comm ->
      let p = Comm.size comm in
      Collectives.alltoallv comm Datatype.int ~sendbuf:(ints p) ~scounts:(Array.make p 2)
        ~sdispls:(displs p 1) ~recvbuf:(ints (2 * p)) ~rcounts:(Array.make p 2)
        ~rdispls:(displs p 2));
  expect "alltoallv: negative sdispls" ~mentions:[ "alltoallv"; "sdispls" ] (fun comm ->
      let p = Comm.size comm in
      Collectives.alltoallv comm Datatype.int ~sendbuf:(ints p) ~scounts:(Array.make p 1)
        ~sdispls:(Array.make p (-1)) ~recvbuf:(ints p) ~rcounts:(Array.make p 1)
        ~rdispls:(displs p 1));
  expect "ialltoallv: rcounts past the receive buffer" ~mentions:[ "ialltoallv"; "rcounts" ]
    (fun comm ->
      let p = Comm.size comm in
      ignore
        (Collectives.ialltoallv comm Datatype.int ~sendbuf:(ints p) ~scounts:(Array.make p 1)
           ~sdispls:(displs p 1) ~recvbuf:(ints p) ~rcounts:(Array.make p 2)
           ~rdispls:(displs p 1)));
  expect "allgatherv: negative rcounts entry" ~mentions:[ "allgatherv"; "rcounts" ] (fun comm ->
      let p = Comm.size comm and r = Comm.rank comm in
      let rcounts = Array.init p (fun i -> if i = 2 then -1 else 1) in
      Collectives.allgatherv comm Datatype.int ~sendbuf:[| r |] ~scount:rcounts.(r)
        ~recvbuf:(ints p) ~rcounts ~rdispls:(displs p 1));
  expect "allgatherv: rdispls past the receive buffer" ~mentions:[ "allgatherv"; "rdispls" ]
    (fun comm ->
      let p = Comm.size comm in
      Collectives.allgatherv comm Datatype.int ~sendbuf:[| 0 |] ~scount:1 ~recvbuf:(ints p)
        ~rcounts:(Array.make p 1) ~rdispls:(displs p 2));
  expect "gatherv: send window past the buffer" ~mentions:[ "gatherv"; "sendbuf" ] (fun comm ->
      let p = Comm.size comm in
      Collectives.gatherv comm Datatype.int ~sendbuf:(ints 1) ~scount:2 ~recvbuf:(ints (2 * p))
        ~rcounts:(Array.make p 2) ~rdispls:(displs p 2) ~root:0);
  expect "scatterv: receive window past the buffer" ~mentions:[ "scatterv"; "recvbuf" ]
    (fun comm ->
      let p = Comm.size comm in
      Collectives.scatterv comm Datatype.int ~sendbuf:(ints (2 * p)) ~scounts:(Array.make p 2)
        ~sdispls:(displs p 2) ~recvbuf:(ints 1) ~rcount:2 ~root:0);
  let reduce_op = Op.int_sum in
  expect "allreduce: short sendbuf" ~mentions:[ "allreduce"; "sendbuf" ] (fun comm ->
      Collectives.allreduce comm Datatype.int reduce_op ~sendbuf:(ints 2) ~recvbuf:(ints 3) ~count:3);
  expect "allreduce: short recvbuf" ~mentions:[ "allreduce"; "recvbuf" ] (fun comm ->
      Collectives.allreduce comm Datatype.int reduce_op ~sendbuf:(ints 3) ~recvbuf:(ints 2) ~count:3);
  expect "iallreduce: short recvbuf" ~mentions:[ "iallreduce"; "recvbuf" ] (fun comm ->
      ignore
        (Collectives.iallreduce comm Datatype.int reduce_op ~sendbuf:(ints 3) ~recvbuf:(ints 2)
           ~count:3));
  expect "reduce: short sendbuf" ~mentions:[ "reduce"; "sendbuf" ] (fun comm ->
      Collectives.reduce comm Datatype.int reduce_op ~sendbuf:(ints 2) ~recvbuf:(ints 3) ~count:3
        ~root:0);
  expect "scan: short sendbuf" ~mentions:[ "scan"; "sendbuf" ] (fun comm ->
      Collectives.scan comm Datatype.int reduce_op ~sendbuf:(ints 2) ~recvbuf:(ints 3) ~count:3);
  expect "exscan: short recvbuf" ~mentions:[ "exscan"; "recvbuf" ] (fun comm ->
      Collectives.exscan comm Datatype.int reduce_op ~sendbuf:(ints 3) ~recvbuf:(ints 2) ~count:3);
  expect "reduce_scatter_block: short sendbuf" ~mentions:[ "reduce_scatter_block"; "sendbuf" ]
    (fun comm ->
      let p = Comm.size comm in
      Collectives.reduce_scatter_block comm Datatype.int reduce_op ~sendbuf:(ints ((2 * p) - 1))
        ~recvbuf:(ints 2) ~count:2);
  expect "allgather: short recvbuf" ~mentions:[ "allgather"; "recvbuf" ] (fun comm ->
      let p = Comm.size comm in
      Collectives.allgather comm Datatype.int ~sendbuf:(ints 2) ~recvbuf:(ints ((2 * p) - 1))
        ~count:2);
  expect "alltoall: short sendbuf" ~mentions:[ "alltoall"; "sendbuf" ] (fun comm ->
      let p = Comm.size comm in
      Collectives.alltoall comm Datatype.int ~sendbuf:(ints (p - 1)) ~recvbuf:(ints p) ~count:1);
  expect "bcast: count past the buffer" ~mentions:[ "bcast"; "buf" ] (fun comm ->
      Collectives.bcast ~count:5 comm Datatype.int (ints 2) ~root:0);
  expect "ibcast: count past the buffer" ~mentions:[ "ibcast"; "buf" ] (fun comm ->
      ignore (Collectives.ibcast ~count:5 comm Datatype.int (ints 2) ~root:0));
  expect_root "scatter: short root sendbuf" ~mentions:[ "scatter"; "sendbuf" ] ~others_wait:true
    (fun comm ->
      let p = Comm.size comm in
      if Comm.rank comm = 0 then
        Collectives.scatter comm Datatype.int ~sendbuf:(ints ((2 * p) - 1)) ~recvbuf:(ints 2)
          ~count:2 ~root:0
      else Collectives.scatter comm Datatype.int ~recvbuf:(ints 2) ~count:2 ~root:0);
  expect_root "gather: short root recvbuf" ~mentions:[ "gather"; "recvbuf" ] ~others_wait:false
    (fun comm ->
      let p = Comm.size comm in
      let recvbuf = if Comm.rank comm = 0 then Some (ints ((2 * p) - 1)) else None in
      Collectives.gather ?recvbuf comm Datatype.int ~sendbuf:(ints 2) ~count:2 ~root:0);
  expect_root "reduce: short root recvbuf" ~mentions:[ "reduce"; "recvbuf" ] ~others_wait:false
    (fun comm ->
      let recvbuf = if Comm.rank comm = 0 then Some (ints 1) else None in
      Collectives.reduce ?recvbuf comm Datatype.int reduce_op ~sendbuf:(ints 2) ~count:2 ~root:0)

let test_run_determinism () =
  let go () =
    Tutil.run_full ~ranks:8 (fun comm ->
        let r = Comm.rank comm in
        let out = Array.make 8 0 in
        Collectives.allgather comm Datatype.int ~sendbuf:[| r |] ~recvbuf:out ~count:1;
        Collectives.barrier comm;
        Mpisim.Comm.now comm)
  in
  let a = go () and b = go () in
  Alcotest.(check (float 0.0)) "bitwise identical sim time" a.Mpisim.Mpi.sim_time
    b.Mpisim.Mpi.sim_time;
  Alcotest.(check int) "same event count" a.Mpisim.Mpi.events b.Mpisim.Mpi.events

let suite =
  [
    Alcotest.test_case "datatype basics" `Quick test_datatype_basics;
    Alcotest.test_case "datatype pool memoization" `Quick test_datatype_pool;
    Alcotest.test_case "datatype struct layout" `Quick test_datatype_struct_layout;
    Alcotest.test_case "datatype commit tracking" `Quick test_datatype_commit_tracking;
    Alcotest.test_case "p2p blocking" `Quick test_p2p_blocking;
    Alcotest.test_case "p2p wildcards" `Quick test_p2p_any_source_tag;
    Alcotest.test_case "p2p type mismatch" `Quick test_p2p_type_mismatch;
    Alcotest.test_case "p2p truncation" `Quick test_p2p_truncation;
    Alcotest.test_case "serialized: pack picks Bytes" `Quick test_serialized_pack;
    Alcotest.test_case "serialized: char is a type mismatch" `Quick test_serialized_type_mismatch;
    Alcotest.test_case "serialized: short window truncates" `Quick test_serialized_truncation;
    Alcotest.test_case "serialized: probe and window copy" `Quick test_serialized_probe_and_copy;
    Alcotest.test_case "serialized: persistent and partitioned" `Quick
      test_serialized_persistent;
    Alcotest.test_case "serialized: sparse stays sparse" `Quick test_serialized_sparse;
    Alcotest.test_case "p2p FIFO ordering" `Quick test_p2p_message_ordering;
    Alcotest.test_case "p2p nonblocking" `Quick test_p2p_nonblocking;
    Alcotest.test_case "p2p issend completion" `Quick test_p2p_issend_completes_on_match;
    Alcotest.test_case "p2p blocking probe" `Quick test_p2p_probe;
    Alcotest.test_case "p2p iprobe" `Quick test_p2p_iprobe;
    Alcotest.test_case "p2p sendrecv ring" `Quick test_p2p_sendrecv_ring;
    Alcotest.test_case "p2p user tag validation" `Quick test_p2p_user_tag_validation;
    Alcotest.test_case "p2p deadlock detection" `Quick test_p2p_deadlock_detected;
    Alcotest.test_case "bcast (binomial)" `Quick test_bcast;
    Alcotest.test_case "reduce/allreduce" `Quick test_reduce_allreduce;
    Alcotest.test_case "allgather (Bruck)" `Quick test_allgather;
    Alcotest.test_case "allgather in-place" `Quick test_allgather_inplace;
    Alcotest.test_case "allgatherv (ring)" `Quick test_allgatherv;
    Alcotest.test_case "gather/scatter" `Quick test_gather_scatter;
    Alcotest.test_case "gatherv/scatterv" `Quick test_gatherv_scatterv;
    Alcotest.test_case "alltoall (pairwise)" `Quick test_alltoall;
    Alcotest.test_case "alltoallv" `Quick test_alltoallv;
    Alcotest.test_case "alltoallw-style path" `Quick test_alltoallw_style;
    Alcotest.test_case "v-collective layout errors" `Quick test_v_collective_layout_errors;
    prop_alltoallv_random;
    Alcotest.test_case "scan/exscan" `Quick test_scan_exscan;
    Alcotest.test_case "scan non-commutative order" `Quick test_scan_non_commutative;
    Alcotest.test_case "barrier synchronizes" `Quick test_barrier_synchronizes;
    Alcotest.test_case "ibarrier overlaps" `Quick test_ibarrier;
    Alcotest.test_case "comm dup isolates traffic" `Quick test_dup_isolation;
    Alcotest.test_case "comm split" `Quick test_split;
    Alcotest.test_case "comm split undefined" `Quick test_split_undefined;
    Alcotest.test_case "profiling counts" `Quick test_profiling_counts;
    Alcotest.test_case "profiling edge cases" `Quick test_profiling_edge_cases;
    Alcotest.test_case "simulation determinism" `Quick test_run_determinism;
  ]
