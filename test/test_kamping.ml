(* Tests for the KaMPIng layer: named-parameter defaults, out-parameters,
   resize policies, in-place calls, zero-overhead (via the profiling
   interface, as in paper Sec. III-H), non-blocking safety, request pools,
   type traits, serialization and assertions. *)

open Kamping
module V = Ds.Vec
module D = Mpisim.Datatype

let run = Tutil.run
let vec_int = Alcotest.testable (Ds.Vec.pp Format.pp_print_int) (Ds.Vec.equal ( = ))

let wrapped ~ranks f = run ~ranks (fun raw -> f (Comm.wrap raw))

(* ---------- allgatherv: the paper's running example ---------- *)

let test_allgatherv_defaults () =
  let results =
    wrapped ~ranks:4 (fun comm ->
        let r = Comm.rank comm in
        let v = V.init (r + 1) (fun i -> (r * 10) + i) in
        (* Fig. 1 (1): one-liner with all defaults *)
        (Comm.allgatherv comm D.int ~send_buf:v).Comm.recv_buf)
  in
  let expected = V.of_list [ 0; 10; 11; 20; 21; 22; 30; 31; 32; 33 ] in
  Array.iter (fun got -> Alcotest.check vec_int "concatenated" expected got) results

let test_allgatherv_empty_ranks () =
  (* Ranks with empty contributions and no local witness element: the
     datatype default must kick in. *)
  let results =
    wrapped ~ranks:3 (fun comm ->
        let v = if Comm.rank comm = 1 then V.of_list [ 42 ] else V.create () in
        (Comm.allgatherv comm D.int ~send_buf:v).Comm.recv_buf)
  in
  Array.iter (fun got -> Alcotest.check vec_int "only rank1" (V.of_list [ 42 ]) got) results

let test_allgatherv_out_parameters () =
  ignore
    (wrapped ~ranks:3 (fun comm ->
         let r = Comm.rank comm in
         let v = V.make (r + 1) r in
         let res = Comm.allgatherv ~recv_counts_out:true ~recv_displs_out:true comm D.int ~send_buf:v in
         Alcotest.(check (option Tutil.int_array)) "counts out" (Some [| 1; 2; 3 |]) res.Comm.recv_counts;
         Alcotest.(check (option Tutil.int_array)) "displs out" (Some [| 0; 1; 3 |]) res.Comm.recv_displs;
         (* without the flags, nothing is returned *)
         let res2 = Comm.allgatherv comm D.int ~send_buf:v in
         Alcotest.(check bool) "no counts unless requested" true (res2.Comm.recv_counts = None);
         Alcotest.(check bool) "no displs unless requested" true (res2.Comm.recv_displs = None)))

let test_allgatherv_given_counts_skips_exchange () =
  (* Paper Sec. III-H: with the profiling interface we verify that when the
     caller supplies recv_counts, KaMPIng issues ONLY MPI_Allgatherv — the
     zero-overhead property. *)
  let res =
    Tutil.run_full ~ranks:4 (fun raw ->
        let comm = Comm.wrap raw in
        let r = Comm.rank comm in
        let v = V.make 2 r in
        let counts = Array.make 4 2 in
        ignore (Comm.allgatherv ~recv_counts:counts comm D.int ~send_buf:v))
  in
  let prof = res.Mpisim.Mpi.profile in
  Alcotest.(check int) "exactly one Allgatherv per rank" 4
    (Mpisim.Profiling.calls_of "MPI_Allgatherv" prof);
  Alcotest.(check int) "no internal Allgather" 0 (Mpisim.Profiling.calls_of "MPI_Allgather" prof)

let test_allgatherv_computes_counts_like_handrolled () =
  (* Without recv_counts, the call sequence must equal the hand-rolled
     Fig. 2 pattern: one Allgather (counts) + one Allgatherv (data). *)
  let kamping =
    Tutil.run_full ~ranks:4 (fun raw ->
        let comm = Comm.wrap raw in
        ignore (Comm.allgatherv comm D.int ~send_buf:(V.make (Comm.rank comm + 1) 0)))
  in
  let handrolled =
    Tutil.run_full ~ranks:4 (fun raw ->
        let r = Mpisim.Comm.rank raw and p = Mpisim.Comm.size raw in
        let rc = Array.make p 0 in
        Mpisim.Collectives.allgather raw D.int ~sendbuf:[| r + 1 |] ~recvbuf:rc ~count:1;
        let rd = Array.make p 0 in
        for i = 1 to p - 1 do
          rd.(i) <- rd.(i - 1) + rc.(i - 1)
        done;
        let total = rd.(p - 1) + rc.(p - 1) in
        let out = Array.make total 0 in
        Mpisim.Collectives.allgatherv raw D.int ~sendbuf:(Array.make (r + 1) 0) ~scount:(r + 1)
          ~recvbuf:out ~rcounts:rc ~rdispls:rd)
  in
  Alcotest.(check (list (pair string int)))
    "identical MPI call profile" handrolled.Mpisim.Mpi.profile.Mpisim.Profiling.calls
    kamping.Mpisim.Mpi.profile.Mpisim.Profiling.calls

(* ---------- resize policies ---------- *)

let test_resize_policies () =
  ignore
    (wrapped ~ranks:2 (fun comm ->
         let r = Comm.rank comm in
         let send = V.make 2 r in
         (* Resize_to_fit shrinks/grows exactly *)
         let buf = V.make 10 (-1) in
         let res =
           Comm.allgatherv ~recv_buf:buf ~recv_policy:Resize_policy.Resize_to_fit comm D.int
             ~send_buf:send
         in
         Alcotest.(check int) "resized to fit" 4 (V.length res.Comm.recv_buf);
         (* Grow_only keeps excess capacity *)
         let buf = V.make 10 (-1) in
         ignore
           (Comm.allgatherv ~recv_buf:buf ~recv_policy:Resize_policy.Grow_only comm D.int
              ~send_buf:send);
         Alcotest.(check int) "grow_only keeps length" 10 (V.length buf);
         ignore r;
         Alcotest.(check int) "prefix written" 1 (V.get buf 2);
         (* No_resize raises when too small *)
         let small = V.make 1 (-1) in
         (match
            Comm.allgatherv ~recv_buf:small ~recv_policy:Resize_policy.No_resize comm D.int
              ~send_buf:send
          with
         | (_ : int Comm.vresult) -> Alcotest.fail "expected Buffer_too_small"
         | exception Resize_policy.Buffer_too_small { needed; capacity } ->
             Alcotest.(check int) "needed" 4 needed;
             Alcotest.(check int) "capacity" 1 capacity);
         (* user buffer defaults to No_resize *)
         let ok = V.make 4 (-1) in
         ignore (Comm.allgatherv ~recv_buf:ok comm D.int ~send_buf:send)))

let test_recv_buf_reuse_no_alloc () =
  (* the returned vector must be physically the caller's buffer *)
  ignore
    (wrapped ~ranks:2 (fun comm ->
         let send = V.make 1 (Comm.rank comm) in
         let mine = V.make 2 0 in
         let res = Comm.allgatherv ~recv_buf:mine comm D.int ~send_buf:send in
         Alcotest.(check bool) "same vector returned" true (res.Comm.recv_buf == mine)))

(* ---------- other collectives with defaults ---------- *)

let test_bcast_and_single () =
  ignore
    (wrapped ~ranks:5 (fun comm ->
         let buf = if Comm.rank comm = 2 then V.of_list [ 9; 8; 7 ] else V.make 3 0 in
         Comm.bcast ~root:2 comm D.int ~send_recv_buf:buf;
         Alcotest.check vec_int "bcast" (V.of_list [ 9; 8; 7 ]) buf;
         let v = Comm.bcast_single comm D.int (Comm.rank comm * 11) in
         Alcotest.(check int) "bcast_single" 0 v))

let test_gatherv_default_counts () =
  ignore
    (wrapped ~ranks:4 (fun comm ->
         let r = Comm.rank comm in
         let res = Comm.gatherv ~root:1 ~recv_counts_out:true comm D.int ~send_buf:(V.make r r) in
         if r = 1 then begin
           Alcotest.(check (option Tutil.int_array)) "gathered counts" (Some [| 0; 1; 2; 3 |])
             res.Comm.recv_counts;
           Alcotest.check vec_int "gathered data" (V.of_list [ 1; 2; 2; 3; 3; 3 ]) res.Comm.recv_buf
         end
         else Alcotest.(check int) "others empty" 0 (V.length res.Comm.recv_buf)))

let test_scatter_defaults () =
  ignore
    (wrapped ~ranks:3 (fun comm ->
         let r = Comm.rank comm in
         (* block size broadcast internally *)
         let send = if r = 0 then Some (V.init 6 (fun i -> i)) else None in
         let mine = Comm.scatter ?send_buf:send comm D.int in
         Alcotest.check vec_int "scatter" (V.of_list [ 2 * r; (2 * r) + 1 ]) mine;
         (* scatterv with internally scattered counts *)
         let counts = [| 1; 2; 3 |] in
         let sendv = if r = 0 then Some (V.init 6 (fun i -> 100 + i)) else None in
         let minev =
           Comm.scatterv ?send_buf:sendv ?send_counts:(if r = 0 then Some counts else None) comm
             D.int
         in
         let expected = V.init counts.(r) (fun i -> 100 + (if r = 0 then 0 else if r = 1 then 1 else 3) + i) in
         Alcotest.check vec_int "scatterv" expected minev))

let test_alltoallv_defaults () =
  let results =
    wrapped ~ranks:3 (fun comm ->
        let r = Comm.rank comm in
        (* rank r sends (r+1) copies of r*10+d to each d *)
        let p = Comm.size comm in
        let send_counts = Array.make p (r + 1) in
        let send_buf = V.create () in
        for d = 0 to p - 1 do
          for _ = 1 to r + 1 do
            V.push send_buf ((r * 10) + d)
          done
        done;
        let res = Comm.alltoallv ~recv_counts_out:true comm D.int ~send_buf ~send_counts in
        (res.Comm.recv_buf, Option.get res.Comm.recv_counts))
  in
  Array.iteri
    (fun r (buf, counts) ->
      Alcotest.(check Tutil.int_array) "recv counts are sender ranks + 1" [| 1; 2; 3 |] counts;
      let expected = V.create () in
      for s = 0 to 2 do
        for _ = 1 to s + 1 do
          V.push expected ((s * 10) + r)
        done
      done;
      Alcotest.check vec_int (Printf.sprintf "alltoallv@%d" r) expected buf)
    results

let test_alltoallv_zero_overhead () =
  let res =
    Tutil.run_full ~ranks:3 (fun raw ->
        let comm = Comm.wrap raw in
        let p = Comm.size comm in
        let counts = Array.make p 1 in
        ignore
          (Comm.alltoallv ~recv_counts:counts comm D.int ~send_buf:(V.make p 0) ~send_counts:counts))
  in
  Alcotest.(check (list (pair string int)))
    "only Alltoallv issued"
    [ ("MPI_Alltoallv", 3) ]
    res.Mpisim.Mpi.profile.Mpisim.Profiling.calls

let test_allgather_inplace () =
  ignore
    (wrapped ~ranks:4 (fun comm ->
         let r = Comm.rank comm in
         let buf = V.make 4 (-1) in
         V.set buf r (r * 7);
         Comm.allgather_inplace comm D.int ~send_recv_buf:buf;
         Alcotest.check vec_int "inplace" (V.of_list [ 0; 7; 14; 21 ]) buf))

let test_reductions () =
  ignore
    (wrapped ~ranks:4 (fun comm ->
         let r = Comm.rank comm in
         let sum = Comm.allreduce_single comm D.int Mpisim.Op.int_sum (r + 1) in
         Alcotest.(check int) "allreduce_single" 10 sum;
         let prefix = Comm.scan_single comm D.int Mpisim.Op.int_sum (r + 1) in
         Alcotest.(check int) "scan_single" ((r + 1) * (r + 2) / 2) prefix;
         let ex = Comm.exscan_single ~init:0 comm D.int Mpisim.Op.int_sum (r + 1) in
         Alcotest.(check int) "exscan_single" (r * (r + 1) / 2) ex;
         let v = Comm.reduce ~root:3 comm D.float Mpisim.Op.float_max ~send_buf:(V.make 1 (float_of_int r)) in
         if r = 3 then Alcotest.(check (float 0.0)) "reduce root" 3.0 (V.get v 0)
         else Alcotest.(check int) "reduce non-root empty" 0 (V.length v);
         (* lambda reduction, as in the paper's feature list *)
         let med = Comm.allreduce_single comm D.int (Mpisim.Op.of_fun (fun a b -> a + b + 1)) 0 in
         Alcotest.(check int) "lambda op" 3 med))

(* ---------- point-to-point with probing ---------- *)

let test_recv_exact_size () =
  ignore
    (wrapped ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then Comm.send comm D.int ~send_buf:(V.of_list [ 5; 6; 7 ]) ~dst:1
         else begin
           (* no count given: probe sizes the buffer exactly *)
           let got = Comm.recv comm D.int ~src:0 in
           Alcotest.check vec_int "exact" (V.of_list [ 5; 6; 7 ]) got
         end))

let test_nb_result_safety () =
  ignore
    (wrapped ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then begin
           (* Fig. 6: buffer moves into the call, comes back on wait *)
           let data = V.of_list [ 1; 2; 3 |> Fun.id ] in
           let res = Comm.isend comm D.int ~send_buf:data ~dst:1 in
           let back = Nb_result.wait res in
           Alcotest.(check bool) "same buffer returned" true (back == data)
         end
         else begin
           let res = Comm.irecv ~count:3 comm D.int ~src:0 in
           (* test returns None while in flight... by construction the data
              is unreachable until completion *)
           let rec wait_loop n =
             match Nb_result.test res with
             | Some v -> (v, n)
             | None ->
                 Comm.compute comm 0.5e-6;
                 wait_loop (n + 1)
           in
           let v, polls = wait_loop 0 in
           Alcotest.(check bool) "needed at least one poll" true (polls > 0);
           Alcotest.check vec_int "payload" (V.of_list [ 1; 2; 3 ]) v
         end))

let test_nb_result_map () =
  ignore
    (wrapped ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then Comm.send comm D.int ~send_buf:(V.of_list [ 4; 5 ]) ~dst:1
         else begin
           let res = Comm.irecv ~count:2 comm D.int ~src:0 in
           let sum = Nb_result.map (fun v -> V.fold_left ( + ) 0 v) res in
           Alcotest.(check int) "mapped" 9 (Nb_result.wait sum)
         end))

let test_request_pool () =
  ignore
    (wrapped ~ranks:2 (fun comm ->
         let pool = Request_pool.create () in
         if Comm.rank comm = 0 then begin
           for i = 1 to 5 do
             let res = Comm.isend ~tag:i comm D.int ~send_buf:(V.make 1 i) ~dst:1 in
             Request_pool.add pool (Nb_result.request res)
           done;
           Alcotest.(check int) "in flight" 5 (Request_pool.in_flight pool);
           Request_pool.wait_all pool;
           Alcotest.(check int) "drained" 0 (Request_pool.in_flight pool)
         end
         else
           for i = 1 to 5 do
             ignore (Comm.recv ~tag:i ~count:1 comm D.int ~src:0)
           done))

let test_bounded_request_pool () =
  ignore
    (wrapped ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then begin
           let pool = Request_pool.create_bounded ~slots:2 () in
           for i = 1 to 6 do
             let res = Comm.isend ~tag:i comm D.int ~send_buf:(V.make 1 i) ~dst:1 in
             Request_pool.add pool (Nb_result.request res);
             Alcotest.(check bool) "never above capacity" true (Request_pool.in_flight pool <= 2)
           done;
           Request_pool.wait_all pool
         end
         else
           for i = 1 to 6 do
             ignore (Comm.recv ~tag:i ~count:1 comm D.int ~src:0)
           done))

(* ---------- type traits ---------- *)

let test_type_traits_layouts () =
  (* struct { int64 a; double b; char c; int[3] d } from the paper's Fig. 4 *)
  let fields =
    Type_traits.[ Int64 "a"; Float "b"; Char "c"; Array ("d", 3, Int "elt") ]
  in
  Alcotest.(check int) "padding" 7 (Type_traits.padding fields);
  let contiguous : unit D.t = Type_traits.trivially_copyable ~name:"MyType" fields in
  let strct : unit D.t = Type_traits.struct_type ~name:"MyTypeS" fields in
  (* contiguous ships padding too, struct ships payload only *)
  Alcotest.(check int) "contiguous extent" 48 (D.extent contiguous);
  Alcotest.(check int) "struct extent" 41 (D.extent strct);
  Alcotest.(check bool) "struct pays pack penalty" true (D.pack_factor strct > 1.0);
  Alcotest.(check (float 1e-9)) "contiguous has none" 1.0 (D.pack_factor contiguous)

let test_custom_type_roundtrip () =
  (* communicate a custom record type end to end *)
  let dt : (int * float) D.t =
    Type_traits.trivially_copyable ~default:(0, 0.0) ~name:"pairrec"
      Type_traits.[ Int "k"; Float "v" ]
  in
  let results =
    wrapped ~ranks:3 (fun comm ->
        let r = Comm.rank comm in
        (Comm.allgatherv comm dt ~send_buf:(V.of_list [ (r, float_of_int r) ])).Comm.recv_buf)
  in
  let expected = V.of_list [ (0, 0.0); (1, 1.0); (2, 2.0) ] in
  Array.iter
    (fun got ->
      Alcotest.(check bool) "custom type payload" true (V.equal ( = ) expected got))
    results

(* ---------- serialization ---------- *)

let test_serialized_p2p () =
  ignore
    (wrapped ~ranks:2 (fun comm ->
         let codec = Serde.Codec.(assoc string) in
         let dict = [ ("hello", "world"); ("k", "v") ] in
         if Comm.rank comm = 0 then Comm.send_serialized comm codec dict ~dst:1
         else begin
           let got = Comm.recv_serialized comm codec ~src:0 in
           Alcotest.(check (list (pair string string))) "dict" dict got
         end))

let test_bcast_serialized () =
  ignore
    (wrapped ~ranks:4 (fun comm ->
         let codec = Serde.Codec.(list (pair int string)) in
         let payload = if Comm.rank comm = 0 then [ (1, "a"); (2, "bc") ] else [] in
         let got = Comm.bcast_serialized comm codec payload in
         Alcotest.(check (list (pair int string))) "bcast serialized" [ (1, "a"); (2, "bc") ] got))

let test_alltoallv_serialized () =
  ignore
    (wrapped ~ranks:3 (fun comm ->
         let r = Comm.rank comm and p = Comm.size comm in
         (* ship a different string list to every rank *)
         let messages = Array.init p (fun d -> List.init d (fun i -> Printf.sprintf "%d->%d#%d" r d i)) in
         let got = Comm.alltoallv_serialized comm Serde.Codec.(list string) messages in
         Array.iteri
           (fun s l ->
             let expected = List.init r (fun i -> Printf.sprintf "%d->%d#%d" s r i) in
             Alcotest.(check (list string)) (Printf.sprintf "from %d" s) expected l)
           got))

let test_allgather_serialized () =
  ignore
    (wrapped ~ranks:3 (fun comm ->
         let codec = Serde.Codec.string in
         let got = Comm.allgather_serialized comm codec (String.make (Comm.rank comm + 1) 'x') in
         Alcotest.(check (array string)) "variable strings" [| "x"; "xx"; "xxx" |] got))

(* A serialized payload costs one encode and one contiguous copy per side
   (the wire path in serialization.mli).  Host words are counted the way
   perfbench counts them, over a whole run at p=4 with [array float]
   payloads of 32 KiB, so per-message constants amortize.  Allocation is
   deterministic; the bounds are the measured ratios plus 25% headroom. *)
let serialized_floats = 4096
let floats_codec = Serde.Codec.(array float)
let floats_payload r d =
  Array.init serialized_floats (fun i -> float_of_int ((r * 7919) + (d * 31) + i) *. 0.25)

let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let words_per_wire_byte ~wire_bytes f =
  let before = allocated_words () in
  ignore (wrapped ~ranks:4 f);
  (allocated_words () -. before) /. float_of_int wire_bytes

let test_serialized_alloc_bound () =
  let p = 4 in
  let part_bytes = Bytes.length (Serde.Codec.encode floats_codec (floats_payload 0 0)) in
  let alltoallv =
    words_per_wire_byte ~wire_bytes:(p * p * part_bytes) (fun comm ->
        let r = Comm.rank comm in
        let got =
          Comm.alltoallv_serialized comm floats_codec (Array.init p (fun d -> floats_payload r d))
        in
        Array.iteri
          (fun s a -> if a <> floats_payload s r then Alcotest.failf "alltoallv part from %d" s)
          got)
  in
  (* every rank receives every payload *)
  let allgather =
    words_per_wire_byte ~wire_bytes:(p * p * part_bytes) (fun comm ->
        let r = Comm.rank comm in
        let got = Comm.allgather_serialized comm floats_codec (floats_payload r 0) in
        Array.iteri
          (fun s a -> if a <> floats_payload s 0 then Alcotest.failf "allgather part from %d" s)
          got)
  in
  let bounded name ratio bound =
    if ratio > bound then
      Alcotest.failf "%s_serialized: %.2f host words per wire byte, bound %.2f" name ratio bound
  in
  bounded "alltoallv" alltoallv (4.98 *. 1.25);
  bounded "allgather" allgather (3.01 *. 1.25)

(* ---------- assertions ---------- *)

let test_assertion_levels () =
  Alcotest.(check bool) "default light" true (Assertions.enabled Assertions.Light);
  Assertions.with_level Assertions.Off (fun () ->
      Alcotest.(check bool) "off disables light" false (Assertions.enabled Assertions.Light);
      (* disabled checks do not even evaluate the condition *)
      Assertions.check Assertions.Light (fun () -> Alcotest.fail "must not run") "boom");
  Alcotest.(check bool) "restored" true (Assertions.enabled Assertions.Light)

let test_heavy_assertion_catches_mismatch () =
  let failures =
    Tutil.run_full ~ranks:2 (fun raw ->
        let comm = Comm.wrap raw in
        Assertions.with_level Assertions.Heavy (fun () ->
            (* ranks disagree on the bcast count: heavy mode must catch it *)
            let buf = V.make (1 + Comm.rank comm) 0 in
            Comm.bcast comm D.int ~send_recv_buf:buf))
  in
  Array.iter
    (fun r ->
      match r with
      | Error (Mpisim.Errors.Usage_error msg) ->
          Alcotest.(check bool) "mentions disagreement" true
            (String.length msg > 0 && String.sub msg 0 5 = "heavy")
      | Ok () -> Alcotest.fail "heavy assertion missed the mismatch"
      | Error e -> raise e)
    failures.Mpisim.Mpi.results

let test_heavy_assertions_cost_communication () =
  let with_heavy =
    Tutil.run_full ~ranks:2 (fun raw ->
        Assertions.with_level Assertions.Heavy (fun () ->
            ignore (Comm.allgather (Comm.wrap raw) D.int ~send_buf:(V.make 1 0))))
  in
  let with_off =
    Tutil.run_full ~ranks:2 (fun raw ->
        Assertions.with_level Assertions.Off (fun () ->
            ignore (Comm.allgather (Comm.wrap raw) D.int ~send_buf:(V.make 1 0))))
  in
  let calls prof = List.fold_left (fun acc (_, n) -> acc + n) 0 prof.Mpisim.Profiling.calls in
  Alcotest.(check bool) "heavy issues extra MPI calls" true
    (calls with_heavy.Mpisim.Mpi.profile > calls with_off.Mpisim.Mpi.profile);
  Alcotest.(check int) "off mode: single call" 2 (calls with_off.Mpisim.Mpi.profile)

(* ---------- flatten ---------- *)

let test_flatten () =
  let tbl = Hashtbl.create 4 in
  Hashtbl.add tbl 2 (V.of_list [ 20; 21 ]);
  Hashtbl.add tbl 0 (V.of_list [ 1 ]);
  let flat = Flatten.flatten ~comm_size:4 tbl in
  Alcotest.(check Tutil.int_array) "counts" [| 1; 0; 2; 0 |] flat.Flatten.send_counts;
  Alcotest.check vec_int "data in rank order" (V.of_list [ 1; 20; 21 ]) flat.Flatten.data;
  Alcotest.(check bool) "bad destination rejected" true
    (let bad = Hashtbl.create 1 in
     Hashtbl.add bad 9 (V.of_list [ 1 ]);
     match Flatten.flatten ~comm_size:4 bad with
     | (_ : int Flatten.flat) -> false
     | exception Mpisim.Errors.Usage_error _ -> true)

let test_flatten_roundtrip () =
  ignore
    (wrapped ~ranks:3 (fun comm ->
         let r = Comm.rank comm in
         let tbl = Hashtbl.create 4 in
         (* send my rank to every other rank *)
         for d = 0 to 2 do
           if d <> r then Hashtbl.add tbl d (V.of_list [ r ])
         done;
         let res = Comm.alltoallv_flat comm D.int (Flatten.flatten ~comm_size:3 tbl) in
         let expected = V.of_list (List.filter (fun x -> x <> r) [ 0; 1; 2 ]) in
         Alcotest.check vec_int "flat roundtrip" expected res.Comm.recv_buf))

let suite =
  [
    Alcotest.test_case "allgatherv one-liner (Fig. 1)" `Quick test_allgatherv_defaults;
    Alcotest.test_case "allgatherv with empty ranks" `Quick test_allgatherv_empty_ranks;
    Alcotest.test_case "allgatherv out-parameters" `Quick test_allgatherv_out_parameters;
    Alcotest.test_case "zero overhead: counts given" `Quick test_allgatherv_given_counts_skips_exchange;
    Alcotest.test_case "default computation matches hand-rolled" `Quick
      test_allgatherv_computes_counts_like_handrolled;
    Alcotest.test_case "resize policies" `Quick test_resize_policies;
    Alcotest.test_case "recv_buf physically reused" `Quick test_recv_buf_reuse_no_alloc;
    Alcotest.test_case "bcast + bcast_single" `Quick test_bcast_and_single;
    Alcotest.test_case "gatherv default counts" `Quick test_gatherv_default_counts;
    Alcotest.test_case "scatter/scatterv defaults" `Quick test_scatter_defaults;
    Alcotest.test_case "alltoallv default counts" `Quick test_alltoallv_defaults;
    Alcotest.test_case "alltoallv zero overhead" `Quick test_alltoallv_zero_overhead;
    Alcotest.test_case "allgather in-place (send_recv_buf)" `Quick test_allgather_inplace;
    Alcotest.test_case "reductions incl. lambda ops" `Quick test_reductions;
    Alcotest.test_case "recv sizes buffer exactly" `Quick test_recv_exact_size;
    Alcotest.test_case "non-blocking result safety (Fig. 6)" `Quick test_nb_result_safety;
    Alcotest.test_case "non-blocking result map" `Quick test_nb_result_map;
    Alcotest.test_case "request pool" `Quick test_request_pool;
    Alcotest.test_case "bounded request pool" `Quick test_bounded_request_pool;
    Alcotest.test_case "type traits layouts (Fig. 4)" `Quick test_type_traits_layouts;
    Alcotest.test_case "custom type end-to-end" `Quick test_custom_type_roundtrip;
    Alcotest.test_case "serialized p2p (Fig. 5)" `Quick test_serialized_p2p;
    Alcotest.test_case "serialized bcast (Fig. 11)" `Quick test_bcast_serialized;
    Alcotest.test_case "serialized allgather" `Quick test_allgather_serialized;
    Alcotest.test_case "serialized alltoallv" `Quick test_alltoallv_serialized;
    Alcotest.test_case "serialized collectives: host words per wire byte" `Quick
      test_serialized_alloc_bound;
    Alcotest.test_case "assertion levels" `Quick test_assertion_levels;
    Alcotest.test_case "heavy assertion catches mismatch" `Quick test_heavy_assertion_catches_mismatch;
    Alcotest.test_case "assertion levels change call profile" `Quick
      test_heavy_assertions_cost_communication;
    Alcotest.test_case "with_flattened" `Quick test_flatten;
    Alcotest.test_case "flatten + alltoallv roundtrip" `Quick test_flatten_roundtrip;
  ]
