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

(* ---------- surface knobs ---------- *)

(* Every optional parameter of the call surface is set by some call
   (bin/lint_exports.ml checks it).  A knob row sets one of them and
   compares the per-rank result with a reference: the default call's
   result moved to where the knob puts it, or the hand-rolled mpisim call
   with the same value. *)
type row = {
  knob : string;
  explicit : Mpisim.Comm.t -> string;
  reference : Mpisim.Comm.t -> string;
}

let pad = -7

(* [at k a] is [a] behind [k] padding cells, [trail k a] is [a] before
   them, and [opt k v] passes a knob only when [k > 0]. *)
let at k a = Array.append (Array.make k pad) a
let trail k a = Array.append a (Array.make k pad)
let opt k v = if k = 0 then None else Some v

(* [window k n buf] prints [buf]'s [n] cells from [k], flagging any
   padding cell the call overwrote. *)
let window k n buf =
  let outside =
    Array.append (Array.sub buf 0 k) (Array.sub buf (k + n) (Array.length buf - k - n))
  in
  (if Array.for_all (( = ) pad) outside then "" else "padding clobbered: ")
  ^ ints (Array.sub buf k n)

(* [shifted knob f] runs [f raw 2] against [f raw 0]: [f raw k] builds
   its buffers with [at k] or [trail k] and sets the knob with [opt k]. *)
let shifted knob f = { knob; explicit = (fun raw -> f raw 2); reference = (fun raw -> f raw 0) }

(* [against knob wrapper reference] runs a wrapper call that sets the
   knob against a reference: the mpisim calls it stands for with the same
   value, or the default call's result rearranged. *)
let against knob wrapper reference =
  { knob; explicit = (fun raw -> wrapper (K.wrap raw)); reference }

let vec v = ints (V.to_array v)
let size c = Mpisim.Comm.size c
let last c = size c - 1
let block r = [| (10 * r) + 1; (10 * r) + 2 |]
let bcast_input c ~root = if rank c = root then [| 4; 5; 6 |] else [| 0; 0; 0 |]

(* Rank [i] owns the [i + 1] elements [blocks.(i)]. *)
let blocks p = Array.init p (fun i -> Array.init (i + 1) (fun j -> (10 * i) + j))
let counts_of p = Array.init p (fun i -> i + 1)
let total counts = Array.fold_left ( + ) 0 counts
let concat bs = Array.concat (Array.to_list bs)
let scan = C.exclusive_scan

(* Displacements that lay out blocks of [counts] in reverse rank order,
   and that layout of a rank-ordered packed buffer. *)
let reversed_displs counts =
  let p = Array.length counts in
  Array.init p (fun i -> total (Array.sub counts (i + 1) (p - i - 1)))

let reverse_blocks counts a =
  let displs = scan counts in
  let part i = Array.sub a displs.(i) counts.(i) in
  Array.concat (List.rev (List.init (Array.length counts) part))

(* [policy_rows call] runs [call] on a caller-owned buffer two cells
   longer than the default result, under each policy.  The call hands the
   caller's vector back; [Resize_to_fit] trims it to the default result,
   [Grow_only] and [No_resize] keep the two cells.  [call] returns [None]
   where its result is insignificant (a rooted call's non-roots). *)
let policy_rows
    (call :
      ?recv_buf:int V.t -> ?recv_policy:Kamping.Resize_policy.t -> K.t -> int V.t option) =
  List.map
    (fun (name, policy) ->
      {
        knob = "recv_buf + recv_policy " ^ name;
        explicit =
          (fun raw ->
            let comm = K.wrap raw in
            let n = Option.fold ~none:0 ~some:V.length (call comm) in
            let buf = V.make (n + 2) pad in
            match call ?recv_buf:(Some buf) ?recv_policy:(Some policy) comm with
            | Some got -> Printf.sprintf "%b %s" (got == buf) (vec got)
            | None -> "");
        reference =
          (fun raw ->
            match call (K.wrap raw) with
            | Some d when policy = Kamping.Resize_policy.Resize_to_fit -> "true " ^ vec d
            | Some d -> "true " ^ ints (trail 2 (V.to_array d))
            | None -> "");
      })
    Kamping.Resize_policy.
      [ ("Resize_to_fit", Resize_to_fit); ("Grow_only", Grow_only); ("No_resize", No_resize) ]

(* Rank [r] sends [d + 1] elements to rank [d], so it receives [r + 1]
   from everyone. *)
let v_send_counts c = counts_of (size c)
let v_send_buf c = Array.init (total (v_send_counts c)) (fun i -> (100 * rank c) + i)

let knobs =
  [
    ( "Collectives.bcast",
      [
        shifted "pos" (fun raw k ->
            let buf = at k (bcast_input raw ~root:0) in
            C.bcast ?pos:(opt k k) raw D.int buf ~root:0;
            window k 3 buf);
      ] );
    ( "Collectives.ibcast",
      [
        shifted "pos" (fun raw k ->
            let buf = at k (bcast_input raw ~root:0) in
            ignore (Mpisim.Request.wait (C.ibcast ?pos:(opt k k) raw D.int buf ~root:0));
            window k 3 buf);
      ] );
    ( "Collectives.bcast_init",
      [
        shifted "pos" (fun raw k ->
            let buf = at k (bcast_input raw ~root:0) in
            let h = C.bcast_init ?pos:(opt k k) raw D.int buf ~root:0 in
            Persist.start h;
            ignore (Persist.wait h);
            Persist.free h;
            window k 3 buf);
      ] );
    ( "Collectives.reduce",
      [
        shifted "pos" (fun raw k ->
            let recvbuf = [| 0; 0 |] in
            C.reduce ?pos:(opt k k) ~recvbuf raw D.int Op.int_sum
              ~sendbuf:(at k (block (rank raw)))
              ~count:2 ~root:0;
            ints recvbuf);
      ] );
    ( "Collectives.allreduce",
      [
        shifted "pos" (fun raw k ->
            let recvbuf = [| 0; 0 |] in
            C.allreduce ?pos:(opt k k) raw D.int Op.int_sum ~sendbuf:(at k (block (rank raw)))
              ~recvbuf ~count:2;
            ints recvbuf);
      ] );
    ( "Collectives.allgather",
      [
        shifted "spos" (fun raw k ->
            let recvbuf = Array.make (2 * size raw) 0 in
            C.allgather ?spos:(opt k k) raw D.int ~sendbuf:(at k (block (rank raw))) ~recvbuf
              ~count:2;
            ints recvbuf);
        shifted "rpos" (fun raw k ->
            let recvbuf = at k (Array.make (2 * size raw) 0) in
            C.allgather ?rpos:(opt k k) raw D.int ~sendbuf:(block (rank raw)) ~recvbuf ~count:2;
            window k (2 * size raw) recvbuf);
      ] );
    ( "Collectives.allgatherv",
      [
        shifted "spos" (fun raw k ->
            let r = rank raw and rcounts = counts_of (size raw) in
            let recvbuf = Array.make (total rcounts) 0 in
            C.allgatherv ?spos:(opt k k) raw D.int
              ~sendbuf:(at k (blocks (size raw)).(r))
              ~scount:(r + 1) ~recvbuf ~rcounts ~rdispls:(scan rcounts);
            ints recvbuf);
      ] );
    ( "Collectives.gather",
      [
        shifted "spos" (fun raw k ->
            let recvbuf = Array.make (2 * size raw) 0 in
            C.gather ?spos:(opt k k) ~recvbuf raw D.int
              ~sendbuf:(at k (block (rank raw)))
              ~count:2 ~root:0;
            ints recvbuf);
        shifted "rpos" (fun raw k ->
            let recvbuf = at k (Array.make (2 * size raw) 0) in
            C.gather ?rpos:(opt k k) ~recvbuf raw D.int ~sendbuf:(block (rank raw)) ~count:2
              ~root:0;
            window k (2 * size raw) recvbuf);
      ] );
    ( "Collectives.gatherv",
      [
        shifted "spos" (fun raw k ->
            let r = rank raw and rcounts = counts_of (size raw) in
            let recvbuf = Array.make (total rcounts) 0 in
            C.gatherv ?spos:(opt k k) ~recvbuf ~rcounts ~rdispls:(scan rcounts) raw D.int
              ~sendbuf:(at k (blocks (size raw)).(r))
              ~scount:(r + 1) ~root:0;
            ints recvbuf);
      ] );
    ( "Collectives.scatter",
      [
        shifted "spos" (fun raw k ->
            let recvbuf = [| 0; 0 |] in
            C.scatter ?spos:(opt k k)
              ~sendbuf:(at k (Array.init (2 * size raw) (( + ) 100)))
              raw D.int ~recvbuf ~count:2 ~root:0;
            ints recvbuf);
        shifted "rpos" (fun raw k ->
            let recvbuf = at k [| 0; 0 |] in
            C.scatter ?rpos:(opt k k)
              ~sendbuf:(Array.init (2 * size raw) (( + ) 100))
              raw D.int ~recvbuf ~count:2 ~root:0;
            window k 2 recvbuf);
      ] );
    ( "Collectives.scatterv",
      [
        shifted "rpos" (fun raw k ->
            let r = rank raw and scounts = counts_of (size raw) in
            let recvbuf = at k (Array.make (r + 1) 0) in
            C.scatterv ?rpos:(opt k k)
              ~sendbuf:(concat (blocks (size raw)))
              ~scounts ~sdispls:(scan scounts) raw D.int ~recvbuf ~rcount:(r + 1) ~root:0;
            window k (r + 1) recvbuf);
      ] );
    ( "P2p.sendrecv",
      let sendrecv raw ~send ?send_pos ?send_count ~recv ?recv_pos ?recv_count () =
        status
          (P.sendrecv raw D.int ~send ?send_pos ?send_count ~dst:(next raw) ~stag:0 ~recv ?recv_pos
             ?recv_count ~src:(prev raw) ~rtag:0 ())
      in
      [
        shifted "send_pos" (fun raw k ->
            let recv = [| 0; 0 |] in
            sendrecv raw ~send:(at k (block (rank raw))) ?send_pos:(opt k k) ~recv () ^ ints recv);
        shifted "send_count" (fun raw k ->
            let recv = [| 0; 0 |] in
            sendrecv raw ~send:(trail k (block (rank raw))) ?send_count:(opt k 2) ~recv ()
            ^ ints recv);
        shifted "recv_pos" (fun raw k ->
            let recv = at k [| 0; 0 |] in
            sendrecv raw ~send:(block (rank raw)) ~recv ?recv_pos:(opt k k) () ^ window k 2 recv);
        shifted "recv_count" (fun raw k ->
            let recv = trail k [| 0; 0 |] in
            sendrecv raw ~send:(block (rank raw)) ~recv ?recv_count:(opt k 2) () ^ window 0 2 recv);
      ] );
    ( "P2p.sendrecv_replace",
      let replace raw ?pos ?count buf =
        status
          (P.sendrecv_replace ?pos ?count raw D.int buf ~dst:(next raw) ~stag:0 ~src:(prev raw)
             ~rtag:0)
      in
      [
        shifted "pos" (fun raw k ->
            let buf = at k (block (rank raw)) in
            replace raw ?pos:(opt k k) buf ^ window k 2 buf);
        shifted "count" (fun raw k ->
            let buf = trail k (block (rank raw)) in
            replace raw ?count:(opt k 2) buf ^ window 0 2 buf);
      ] );
    ( "P2p.send_init + ssend_init",
      let persistent_send init raw k =
        let h = init ?pos:(opt k k) raw (at k (block (rank raw))) in
        let buf = [| 0; 0 |] in
        Persist.start h;
        let st = P.recv raw D.int buf ~src:(prev raw) ~tag:0 in
        ignore (Persist.wait h);
        Persist.free h;
        status st ^ ints buf
      in
      [
        shifted "send_init pos"
          (persistent_send (fun ?pos raw buf ->
               P.send_init ?pos raw D.int buf ~dst:(next raw) ~tag:0));
        shifted "ssend_init pos"
          (persistent_send (fun ?pos raw buf ->
               P.ssend_init ?pos raw D.int buf ~dst:(next raw) ~tag:0));
      ] );
    ( "P2p.recv_init",
      [
        shifted "pos" (fun raw k ->
            let buf = at k [| 0; 0 |] in
            let h = P.recv_init ?pos:(opt k k) raw D.int buf ~src:(prev raw) ~tag:0 in
            Persist.start h;
            P.send raw D.int (block (rank raw)) ~dst:(next raw) ~tag:0;
            let st = Persist.wait h in
            Persist.free h;
            status st ^ window k 2 buf);
      ] );
    ( "Comm.is_root",
      [
        against "root"
          (fun comm -> string_of_bool (K.is_root ~root:(K.size comm - 1) comm))
          (fun raw -> string_of_bool (rank raw = last raw));
      ] );
    ( "Comm.gatherv",
      let send raw = V.of_array (blocks (size raw)).(rank raw) in
      let default raw = (K.gatherv (K.wrap raw) D.int ~send_buf:(send raw)).K.recv_buf in
      [
        {
          knob = "recv_counts";
          explicit =
            (fun raw ->
              vec
                (K.gatherv ~recv_counts:(counts_of (size raw)) (K.wrap raw) D.int
                   ~send_buf:(send raw))
                  .K.recv_buf);
          reference = (fun raw -> vec (default raw));
        };
        {
          knob = "recv_displs";
          explicit =
            (fun raw ->
              vec
                (K.gatherv ~recv_displs:(reversed_displs (counts_of (size raw))) (K.wrap raw) D.int
                   ~send_buf:(send raw))
                  .K.recv_buf);
          reference =
            (fun raw ->
              let d = V.to_array (default raw) in
              ints (if rank raw = 0 then reverse_blocks (counts_of (size raw)) d else d));
        };
        {
          knob = "recv_displs_out";
          explicit =
            (fun raw ->
              let res = K.gatherv ~recv_displs_out:true (K.wrap raw) D.int ~send_buf:(send raw) in
              Option.fold ~none:"-" ~some:ints res.K.recv_displs);
          reference =
            (fun raw ->
              ignore (default raw);
              if rank raw = 0 then ints (scan (counts_of (size raw))) else "-");
        };
      ]
      @ policy_rows (fun ?recv_buf ?recv_policy comm ->
            let res = K.gatherv ?recv_buf ?recv_policy comm D.int ~send_buf:(send (K.raw comm)) in
            if K.rank comm = 0 then Some res.K.recv_buf else None) );
    ( "Comm.allgather",
      policy_rows (fun ?recv_buf ?recv_policy comm ->
          let send_buf = V.of_array (block (K.rank comm)) in
          Some (K.allgather ?recv_buf ?recv_policy comm D.int ~send_buf))
    );
    ( "Comm.scatter",
      let send comm ~root =
        if K.rank comm = root then Some (V.of_array (Array.init (2 * K.size comm) (( + ) 100)))
        else None
      in
      [
        against "root"
          (fun comm ->
            let root = K.size comm - 1 in
            vec (K.scatter ~root ?send_buf:(send comm ~root) comm D.int))
          (fun raw ->
            let recvbuf = [| 0; 0 |] in
            C.scatter ~sendbuf:(Array.init (2 * size raw) (( + ) 100)) raw D.int ~recvbuf ~count:2
              ~root:(last raw);
            ints recvbuf);
        {
          knob = "recv_count";
          explicit =
            (fun raw ->
              let comm = K.wrap raw in
              vec (K.scatter ~recv_count:2 ?send_buf:(send comm ~root:0) comm D.int));
          reference =
            (fun raw ->
              let comm = K.wrap raw in
              vec (K.scatter ?send_buf:(send comm ~root:0) comm D.int));
        };
      ]
      @ policy_rows (fun ?recv_buf ?recv_policy comm ->
            Some (K.scatter ?recv_buf ?recv_policy ?send_buf:(send comm ~root:0) comm D.int)) );
    ( "Comm.scatterv",
      let counts comm = counts_of (K.size comm) in
      let scatterv ?root ?send_displs ?recv_buf ?recv_policy comm send =
        let root = Option.value root ~default:0 in
        let mine = K.rank comm = root in
        K.scatterv ~root ?send_buf:(if mine then Some (V.of_array send) else None)
          ?send_counts:(if mine then Some (counts comm) else None)
          ?send_displs ?recv_buf ?recv_policy comm D.int
      in
      let in_order comm = concat (blocks (K.size comm)) in
      [
        against "root"
          (fun comm -> vec (scatterv ~root:(K.size comm - 1) comm (in_order comm)))
          (fun raw ->
            let scounts = counts_of (size raw) in
            let recvbuf = Array.make (rank raw + 1) 0 in
            C.scatterv ~sendbuf:(concat (blocks (size raw))) ~scounts ~sdispls:(scan scounts) raw
              D.int ~recvbuf ~rcount:(rank raw + 1) ~root:(last raw);
            ints recvbuf);
        against "send_displs"
          (fun comm ->
            let reversed = Array.concat (List.rev (Array.to_list (blocks (K.size comm)))) in
            vec (scatterv ~send_displs:(reversed_displs (counts comm)) comm reversed))
          (fun raw -> vec (scatterv (K.wrap raw) (in_order (K.wrap raw))));
      ]
      @ policy_rows (fun ?recv_buf ?recv_policy comm ->
            Some (scatterv ?recv_buf ?recv_policy comm (in_order comm))) );
    ( "Comm.alltoall",
      policy_rows (fun ?recv_buf ?recv_policy comm ->
          let send_buf = V.of_array (Array.init (K.size comm) (fun d -> (10 * K.rank comm) + d)) in
          Some (K.alltoall ?recv_buf ?recv_policy comm D.int ~send_buf)) );
    ( "Comm.alltoallv",
      let alltoallv ?recv_policy ?recv_buf ?send_displs_out comm =
        K.alltoallv ?recv_policy ?recv_buf ?send_displs_out comm D.int
          ~send_buf:(V.of_array (v_send_buf (K.raw comm)))
          ~send_counts:(v_send_counts (K.raw comm))
      in
      [
        against "send_displs_out"
          (fun comm ->
            let res = alltoallv ~send_displs_out:true comm in
            vec res.K.recv_buf ^ " " ^ Option.fold ~none:"-" ~some:ints res.K.send_displs)
          (fun raw ->
            vec (alltoallv (K.wrap raw)).K.recv_buf ^ " " ^ ints (scan (v_send_counts raw)));
      ]
      @ policy_rows (fun ?recv_buf ?recv_policy comm ->
            Some (alltoallv ?recv_buf ?recv_policy comm).K.recv_buf) );
    ( "Comm.ibcast",
      [
        against "root"
          (fun comm ->
            let root = K.size comm - 1 in
            let send_recv_buf = V.of_array (bcast_input (K.raw comm) ~root) in
            let h = K.ibcast ~root comm D.int ~send_recv_buf in
            vec (Kamping.Nb_result.wait h))
          (fun raw ->
            let buf = bcast_input raw ~root:(last raw) in
            ignore (Mpisim.Request.wait (C.ibcast raw D.int buf ~root:(last raw)));
            ints buf);
      ] );
    ( "Comm.ialltoallv",
      let ialltoallv ?send_displs ?recv_displs comm send =
        let raw = K.raw comm in
        Kamping.Nb_result.wait
          (K.ialltoallv ?send_displs ?recv_displs comm D.int ~send_buf:(V.of_array send)
             ~send_counts:(v_send_counts raw)
             ~recv_counts:(Array.make (size raw) (rank raw + 1)))
        |> V.to_array
      in
      let default raw = ialltoallv (K.wrap raw) (v_send_buf raw) in
      [
        against "send_displs"
          (fun comm ->
            let raw = K.raw comm in
            let counts = v_send_counts raw in
            ints
              (ialltoallv ~send_displs:(reversed_displs counts) comm
                 (reverse_blocks counts (v_send_buf raw))))
          (fun raw -> ints (default raw));
        against "recv_displs"
          (fun comm ->
            let raw = K.raw comm in
            let rcounts = Array.make (size raw) (rank raw + 1) in
            ints (ialltoallv ~recv_displs:(reversed_displs rcounts) comm (v_send_buf raw)))
          (fun raw -> ints (reverse_blocks (Array.make (size raw) (rank raw + 1)) (default raw)));
      ] );
    ( "Comm.recv",
      let recv ?count ?recv_buf ?recv_policy comm =
        let raw = K.raw comm in
        P.send raw D.int (block (rank raw)) ~dst:(next raw) ~tag:0;
        K.recv ?count ?recv_buf ?recv_policy comm D.int ~src:(prev raw)
      in
      (* a capacity above the message grows an empty buffer only as far
         as the data needs *)
      against "count above the message, Grow_only"
        (fun comm ->
          let recv_policy = Kamping.Resize_policy.Grow_only in
          vec (recv ~count:4 ~recv_buf:(V.create ()) ~recv_policy comm))
        (fun raw -> vec (recv (K.wrap raw)))
      :: policy_rows (fun ?recv_buf ?recv_policy comm -> Some (recv ?recv_buf ?recv_policy comm)) );
    ( "Comm.split_by_node",
      [
        against "key"
          (fun comm -> shape (K.raw (K.split_by_node ~key:(-K.rank comm) comm)))
          (fun raw ->
            let node = Mpisim.Comm.node_of_rank raw (rank raw) in
            match C.split raw ~color:node ~key:(-rank raw) with
            | Some c -> shape c
            | None -> "undefined");
      ] );
    ( "Comm tags",
      let partitioned ~psend ~precv raw =
        let hr, buf = precv raw in
        let hs = psend raw in
        Persist.startall [ hr; hs ];
        Persist.pready hs 0;
        Persist.pready hs 1;
        ignore (Persist.wait hs);
        let st = Persist.wait hr in
        Persist.free hs;
        Persist.free hr;
        status st ^ buf ()
      in
      let p_psend raw =
        P.psend_init raw D.int (block (rank raw)) ~partitions:2 ~count:1 ~dst:(next raw) ~tag:3
      in
      let p_precv raw =
        let buf = [| 0; 0 |] in
        let h = P.precv_init raw D.int buf ~partitions:2 ~count:1 ~src:(prev raw) ~tag:3 in
        (h, fun () -> ints buf)
      in
      let k_psend raw =
        K.psend_init ~tag:3 (K.wrap raw) D.int ~send_buf:(V.of_array (block (rank raw)))
          ~partitions:2 ~count:1 ~dst:(next raw)
      in
      let k_precv raw =
        let h, buf =
          K.precv_init ~tag:3 ~partitions:2 ~count:1 (K.wrap raw) D.int ~src:(prev raw)
        in
        (h, fun () -> vec buf)
      in
      let sparse ~send ~recv raw =
        send raw;
        status (recv raw)
      in
      let p_send raw = P.send_sparse raw D.char ~count:big ~dst:(next raw) ~tag:3 in
      let p_recv raw = P.recv_sparse raw D.char ~capacity:big ~src:(prev raw) ~tag:3 in
      [
        against "issend"
          (fun comm ->
            let raw = K.raw comm in
            let h =
              K.issend ~tag:3 comm D.int ~send_buf:(V.of_array (block (rank raw))) ~dst:(next raw)
            in
            let buf = [| 0; 0 |] in
            let st = P.recv raw D.int buf ~src:(prev raw) ~tag:3 in
            ignore (Kamping.Nb_result.wait h);
            status st ^ ints buf)
          (fun raw ->
            let req = P.issend raw D.int (block (rank raw)) ~dst:(next raw) ~tag:3 in
            let buf = [| 0; 0 |] in
            let st = P.recv raw D.int buf ~src:(prev raw) ~tag:3 in
            ignore (Mpisim.Request.wait req);
            status st ^ ints buf);
        against "irecv"
          (fun comm ->
            let raw = K.raw comm in
            let h = K.irecv ~tag:3 ~count:2 comm D.int ~src:(prev raw) in
            P.send raw D.int (block (rank raw)) ~dst:(next raw) ~tag:3;
            vec (Kamping.Nb_result.wait h))
          (fun raw ->
            let buf = [| 0; 0 |] in
            let req = P.irecv raw D.int buf ~src:(prev raw) ~tag:3 in
            P.send raw D.int (block (rank raw)) ~dst:(next raw) ~tag:3;
            ignore (Mpisim.Request.wait req);
            ints buf);
        against "ssend_init"
          (fun comm ->
            let raw = K.raw comm in
            let h =
              K.ssend_init ~tag:3 comm D.int ~send_buf:(V.of_array (block (rank raw)))
                ~dst:(next raw)
            in
            let buf = [| 0; 0 |] in
            K.start h;
            let st = P.recv raw D.int buf ~src:(prev raw) ~tag:3 in
            ignore (Persist.wait h);
            K.free_request h;
            status st ^ ints buf)
          (fun raw ->
            let h = P.ssend_init raw D.int (block (rank raw)) ~dst:(next raw) ~tag:3 in
            let buf = [| 0; 0 |] in
            Persist.start h;
            let st = P.recv raw D.int buf ~src:(prev raw) ~tag:3 in
            ignore (Persist.wait h);
            Persist.free h;
            status st ^ ints buf);
        against "psend_init"
          (fun comm -> partitioned ~psend:k_psend ~precv:p_precv (K.raw comm))
          (partitioned ~psend:p_psend ~precv:p_precv);
        against "precv_init"
          (fun comm -> partitioned ~psend:p_psend ~precv:k_precv (K.raw comm))
          (partitioned ~psend:p_psend ~precv:p_precv);
        against "send_sparse"
          (fun comm ->
            sparse (K.raw comm) ~recv:p_recv ~send:(fun raw ->
                K.send_sparse ~tag:3 (K.wrap raw) D.char ~count:big ~dst:(next raw)))
          (sparse ~send:p_send ~recv:p_recv);
        against "recv_sparse"
          (fun comm ->
            sparse (K.raw comm) ~send:p_send ~recv:(fun raw ->
                K.recv_sparse ~tag:3 (K.wrap raw) D.char ~capacity:big ~src:(prev raw)))
          (sparse ~send:p_send ~recv:p_recv);
      ] );
  ]

(* Each row at p = 1 and p = 5, on a fabric of two-rank nodes so that
   split_by_node's key orders ranks within a real node. *)
let test_knobs rows () =
  List.iter
    (fun row ->
      List.iter
        (fun ranks ->
          let fabric = Simnet.Netmodel.two_tier ~node_size:2 ~ranks () in
          let results f =
            Tutil.watchdog row.knob (fun () ->
                Mpisim.Mpi.results_exn
                  (Mpisim.Mpi.run ~fabric ~deadline:Tutil.default_deadline ~ranks f))
          in
          Alcotest.(check (array string))
            (Printf.sprintf "%s at p=%d" row.knob ranks)
            (results row.reference) (results row.explicit))
        [ 1; 5 ])
    rows

let suite =
  [
    Alcotest.test_case "each wrapper issues exactly the wrapped calls" `Quick
      test_wrappers_issue_the_wrapped_calls;
    Alcotest.test_case "builtin reduction ops" `Quick test_builtin_ops;
    Alcotest.test_case "dist graph degrees" `Quick test_graph_degrees;
  ]
  @ List.map (fun (fn, rows) -> Alcotest.test_case (fn ^ " knobs") `Quick (test_knobs rows)) knobs
