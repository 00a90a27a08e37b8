(* Schedule fingerprints of every collective entry point.

   Each case runs one collective under one pinned algorithm (or the
   cost-based choice, "auto") and records what the run did on the wire:
   the exact bits of the simulated time, the event count, the message and
   byte totals, and a digest of every rank's result.  The values are
   compared with the golden table in [Coll_schedules_golden], so any change
   to a schedule — a partner, a tag, a count, the order of two messages, a
   compute charge or the combine order of a reduction — fails here, naming
   the case.

   Reductions use a witness operation that is commutative (so every
   algorithm stays eligible) but neither associative nor symmetric in its
   arguments, so a changed combine order or orientation changes the bits.

   The runs are wrapped in [Explore.unexplored] and stay valid under the
   checker and the trace recorder, both pure observers.  On a mismatch the
   suite writes every actual line to [coll_schedules.actual] in the
   working directory; regenerate the golden table from that file only for
   a deliberate schedule change. *)

module C = Mpisim.Collectives
module D = Mpisim.Datatype
module N = Simnet.Netmodel

let witness = Mpisim.Op.of_fun ~commutative:true (fun a b -> (a * 1_000_003) + b)

type net = Flat | Two_tier | Scattered

let net_name = function Flat -> "flat" | Two_tier -> "two_tier" | Scattered -> "scattered"

let fabric_of net ~ranks =
  match net with
  | Flat -> None
  | Two_tier -> Some (Simnet.Netmodel.two_tier ~node_size:4 ~ranks ())
  | Scattered ->
      let node_of = Topology.Place.scattered ~ranks ~node_size:4 in
      let nodes = Topology.Place.node_count node_of in
      Some
        (Topology.Fabric.make ~node_of ~rack_of:(Array.make nodes 0) ~node:N.intra_node
           ~rack:N.default ~core:N.default ())

(* Distinct values per rank and position. *)
let input r n = Array.init n (fun i -> (r * 7919) + (i * 31) + 1)

(* A v-layout with a zero-count block at rank 1 and uneven blocks
   elsewhere; displacements leave a one-element gap after each block. *)
let vcounts p count = Array.init p (fun i -> if i = 1 then 0 else count + (i mod 2))

let vdispls counts =
  let d = Array.make (Array.length counts) 0 in
  for i = 1 to Array.length counts - 1 do
    d.(i) <- d.(i - 1) + counts.(i - 1) + 1
  done;
  d

let vextent counts displs =
  let n = Array.length counts in
  if n = 0 then 0 else displs.(n - 1) + counts.(n - 1) + 1

(* One collective entry point: [coll] is the pin key (when tuned),
   [algos] the pinned variants, [rooted] whether roots vary. *)
type entry = {
  name : string;
  coll : string option;
  algos : string list;
  rooted : bool;
  prog : root:int -> count:int -> Mpisim.Comm.t -> int array;
}

let bcast_prog ~root ~count comm =
  let r = Mpisim.Comm.rank comm in
  let buf = if r = root then input r count else Array.make count (-1) in
  C.bcast comm D.int buf ~root;
  buf

let ibcast_prog ~root ~count comm =
  let r = Mpisim.Comm.rank comm in
  let buf = if r = root then input r count else Array.make count (-1) in
  ignore (Mpisim.Request.wait (C.ibcast comm D.int buf ~root));
  buf

let reduce_prog ~root ~count comm =
  let r = Mpisim.Comm.rank comm in
  let recvbuf = Array.make count 0 in
  C.reduce comm D.int witness ~sendbuf:(input r count) ~recvbuf ~count ~root;
  recvbuf

let allreduce_prog ~root:_ ~count comm =
  let r = Mpisim.Comm.rank comm in
  let recvbuf = Array.make count 0 in
  C.allreduce comm D.int witness ~sendbuf:(input r count) ~recvbuf ~count;
  recvbuf

let iallreduce_prog ~root:_ ~count comm =
  let r = Mpisim.Comm.rank comm in
  let recvbuf = Array.make count 0 in
  ignore
    (Mpisim.Request.wait (C.iallreduce comm D.int witness ~sendbuf:(input r count) ~recvbuf ~count));
  recvbuf

let allgather_prog ~root:_ ~count comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  let recvbuf = Array.make (p * count) (-1) in
  C.allgather comm D.int ~sendbuf:(input r count) ~recvbuf ~count;
  recvbuf

let allgatherv_prog ~root:_ ~count comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  let rcounts = vcounts p count in
  let rdispls = vdispls rcounts in
  let recvbuf = Array.make (vextent rcounts rdispls) (-1) in
  C.allgatherv comm D.int ~sendbuf:(input r rcounts.(r)) ~scount:rcounts.(r) ~recvbuf ~rcounts
    ~rdispls;
  recvbuf

let gather_prog ~root ~count comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  let recvbuf = Array.make (p * count) (-1) in
  C.gather comm D.int ~sendbuf:(input r count) ~recvbuf ~count ~root;
  recvbuf

let gatherv_prog ~root ~count comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  let rcounts = vcounts p count in
  let rdispls = vdispls rcounts in
  let recvbuf = Array.make (vextent rcounts rdispls) (-1) in
  if r = root then
    C.gatherv comm D.int ~sendbuf:(input r rcounts.(r)) ~scount:rcounts.(r) ~recvbuf ~rcounts
      ~rdispls ~root
  else C.gatherv comm D.int ~sendbuf:(input r rcounts.(r)) ~scount:rcounts.(r) ~root;
  recvbuf

let scatter_prog ~root ~count comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  let recvbuf = Array.make count (-1) in
  if r = root then C.scatter comm D.int ~sendbuf:(input r (p * count)) ~recvbuf ~count ~root
  else C.scatter comm D.int ~recvbuf ~count ~root;
  recvbuf

let scatterv_prog ~root ~count comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  let scounts = vcounts p count in
  let sdispls = vdispls scounts in
  let recvbuf = Array.make scounts.(r) (-1) in
  if r = root then
    C.scatterv comm D.int ~sendbuf:(input r (vextent scounts sdispls)) ~scounts ~sdispls ~recvbuf
      ~rcount:scounts.(r) ~root
  else C.scatterv comm D.int ~recvbuf ~rcount:scounts.(r) ~root;
  recvbuf

let alltoall_prog ~root:_ ~count comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  let recvbuf = Array.make (p * count) (-1) in
  C.alltoall comm D.int ~sendbuf:(input r (p * count)) ~recvbuf ~count;
  recvbuf

let reduce_scatter_block_prog ~root:_ ~count comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  let recvbuf = Array.make count (-1) in
  C.reduce_scatter_block comm D.int witness ~sendbuf:(input r (p * count)) ~recvbuf ~count;
  recvbuf

let scan_prog ~root:_ ~count comm =
  let r = Mpisim.Comm.rank comm in
  let recvbuf = Array.make count (-1) in
  C.scan comm D.int witness ~sendbuf:(input r count) ~recvbuf ~count;
  recvbuf

let exscan_prog ~root:_ ~count comm =
  let r = Mpisim.Comm.rank comm in
  let recvbuf = Array.make count (-1) in
  C.exscan comm D.int witness ~sendbuf:(input r count) ~recvbuf ~count;
  recvbuf

let bcast_algos = [ "binomial"; "scatter_allgather"; "node_leader" ]
let allreduce_algos = [ "reduce_bcast"; "recursive_doubling"; "rabenseifner"; "ring"; "node_leader" ]
let allgather_algos = [ "bruck"; "ring"; "recursive_doubling" ]
let allgatherv_algos = [ "ring"; "recursive_doubling" ]
let alltoall_algos = [ "pairwise"; "bruck"; "smp"; "hypergrid" ]

let tuned name coll algos rooted prog = { name; coll = Some coll; algos; rooted; prog }
let fixed name rooted prog = { name; coll = None; algos = []; rooted; prog }

let entries =
  [
    tuned "bcast" "bcast" bcast_algos true bcast_prog;
    tuned "ibcast" "bcast" bcast_algos true ibcast_prog;
    fixed "reduce" true reduce_prog;
    tuned "allreduce" "allreduce" allreduce_algos false allreduce_prog;
    tuned "iallreduce" "allreduce" allreduce_algos false iallreduce_prog;
    tuned "allgather" "allgather" allgather_algos false allgather_prog;
    tuned "allgatherv" "allgatherv" allgatherv_algos false allgatherv_prog;
    fixed "gather" true gather_prog;
    fixed "gatherv" true gatherv_prog;
    fixed "scatter" true scatter_prog;
    fixed "scatterv" true scatterv_prog;
    tuned "alltoall" "alltoall" alltoall_algos false alltoall_prog;
    fixed "reduce_scatter_block" false reduce_scatter_block_prog;
    fixed "scan" false scan_prog;
    fixed "exscan" false exscan_prog;
  ]

(* Every (network, p, root, count) the entry runs on: the flat model at
   every size, and p = 12 on the two tiered placements. *)
let configs e =
  let roots p = if e.rooted then List.sort_uniq compare [ 0; 1 mod p; p - 1 ] else [ 0 ] in
  let sizes = [ (Flat, 1); (Flat, 2); (Flat, 3); (Flat, 5); (Flat, 8); (Flat, 12) ] in
  List.concat_map
    (fun (net, p) ->
      List.concat_map
        (fun root -> List.map (fun count -> (net, p, root, count)) [ 0; 1; 7 ])
        (roots p))
    (sizes @ [ (Two_tier, 12); (Scattered, 12) ])

let case_name e algo (net, p, root, count) =
  Printf.sprintf "%s[%s] %s p=%d root=%d count=%d" e.name algo (net_name net) p root count

let run e algo (net, p, root, count) =
  Explore.unexplored (fun () ->
      Mpisim.Mpi.run ?fabric:(fabric_of net ~ranks:p) ~deadline:Tutil.default_deadline ~ranks:p
        (fun comm ->
          (match e.coll with
          | Some coll when algo <> "auto" -> C.pin_algorithm comm ~coll ~algo
          | _ -> ());
          e.prog ~root ~count comm))

let fingerprint e algo c =
  let res = run e algo c in
  let results = Mpisim.Mpi.results_exn res in
  Printf.sprintf "%Lx %d %d %d %s"
    (Int64.bits_of_float res.Mpisim.Mpi.sim_time)
    res.Mpisim.Mpi.events res.Mpisim.Mpi.profile.Mpisim.Profiling.messages
    res.Mpisim.Mpi.profile.Mpisim.Profiling.bytes
    (Digest.to_hex (Digest.string (Marshal.to_string results [])))

let golden =
  let t = Hashtbl.create 2048 in
  String.split_on_char '\n' Coll_schedules_golden.table
  |> List.iter (fun line ->
         match String.index_opt line '|' with
         | Some i ->
             Hashtbl.replace t
               (String.trim (String.sub line 0 i))
               (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | None -> ());
  t

let all_lines () =
  List.concat_map
    (fun e ->
      List.concat_map
        (fun algo ->
          List.map (fun c -> Printf.sprintf "%s | %s" (case_name e algo c) (fingerprint e algo c)) (configs e))
        ("auto" :: e.algos))
    entries

let check_entry e () =
  let bad = ref [] in
  List.iter
    (fun algo ->
      List.iter
        (fun c ->
          let name = case_name e algo c in
          let got = fingerprint e algo c in
          match Hashtbl.find_opt golden name with
          | Some want when want = got -> ()
          | Some want -> bad := Printf.sprintf "%s: want %s, got %s" name want got :: !bad
          | None -> bad := Printf.sprintf "%s: no golden value (got %s)" name got :: !bad)
        (configs e))
    ("auto" :: e.algos);
  match List.rev !bad with
  | [] -> ()
  | bad ->
      let oc = open_out "coll_schedules.actual" in
      List.iter (fun l -> output_string oc (l ^ "\n")) (all_lines ());
      close_out oc;
      Alcotest.failf "%s: %d schedule(s) changed (all actual lines in coll_schedules.actual):\n%s"
        e.name (List.length bad)
        (String.concat "\n" (List.filteri (fun i _ -> i < 10) bad))

(* The allgatherv cost entry must price the non-power-of-two fold and
   unfold: wherever it leaves the ring on the flat model, the schedule it
   picks is no slower than the ring. *)
let test_allgatherv_auto_not_slower () =
  let e = List.find (fun e -> e.name = "allgatherv") entries in
  List.iter
    (fun ((net, _, _, _) as c) ->
      if net = Flat then begin
        let time algo = (run e algo c).Mpisim.Mpi.sim_time in
        let auto = time "auto" and ring = time "ring" in
        if auto > ring then
          Alcotest.failf "%s: %h s, slower than the ring's %h s" (case_name e "auto" c) auto ring
      end)
    (configs e)

let suite =
  List.map (fun e -> Alcotest.test_case (e.name ^ " fingerprints") `Quick (check_entry e)) entries
  @ [ Alcotest.test_case "allgatherv auto no slower than ring" `Quick test_allgatherv_auto_not_slower ]
