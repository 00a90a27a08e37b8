(* Tests for the topology subsystem: fabric descriptions and placement
   maps, tiered routing and uplink congestion in the network model,
   topology-aware group planning, the auto-tuner, node-aware communicator
   splitting, and — the load-bearing property — bit-identity of every
   hierarchical collective body against its flat incumbent. *)

module N = Simnet.Netmodel
module C = Mpisim.Collectives
module D = Mpisim.Datatype
module K = Kamping.Comm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Placement maps                                                      *)

let test_place () =
  let block ~ranks ~node_size = (N.two_tier ~node_size ~ranks ()).N.f_node_of in
  Alcotest.(check (array int)) "block" [| 0; 0; 0; 1; 1; 1; 2 |] (block ~ranks:7 ~node_size:3);
  Alcotest.(check (array int)) "round robin" [| 0; 1; 2; 0; 1; 2 |]
    (Topology.Place.round_robin ~ranks:6 ~nodes:3);
  Alcotest.(check (array int)) "racks" [| 0; 0; 1; 1; 2 |]
    (N.fat_tree ~node_size:1 ~nodes_per_rack:2 ~ranks:5 ()).N.f_rack_of;
  let sc = Topology.Place.scattered ~ranks:8 ~node_size:2 in
  check_int "scattered nodes" 4 (Topology.Place.node_count sc);
  Alcotest.(check (array int)) "scattered balanced" [| 2; 2; 2; 2 |] (Topology.Place.populations sc);
  check_bool "scattered is not block" true (sc <> block ~ranks:8 ~node_size:2);
  check_bool "scattered rejects non-divisible" true
    (raises_invalid (fun () -> Topology.Place.scattered ~ranks:7 ~node_size:2));
  (* the one fabric validator, reached by every construction path *)
  let fabric ?(uplinks = 0) node_of rack_of =
    {
      (N.two_tier ~node_size:1 ~ranks:1 ()) with
      N.f_node_of = node_of;
      f_rack_of = rack_of;
      f_uplinks = uplinks;
    }
  in
  let rejects name ?uplinks node_of rack_of =
    let f = fabric ?uplinks node_of rack_of and ranks = Array.length node_of in
    check_bool ("validate: " ^ name) true (raises_invalid (fun () -> N.validate_fabric f));
    check_bool ("create_fabric: " ^ name) true
      (raises_invalid (fun () -> N.create_fabric f ~ranks));
    check_bool ("Fabric.make: " ^ name) true
      (raises_invalid (fun () ->
           Topology.Fabric.make ?uplinks ~node_of ~rack_of ~node:N.intra_node ~rack:N.default
             ~core:N.default ()))
  in
  rejects "node out of range" [| 0; 1 |] [| 0 |];
  rejects "empty node" [| 0; 0 |] [| 0; 0 |];
  rejects "negative rack" [| 0 |] [| -1 |];
  rejects "negative uplinks" ~uplinks:(-1) [| 0 |] [| 0 |];
  rejects "no rank" [||] [| 0 |];
  check_bool "create_fabric: length mismatch" true
    (raises_invalid (fun () -> N.create_fabric (fabric [| 0; 0 |] [| 0 |]) ~ranks:3));
  check_bool "builders reject node_size 0" true
    (raises_invalid (fun () -> N.two_tier ~node_size:0 ~ranks:4 ()));
  check_bool "builders reject nodes_per_rack 0" true
    (raises_invalid (fun () -> N.fat_tree ~node_size:2 ~nodes_per_rack:0 ~ranks:4 ()))

let test_fabric_builders () =
  let f = N.two_tier ~node_size:4 ~ranks:10 () in
  check_int "two-tier ranks" 10 (Topology.Fabric.ranks f);
  check_int "two-tier nodes" 3 (Topology.Fabric.nodes f);
  check_int "two-tier racks" 1 (Topology.Fabric.racks f);
  check_int "two-tier fullest node" 4 (Topology.Fabric.max_per_node f);
  let ft = N.fat_tree ~node_size:2 ~nodes_per_rack:2 ~uplinks:3 ~ranks:8 () in
  check_int "fat-tree nodes" 4 (Topology.Fabric.nodes ft);
  check_int "fat-tree racks" 2 (Topology.Fabric.racks ft);
  check_int "fat-tree uplinks" 3 ft.N.f_uplinks;
  check_bool "describe mentions shape" true
    (String.length (Topology.Fabric.describe ft) > 0);
  List.iter
    (fun (name, build) ->
      let f = build ~ranks:96 in
      check_bool (name ^ " builds") true (Topology.Fabric.ranks f = 96))
    Topology.Presets.all;
  check_bool "preset lookup" true (Topology.Presets.find "omnipath" <> None);
  check_bool "scattered preset balanced" true
    (Topology.Fabric.max_per_node (Topology.Presets.omnipath_scattered ~ranks:96) = 48)

let test_spec_parsing () =
  let f = N.fabric_of_spec ~ranks:8 "two:4" in
  Alcotest.(check (array int)) "two: block placement" [| 0; 0; 0; 0; 1; 1; 1; 1 |] f.N.f_node_of;
  check_int "two: single rack" 1 (Topology.Fabric.racks f);
  check_int "two: no uplinks" 0 f.N.f_uplinks;
  let ft = N.fabric_of_spec ~ranks:8 "fat:2:2:3" in
  Alcotest.(check (array int)) "fat: racks" [| 0; 0; 1; 1 |] ft.N.f_rack_of;
  check_int "fat: uplinks" 3 ft.N.f_uplinks;
  (* a spec and its builder are one code path *)
  check_bool "two:4 = Netmodel.two_tier" true
    (N.fabric_of_spec ~ranks:10 "two:4" = N.two_tier ~node_size:4 ~ranks:10 ());
  check_bool "fat:8:4:2 = Netmodel.fat_tree" true
    (N.fabric_of_spec ~ranks:100 "fat:8:4:2"
    = N.fat_tree ~node_size:8 ~nodes_per_rack:4 ~uplinks:2 ~ranks:100 ());
  check_bool "fat:8:4 has no uplinks" true
    (N.fabric_of_spec ~ranks:64 "fat:8:4"
    = N.fat_tree ~node_size:8 ~nodes_per_rack:4 ~ranks:64 ());
  List.iter
    (fun spec ->
      check_bool (Printf.sprintf "spec %S rejected" spec) true
        (raises_invalid (fun () -> N.fabric_of_spec ~ranks:8 spec)))
    [ ""; "two"; "two:"; "two:0"; "two:-1"; "three:4"; "fat:2"; "fat:2:2:1:9"; "two:4:junk" ]

(* ------------------------------------------------------------------ *)
(* Tiered routing and congestion in the network model                  *)

let test_tier_selection () =
  let f = N.fat_tree ~node_size:2 ~nodes_per_rack:2 ~ranks:8 () in
  let t = N.create_fabric f ~ranks:8 in
  check_int "node of rank 5" 2 (N.node_of t 5);
  check_int "rack of rank 5" 1 (N.rack_of_rank t 5);
  let lat src dst = (N.params_between t ~src ~dst).N.latency in
  check_bool "same node uses node tier" true (lat 0 1 = N.intra_node.N.latency);
  check_bool "same rack uses rack tier" true (lat 0 2 = N.low_latency.N.latency);
  check_bool "cross rack uses core tier" true (lat 0 7 = N.default.N.latency)

(* Satellite regression: a group confined to one tier must plan with that
   tier's parameters, not collapse to the pessimistic core tier. *)
let test_params_for_group_pessimism () =
  let f = N.fat_tree ~node_size:2 ~nodes_per_rack:2 ~ranks:8 () in
  let t = N.create_fabric f ~ranks:8 in
  let lat g = (N.params_for_group t g).N.latency in
  check_bool "single-node group plans intra-node" true (lat [| 2; 3 |] = N.intra_node.N.latency);
  check_bool "single-rack group plans rack tier" true (lat [| 0; 1; 2; 3 |] = N.low_latency.N.latency);
  check_bool "spanning group plans core tier" true (lat [| 0; 7 |] = N.default.N.latency);
  (* flat fabrics keep the flat parameters *)
  let flat = N.create N.default ~ranks:4 in
  check_bool "flat group plans flat params" true
    ((N.params_for_group flat [| 0; 1; 2 |]).N.latency = N.default.N.latency)

let test_hier_for_group () =
  let two = N.create_fabric (N.fabric_of_spec ~ranks:8 "two:4") ~ranks:8 in
  (match N.hier_for_group two (Array.init 8 Fun.id) with
  | Some h ->
      check_int "h_nodes" 2 h.N.h_nodes;
      check_int "h_max_per_node" 4 h.N.h_max_per_node;
      check_bool "h_intra is the node tier" true (h.N.h_intra.N.latency = N.intra_node.N.latency);
      check_bool "h_inter is the spanning tier" true (h.N.h_inter.N.latency = N.default.N.latency)
  | None -> Alcotest.fail "fabric group spanning nodes must have a hier profile");
  check_bool "single-node group has no profile" true
    (N.hier_for_group two [| 0; 1; 2 |] = None);
  let flat = N.create N.default ~ranks:8 in
  check_bool "flat fabric has no profile" true (N.hier_for_group flat (Array.init 8 Fun.id) = None);
  (* the rule reads the placement, not the constructor: one rank per node
     leaves no intra-node phase, even on a tiered fabric *)
  check_bool "one rank per node has no profile" true (N.hier_for_group two [| 1; 5 |] = None);
  let singles = N.create_fabric (N.two_tier ~node_size:1 ~ranks:8 ()) ~ranks:8 in
  check_bool "node_size 1 fabric has no profile" true
    (N.hier_for_group singles (Array.init 8 Fun.id) = None);
  check_bool "uneven group keeps its profile" true (N.hier_for_group two [| 0; 1; 4 |] <> None)

let test_uplink_congestion () =
  (* Two inter-node messages from distinct senders on one node: with one
     shared uplink the second serializes behind the first; with
     uncongested uplinks they only serialize per-sender. *)
  let arrival ~uplinks =
    let f = N.two_tier ~uplinks ~node_size:2 ~ranks:4 () in
    let t = N.create_fabric f ~ranks:4 in
    let _, _ = N.transfer t ~now:0.0 ~src:0 ~dst:2 ~bytes:1000 ~pack_factor:1.0 in
    let _, a = N.transfer t ~now:0.0 ~src:1 ~dst:3 ~bytes:1000 ~pack_factor:1.0 in
    a
  in
  check_bool "shared uplink serializes inter-node injection" true
    (arrival ~uplinks:1 > arrival ~uplinks:0);
  (* intra-node traffic never touches the uplink ports *)
  let f = N.two_tier ~uplinks:1 ~node_size:2 ~ranks:4 () in
  let t = N.create_fabric f ~ranks:4 in
  let _, _ = N.transfer t ~now:0.0 ~src:0 ~dst:2 ~bytes:1000 ~pack_factor:1.0 in
  let t2 = N.create_fabric f ~ranks:4 in
  let _, intra_clean = N.transfer t2 ~now:0.0 ~src:1 ~dst:0 ~bytes:64 ~pack_factor:1.0 in
  let _, intra_after = N.transfer t ~now:0.0 ~src:1 ~dst:0 ~bytes:64 ~pack_factor:1.0 in
  check_bool "intra-node unaffected by uplink booking" true (intra_after = intra_clean);
  (* with two ports, the third message waits on the earliest-free one *)
  let f2 = N.two_tier ~uplinks:2 ~node_size:3 ~ranks:6 () in
  let t3 = N.create_fabric f2 ~ranks:6 in
  let _, a1 = N.transfer t3 ~now:0.0 ~src:0 ~dst:3 ~bytes:1000 ~pack_factor:1.0 in
  let _, a2 = N.transfer t3 ~now:0.0 ~src:1 ~dst:4 ~bytes:1000 ~pack_factor:1.0 in
  check_bool "two ports: two messages in parallel" true (a1 = a2);
  let _, a3 = N.transfer t3 ~now:0.0 ~src:2 ~dst:5 ~bytes:1000 ~pack_factor:1.0 in
  check_bool "third message queues behind a port" true (a3 > a1)

(* ------------------------------------------------------------------ *)
(* World wiring: ?fabric, MPISIM_TOPOLOGY, split_by_node               *)

let nodes_seen ?fabric ~ranks () =
  Mpisim.Mpi.results_exn
    (Mpisim.Mpi.run ?fabric ~ranks (fun comm -> Mpisim.Comm.node_of_rank comm (Mpisim.Comm.rank comm)))

let test_env_topology () =
  Unix.putenv "MPISIM_TOPOLOGY" "two:4";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MPISIM_TOPOLOGY" "")
    (fun () ->
      Alcotest.(check (array int)) "env spec applies per run" [| 0; 0; 0; 0; 1; 1; 1; 1 |]
        (nodes_seen ~ranks:8 ());
      (* an explicit fabric wins over the environment *)
      let explicit = N.fabric_of_spec ~ranks:8 "two:2" in
      Alcotest.(check (array int)) "explicit fabric wins" [| 0; 0; 1; 1; 2; 2; 3; 3 |]
        (nodes_seen ~fabric:explicit ~ranks:8 ()));
  Alcotest.(check (array int)) "empty env keeps the flat model" [| 0; 1; 2; 3 |]
    (nodes_seen ~ranks:4 ())

let test_split_by_node () =
  let fabric = N.fabric_of_spec ~ranks:8 "two:4" in
  let got =
    Mpisim.Mpi.results_exn
      (Mpisim.Mpi.run ~fabric ~ranks:8 (fun comm ->
           let sub = C.split_by_node comm in
           (* node comms are usable: agree on the node id *)
           let buf = [| Mpisim.Comm.node_of_rank comm (Mpisim.Comm.rank comm) |] in
           C.bcast sub D.int buf ~root:0;
           (Mpisim.Comm.size sub, Mpisim.Comm.rank sub, buf.(0))))
  in
  Array.iteri
    (fun r (size, rank, node) ->
      check_int (Printf.sprintf "size@%d" r) 4 size;
      check_int (Printf.sprintf "rank@%d" r) (r mod 4) rank;
      check_int (Printf.sprintf "node@%d" r) (r / 4) node)
    got;
  (* key reverses the ordering inside each node comm *)
  let rev =
    Mpisim.Mpi.results_exn
      (Mpisim.Mpi.run ~fabric ~ranks:8 (fun comm ->
           Mpisim.Comm.rank (C.split_by_node ~key:(-Mpisim.Comm.rank comm) comm)))
  in
  Alcotest.(check (array int)) "key orders node comm" [| 3; 2; 1; 0; 3; 2; 1; 0 |] rev;
  (* flat fabric: every rank is its own node *)
  let singleton =
    Mpisim.Mpi.results_exn
      (Mpisim.Mpi.run ~ranks:3 (fun comm -> Mpisim.Comm.size (C.split_by_node comm)))
  in
  Alcotest.(check (array int)) "flat split is singletons" [| 1; 1; 1 |] singleton

let test_kamping_surface () =
  let fabric = N.fabric_of_spec ~ranks:8 "two:4" in
  let got =
    Mpisim.Mpi.results_exn
      (Mpisim.Mpi.run ~fabric ~ranks:8 (fun raw ->
           let kc = K.wrap raw in
           let sub = K.split_by_node kc in
           (K.size sub, K.node_of_rank kc 5)))
  in
  Array.iter
    (fun (size, node5) ->
      check_int "kamping node comm size" 4 size;
      check_int "kamping node_of_rank" 1 node5)
    got;
  (* pin-table surface round-trips *)
  Mpisim.Mpi.results_exn
    (Mpisim.Mpi.run ~fabric ~ranks:8 (fun raw ->
         let kc = K.wrap raw in
         let table = [ (0, "binomial"); (4096, "node_leader") ] in
         K.pin_table_algorithm kc ~coll:"bcast" table;
         Alcotest.(check (option (list (pair int string))))
           "kamping pin table visible" (Some table)
           (K.pinned_table_algorithm kc ~coll:"bcast");
         (* dispatch under the table still broadcasts correctly *)
         let buf = if K.rank kc = 0 then Ds.Vec.of_array [| 7; 8; 9 |] else Ds.Vec.make 3 0 in
         K.bcast kc D.int ~send_recv_buf:buf;
         Alcotest.(check (array int)) "table-pinned bcast" [| 7; 8; 9 |] (Ds.Vec.to_array buf)))
  |> ignore

(* ------------------------------------------------------------------ *)
(* Auto-tuning                                                         *)

let test_autotune_plan () =
  let fabric = Topology.Presets.omnipath_scattered ~ranks:192 in
  let plan = Topology.Autotune.tune fabric ~p:192 in
  let anchored table = match table with (0, _) :: _ -> true | _ -> false in
  check_bool "bcast table anchored at 0" true (anchored plan.Topology.Autotune.t_bcast);
  check_bool "allreduce table anchored at 0" true (anchored plan.Topology.Autotune.t_allreduce);
  check_bool "alltoall table anchored at 0" true (anchored plan.Topology.Autotune.t_alltoall);
  let names table = List.map snd table in
  check_bool "tuned bcast goes hierarchical" true
    (List.mem "node_leader" (names plan.Topology.Autotune.t_bcast));
  check_bool "tuned allreduce goes hierarchical" true
    (List.mem "node_leader" (names plan.Topology.Autotune.t_allreduce));
  let asc l = List.sort compare l = l in
  check_bool "crossovers ascend" true
    (asc (Topology.Autotune.crossovers plan.Topology.Autotune.t_allreduce));
  check_bool "plan prints" true (String.length (Topology.Autotune.to_string plan) > 0);
  check_bool "empty sweep rejected" true
    (raises_invalid (fun () -> Topology.Autotune.tune ~sizes:[] fabric ~p:192));
  check_bool "oversized comm rejected" true
    (raises_invalid (fun () -> Topology.Autotune.tune fabric ~p:500))

let test_autotune_flat_is_flat () =
  (* without a hierarchy, the sweep must never name a hierarchical
     variant — the bit-identical-default guarantee at the planning layer *)
  let flat = N.two_tier ~node_size:8 ~ranks:8 () in
  let plan = Topology.Autotune.tune flat ~p:8 in
  List.iter
    (fun table ->
      check_bool "no hierarchical pick on a single node" true
        (not (List.exists (fun (_, a) -> a = "node_leader" || a = "smp" || a = "hypergrid") table)))
    [ plan.Topology.Autotune.t_bcast; plan.Topology.Autotune.t_allreduce; plan.Topology.Autotune.t_alltoall ]

let test_autotune_install () =
  let fabric = N.fabric_of_spec ~ranks:8 "two:4" in
  Mpisim.Mpi.results_exn
    (Mpisim.Mpi.run ~fabric ~ranks:8 (fun comm ->
         let plan = Topology.Autotune.tune_for_comm comm in
         Topology.Autotune.install plan comm;
         Alcotest.(check (option (list (pair int string))))
           "installed table readable"
           (Some plan.Topology.Autotune.t_bcast)
           (C.pinned_table_algorithm comm ~coll:"bcast");
         (* collectives still work under the installed plan *)
         let buf = Array.make 5 (if Mpisim.Comm.rank comm = 0 then 42 else 0) in
         C.bcast comm D.int buf ~root:0;
         Alcotest.(check (array int)) "tuned bcast correct" (Array.make 5 42) buf))
  |> ignore

(* ------------------------------------------------------------------ *)
(* Flat worlds never auto-select hierarchical variants                 *)

let test_flat_selection_unchanged () =
  let bcast_time ~pin ~ranks =
    let res =
      Mpisim.Mpi.run ~ranks (fun comm ->
          (match pin with Some algo -> C.pin_algorithm comm ~coll:"bcast" ~algo | None -> ());
          let buf = Array.make 64 (Mpisim.Comm.rank comm) in
          C.bcast comm D.int buf ~root:0)
    in
    res.Mpisim.Mpi.sim_time
  in
  (* cost-based selection on a flat world equals the flat incumbent's
     schedule exactly — the hierarchical candidate is never chosen *)
  check_bool "flat auto-selection = flat incumbent" true
    (bcast_time ~pin:None ~ranks:6 = bcast_time ~pin:(Some "binomial") ~ranks:6)

(* ------------------------------------------------------------------ *)
(* Differential qcheck: hierarchical bodies are bit-identical          *)

(* Every hierarchical variant must produce exactly the results of its
   flat incumbent, over small worlds crossing node sizes, placements and
   payload shapes (including empty).  Integer payloads make any
   reassociation exact, so equality is bitwise. *)

type diff_config = { dc_p : int; dc_node_size : int; dc_count : int; dc_scatter : bool; dc_root : int }

let diff_configs =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun node_size ->
          List.concat_map
            (fun count ->
              List.concat_map
                (fun scatter ->
                  List.filter_map
                    (fun root ->
                      if scatter && p mod node_size <> 0 then None
                      else Some { dc_p = p; dc_node_size = node_size; dc_count = count; dc_scatter = scatter; dc_root = root })
                    [ 0; p - 1 ])
                [ false; true ])
            [ 0; 1; 5 ])
        [ 1; 2; 4 ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let fabric_of_config c =
  if c.dc_scatter then
    let node_of = Topology.Place.scattered ~ranks:c.dc_p ~node_size:c.dc_node_size in
    let nodes = Topology.Place.node_count node_of in
    Topology.Fabric.make ~node_of ~rack_of:(Array.make nodes 0) ~node:N.intra_node ~rack:N.default
      ~core:N.default ()
  else N.two_tier ~node_size:c.dc_node_size ~ranks:c.dc_p ()

let collect ~fabric ~ranks ~coll ~algo f =
  Mpisim.Mpi.results_exn
    (Mpisim.Mpi.run ~fabric ~deadline:Tutil.default_deadline ~ranks (fun comm ->
         C.pin_algorithm comm ~coll ~algo;
         f comm))

let diff_pair c ~coll ~incumbent ~variant f =
  let fabric = fabric_of_config c in
  let reference = collect ~fabric ~ranks:c.dc_p ~coll ~algo:incumbent f in
  let got = collect ~fabric ~ranks:c.dc_p ~coll ~algo:variant f in
  if got <> reference then
    QCheck2.Test.fail_reportf "%s: %s diverges from %s at p=%d node_size=%d count=%d scatter=%b root=%d"
      coll variant incumbent c.dc_p c.dc_node_size c.dc_count c.dc_scatter c.dc_root;
  true

let bcast_prog c comm =
  let r = Mpisim.Comm.rank comm in
  let buf =
    if r = c.dc_root then Array.init c.dc_count (fun i -> (c.dc_root * 1000) + (i * 31))
    else Array.make c.dc_count (-1)
  in
  C.bcast comm D.int buf ~root:c.dc_root;
  buf

let allreduce_prog c comm =
  let r = Mpisim.Comm.rank comm in
  let sendbuf = Array.init c.dc_count (fun i -> ((r + 1) * 97) + i) in
  let recvbuf = Array.make c.dc_count 0 in
  C.allreduce comm D.int Mpisim.Op.int_sum ~sendbuf ~recvbuf ~count:c.dc_count;
  recvbuf

let alltoall_prog c comm =
  let r = Mpisim.Comm.rank comm in
  let p = Mpisim.Comm.size comm in
  let sendbuf = Array.init (p * c.dc_count) (fun i -> (r * 10000) + i) in
  let recvbuf = Array.make (p * c.dc_count) 0 in
  C.alltoall comm D.int ~sendbuf ~recvbuf ~count:c.dc_count;
  recvbuf

let prop_hier_bit_identical =
  Tutil.qtest ~count:(List.length diff_configs) "hierarchical bodies bit-identical to incumbents"
    (QCheck2.Gen.oneofl diff_configs)
    (fun c ->
      diff_pair c ~coll:"bcast" ~incumbent:"binomial" ~variant:"node_leader" (bcast_prog c)
      && diff_pair c ~coll:"allreduce" ~incumbent:"reduce_bcast" ~variant:"node_leader"
           (allreduce_prog c)
      && diff_pair c ~coll:"alltoall" ~incumbent:"pairwise" ~variant:"smp" (alltoall_prog c)
      && diff_pair c ~coll:"alltoall" ~incumbent:"pairwise" ~variant:"hypergrid" (alltoall_prog c))

(* ------------------------------------------------------------------ *)
(* Gallery under a two-tier topology                                   *)

(* The whole example gallery, digest-checked over random schedules with
   the checker at Communication level, on a two-tier fabric supplied via
   the environment — hierarchical candidates are live, and every digest
   must match the incumbent schedule's. *)
let with_two_tier f =
  Unix.putenv "MPISIM_TOPOLOGY" "two:4";
  Fun.protect ~finally:(fun () -> Unix.putenv "MPISIM_TOPOLOGY" "") f

let gallery name digest = Tutil.check_gallery ~schedules:20 name digest

let test_gallery_core_two_tier () =
  with_two_tier (fun () ->
      gallery "quickstart@two:4" Gallery.Quickstart.digest;
      gallery "vector_allgather@two:4" Gallery.Vector_allgather.digest;
      gallery "serialization_example@two:4" Gallery.Serialization_example.digest;
      gallery "nonblocking_safety@two:4" Gallery.Nonblocking_safety.digest;
      gallery "one_sided@two:4" Gallery.One_sided.digest;
      gallery "word_count@two:4" Gallery.Word_count.digest;
      gallery "reproducible_reduce_example@two:4" Gallery.Reproducible_reduce_example.digest;
      gallery "tracing_example@two:4" Gallery.Tracing_example.digest)

let test_gallery_apps_two_tier () =
  with_two_tier (fun () ->
      gallery "sorter_example@two:4" Gallery.Sorter_example.digest;
      gallery "sample_sort_example@two:4" Gallery.Sample_sort_example.digest;
      gallery "halo_exchange@two:4" Gallery.Halo_exchange.digest;
      gallery "persistent_halo@two:4" Gallery.Persistent_halo.digest;
      gallery "bfs_example@two:4" Gallery.Bfs_example.digest;
      gallery "fault_tolerance@two:4" Gallery.Fault_tolerance.digest;
      gallery "checkpoint_restart@two:4" Gallery.Checkpoint_restart.digest;
      gallery "serving@two:4" Gallery.Serving.digest;
      gallery "graph_analytics@two:4" Gallery.Graph_analytics.digest;
      gallery "cg_solver@two:4" Gallery.Cg_solver.digest;
      gallery "stream_windows@two:4" Gallery.Stream_windows.digest)

let suite =
  [
    Alcotest.test_case "placement builders and validation" `Quick test_place;
    Alcotest.test_case "fabric builders and presets" `Quick test_fabric_builders;
    Alcotest.test_case "MPISIM_TOPOLOGY spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "tier selection per pair" `Quick test_tier_selection;
    Alcotest.test_case "group planning uses the tightest tier" `Quick test_params_for_group_pessimism;
    Alcotest.test_case "hier profile gating" `Quick test_hier_for_group;
    Alcotest.test_case "shared uplink congestion" `Quick test_uplink_congestion;
    Alcotest.test_case "MPISIM_TOPOLOGY environment wiring" `Quick test_env_topology;
    Alcotest.test_case "split_by_node" `Quick test_split_by_node;
    Alcotest.test_case "kamping topology surface" `Quick test_kamping_surface;
    Alcotest.test_case "autotune plan on the acceptance fabric" `Quick test_autotune_plan;
    Alcotest.test_case "autotune stays flat without hierarchy" `Quick test_autotune_flat_is_flat;
    Alcotest.test_case "autotune install round-trip" `Quick test_autotune_install;
    Alcotest.test_case "flat auto-selection unchanged" `Quick test_flat_selection_unchanged;
    prop_hier_bit_identical;
    Alcotest.test_case "gallery digests on two-tier topology (core)" `Slow test_gallery_core_two_tier;
    Alcotest.test_case "gallery digests on two-tier topology (apps)" `Slow test_gallery_apps_two_tier;
  ]
