(* CG over Cart halo exchange.  The floating-point story mirrors
   Pagerank: every reduction order is fixed (per-block partial dots in
   local row-major order, combined over the rank index with the
   reproducible tree), and the stencil arithmetic is a shared kernel, so
   p2p, persistent and RMA transports — and the sequential reference —
   agree bit for bit. *)

module K = Kamping.Comm
module D = Mpisim.Datatype
module P = Mpisim.P2p
module G = Graphgen.Distgraph

type transport = P2p | Persistent | Rma

let transport_name = function P2p -> "p2p" | Persistent -> "persistent" | Rma -> "rma"
let all_transports = [ P2p; Persistent; Rma ]

(* The CG vectors of one block: the iterate (x, r, p) and the scratch
   q = A p. *)
type block = { x : float array; r : float array; p_ : float array; q : float array }

let start_block b =
  let len = Array.length b in
  { x = Array.make len 0.0; r = Array.copy b; p_ = Array.copy b; q = Array.make len 0.0 }

type result = { x : float array; rr : float; gi0 : int; gj0 : int; lx : int; ly : int }

(* Right-hand side hashed from the global cell index: deterministic,
   communication-free, in [-1, 1). *)
let b_at ~seed gi gj ~ny =
  let h = Simnet.Rng.hash64 (Int64.of_int ((((gi * ny) + gj + 1) * 2654435761) + seed)) in
  (Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0 *. 2.0) -. 1.0

(* --- shared scalar kernels (used verbatim by the reference) --- *)

(* 5-point Laplacian on one block, ghosts supplying the outside layer. *)
let apply_block ~lx ~ly ~gn ~gs ~gw ~ge src dst =
  for i = 0 to lx - 1 do
    for j = 0 to ly - 1 do
      let c = src.((i * ly) + j) in
      let up = if i > 0 then src.(((i - 1) * ly) + j) else gn.(j) in
      let dn = if i < lx - 1 then src.(((i + 1) * ly) + j) else gs.(j) in
      let lf = if j > 0 then src.((i * ly) + j - 1) else gw.(i) in
      let rt = if j < ly - 1 then src.((i * ly) + j + 1) else ge.(i) in
      dst.((i * ly) + j) <- (4.0 *. c) -. up -. dn -. lf -. rt
    done
  done

let partial_dot a b len =
  let s = ref 0.0 in
  for k = 0 to len - 1 do
    s := !s +. (a.(k) *. b.(k))
  done;
  !s

let combine_partials parts =
  Kamping_plugins.Reproducible_reduce.local_tree_reduce ( +. )
    (fun r -> parts.(r))
    0 (Array.length parts)

let axpy dst alpha src len =
  for k = 0 to len - 1 do
    dst.(k) <- dst.(k) +. (alpha *. src.(k))
  done

let update_p p_ r beta len =
  for k = 0 to len - 1 do
    p_.(k) <- r.(k) +. (beta *. p_.(k))
  done

let check_geometry ~dims ~nx ~ny p =
  if Array.length dims <> 2 then Mpisim.Errors.usage "Cg_stencil: dims must be 2-dimensional";
  let px = dims.(0) and py = dims.(1) in
  if px * py <> p then
    Mpisim.Errors.usage "Cg_stencil: dims %dx%d do not cover %d ranks" px py p;
  if nx < px || ny < py then
    Mpisim.Errors.usage "Cg_stencil: grid %dx%d smaller than process grid %dx%d" nx ny px py

(* --- halo transports ---------------------------------------------- *)

(* Staging and ghost layers around one block.  [exchange src] refreshes
   the four ghost arrays from the neighbors' boundary layers of [src];
   physical-boundary ghosts stay 0 (Dirichlet). *)
type halo = { gn : float array; gs : float array; gw : float array; ge : float array;
              exchange : float array -> unit; free : unit -> unit }

let fill_staging ~lx ~ly ~sn ~ss ~sw ~se src =
  for j = 0 to ly - 1 do
    sn.(j) <- src.(j);
    ss.(j) <- src.(((lx - 1) * ly) + j)
  done;
  for i = 0 to lx - 1 do
    sw.(i) <- src.(i * ly);
    se.(i) <- src.((i * ly) + ly - 1)
  done

let make_halo transport cart ~lx ~ly =
  let raw = Mpisim.Cart.comm cart in
  let gn = Array.make ly 0.0 and gs = Array.make ly 0.0 in
  let gw = Array.make lx 0.0 and ge = Array.make lx 0.0 in
  let sn = Array.make ly 0.0 and ss = Array.make ly 0.0 in
  let sw = Array.make lx 0.0 and se = Array.make lx 0.0 in
  let stage src = fill_staging ~lx ~ly ~sn ~ss ~sw ~se src in
  match transport with
  | P2p ->
      let exchange src =
        stage src;
        ignore
          (Mpisim.Cart.halo_exchange cart D.float ~dim:0 ~send_low:sn ~send_high:ss ~recv_low:gn
             ~recv_high:gs);
        ignore
          (Mpisim.Cart.halo_exchange cart D.float ~dim:1 ~send_low:sw ~send_high:se ~recv_low:gw
             ~recv_high:ge)
      in
      { gn; gs; gw; ge; exchange; free = (fun () -> ()) }
  | Persistent ->
      (* Standing channels, one per populated direction; tags name the
         direction of travel (901 north, 902 south, 903 west, 904 east). *)
      let up, down = Mpisim.Cart.shift cart ~dim:0 ~disp:1 in
      let left, right = Mpisim.Cart.shift cart ~dim:1 ~disp:1 in
      let handles = ref [] in
      let add h = handles := h :: !handles in
      (match up with
      | Some u ->
          add (P.send_init raw D.float sn ~dst:u ~tag:901);
          add (P.recv_init raw D.float gn ~src:u ~tag:902)
      | None -> ());
      (match down with
      | Some d ->
          add (P.send_init raw D.float ss ~dst:d ~tag:902);
          add (P.recv_init raw D.float gs ~src:d ~tag:901)
      | None -> ());
      (match left with
      | Some l ->
          add (P.send_init raw D.float sw ~dst:l ~tag:903);
          add (P.recv_init raw D.float gw ~src:l ~tag:904)
      | None -> ());
      (match right with
      | Some r ->
          add (P.send_init raw D.float se ~dst:r ~tag:904);
          add (P.recv_init raw D.float ge ~src:r ~tag:903)
      | None -> ());
      let handles = List.rev !handles in
      let exchange src =
        stage src;
        Mpisim.Persist.startall handles;
        List.iter (fun h -> ignore (Mpisim.Persist.wait h)) handles
      in
      { gn; gs; gw; ge; exchange; free = (fun () -> List.iter Mpisim.Persist.free handles) }
  | Rma ->
      (* One window holding the four ghost slots; neighbors put their
         boundary layers straight into place, one fence per exchange. *)
      let up, down = Mpisim.Cart.shift cart ~dim:0 ~disp:1 in
      let left, right = Mpisim.Cart.shift cart ~dim:1 ~disp:1 in
      let win_arr = Array.make ((2 * ly) + (2 * lx)) 0.0 in
      let win = Mpisim.Win.create raw D.float win_arr in
      let exchange src =
        stage src;
        (* my north boundary is the south ghost of the rank above, etc. *)
        (match up with Some u -> Mpisim.Win.put win ~target:u ~target_pos:ly sn | None -> ());
        (match down with Some d -> Mpisim.Win.put win ~target:d ~target_pos:0 ss | None -> ());
        (match left with
        | Some l -> Mpisim.Win.put win ~target:l ~target_pos:((2 * ly) + lx) sw
        | None -> ());
        (match right with
        | Some r -> Mpisim.Win.put win ~target:r ~target_pos:(2 * ly) se
        | None -> ());
        Mpisim.Win.fence win;
        Array.blit win_arr 0 gn 0 ly;
        Array.blit win_arr ly gs 0 ly;
        Array.blit win_arr (2 * ly) gw 0 lx;
        Array.blit win_arr ((2 * ly) + lx) ge 0 lx
      in
      let free () =
        Mpisim.Win.fence win;
        Mpisim.Win.free win
      in
      { gn; gs; gw; ge; exchange; free }

(* --- the solver ---------------------------------------------------- *)

(* One CG iteration over a rank's blocks, shared by Cg_resilient and
   [reference]: [apply ()] refreshes the halos and sets
   q = A p on every block, [dot f] folds the blocks' partial dots of the
   vector pair [f block] in the fixed global order.  Returns the new
   r.r. *)
let iterate ~apply ~dot (blocks : block list) rr =
  apply ();
  let pq = dot (fun b -> (b.p_, b.q)) in
  let alpha = if pq = 0.0 then 0.0 else rr /. pq in
  List.iter
    (fun (b : block) ->
      let len = Array.length b.x in
      axpy b.x alpha b.p_ len;
      axpy b.r (-.alpha) b.q len)
    blocks;
  let rr' = dot (fun b -> (b.r, b.r)) in
  let beta = if rr = 0.0 then 0.0 else rr' /. rr in
  List.iter (fun (b : block) -> update_p b.p_ b.r beta (Array.length b.x)) blocks;
  rr'

let solve ?(transport = P2p) kc ~dims ~nx ~ny ~iters ~seed =
  let p = K.size kc in
  check_geometry ~dims ~nx ~ny p;
  let px = dims.(0) and py = dims.(1) in
  let cart = Mpisim.Cart.create (K.raw kc) ~dims ~periodic:[| false; false |] in
  let coords = Mpisim.Cart.coords cart (K.rank kc) in
  let gi0, lx = G.block_range ~global_n:nx ~comm_size:px coords.(0) in
  let gj0, ly = G.block_range ~global_n:ny ~comm_size:py coords.(1) in
  let len = lx * ly in
  let blk =
    start_block (Array.init len (fun k -> b_at ~seed (gi0 + (k / ly)) (gj0 + (k mod ly)) ~ny))
  in
  let x = blk.x and r = blk.r and p_ = blk.p_ and q = blk.q in
  let halo = make_halo transport cart ~lx ~ly in
  let dot a bv =
    let parts = K.allgather_serialized kc Serde.Codec.float (partial_dot a bv len) in
    combine_partials parts
  in
  (* [iterate]'s recurrence on the one block, spelled out on its arrays:
     this loop is the hot path of every plain solve, so it stays free of
     closures and boxed scalars *)
  let rr = ref (dot r r) in
  for _ = 1 to iters do
    halo.exchange p_;
    apply_block ~lx ~ly ~gn:halo.gn ~gs:halo.gs ~gw:halo.gw ~ge:halo.ge p_ q;
    let pq = dot p_ q in
    let alpha = if pq = 0.0 then 0.0 else !rr /. pq in
    axpy x alpha p_ len;
    axpy r (-.alpha) q len;
    let rr' = dot r r in
    let beta = if !rr = 0.0 then 0.0 else rr' /. !rr in
    update_p p_ r beta len;
    rr := rr'
  done;
  halo.free ();
  { x; rr = !rr; gi0; gj0; lx; ly }

(* --- the host-side oracle ------------------------------------------ *)

let reference ~dims ~nx ~ny ~iters ~seed =
  let px = dims.(0) and py = dims.(1) in
  check_geometry ~dims ~nx ~ny (px * py);
  let blk = start_block (Array.init (nx * ny) (fun k -> b_at ~seed (k / ny) (k mod ny) ~ny)) in
  (* per-rank partial dots in block row-major order, combined over the
     rank index — the very additions the distributed run performs *)
  let blocks =
    Array.init (px * py) (fun rank ->
        let gi0, blx = G.block_range ~global_n:nx ~comm_size:px (rank / py) in
        let gj0, bly = G.block_range ~global_n:ny ~comm_size:py (rank mod py) in
        (gi0, blx, gj0, bly))
  in
  let dot f =
    let a, bv = f blk in
    let parts =
      Array.map
        (fun (gi0, blx, gj0, bly) ->
          let s = ref 0.0 in
          for i = gi0 to gi0 + blx - 1 do
            for j = gj0 to gj0 + bly - 1 do
              let k = (i * ny) + j in
              s := !s +. (a.(k) *. bv.(k))
            done
          done;
          !s)
        blocks
    in
    combine_partials parts
  in
  let apply () =
    let src = blk.p_ and dst = blk.q in
    for i = 0 to nx - 1 do
      for j = 0 to ny - 1 do
        let k = (i * ny) + j in
        let c = src.(k) in
        let up = if i > 0 then src.(k - ny) else 0.0 in
        let dn = if i < nx - 1 then src.(k + ny) else 0.0 in
        let lf = if j > 0 then src.(k - 1) else 0.0 in
        let rt = if j < ny - 1 then src.(k + 1) else 0.0 in
        dst.(k) <- (4.0 *. c) -. up -. dn -. lf -. rt
      done
    done
  in
  let rr = ref (dot (fun b -> (b.r, b.r))) in
  for _ = 1 to iters do
    rr := iterate ~apply ~dot [ blk ] !rr
  done;
  (blk.x, !rr)
