(* Algorithm bodies for the tuned-collective subsystem.  Selection lives in
   Coll_algos.Select; dispatch and profiling live in Collectives.  Bodies
   rely on two simulator guarantees: isend copies its payload eagerly (so
   buffers may be reused immediately), and messages on one (src, dst, tag)
   link match in FIFO order. *)

let combine comm op acc tmp count ~received_left =
  if received_left then
    for i = 0 to count - 1 do
      acc.(i) <- Op.apply op tmp.(i) acc.(i)
    done
  else
    for i = 0 to count - 1 do
      acc.(i) <- Op.apply op acc.(i) tmp.(i)
    done;
  if count > 0 then Comm.compute comm (float_of_int count *. Op.cost_per_element op)

(* Dissemination barrier: round k talks to ranks +-2^k; all offsets are
   distinct mod p, so one tag suffices. *)
let dissemination comm ~tag =
  let p = Comm.size comm and r = Comm.rank comm in
  let token = [| 0 |] in
  let k = ref 1 in
  while !k < p do
    let dst = (r + !k) mod p and src = (r - !k + p) mod p in
    let req = P2p.isend ~ctx:Internal comm Datatype.int token ~dst ~tag in
    ignore (P2p.recv ~ctx:Internal comm Datatype.int token ~src ~tag);
    ignore (Request.wait req);
    k := !k lsl 1
  done

(* The largest power of two <= p. *)
let largest_pow2 p =
  let rec go pow = if pow * 2 <= p then go (pow * 2) else pow in
  go 1

(* ------------------------------------------------------------------ *)
(* Broadcast.                                                          *)
(* ------------------------------------------------------------------ *)

(* Binomial-tree broadcast (MPICH-style). *)
let bcast_binomial comm dt buf pos count ~root ~tag =
  let p = Comm.size comm and r = Comm.rank comm in
  if p > 1 && count > 0 then begin
    let rel = (r - root + p) mod p in
    let mask = ref 1 in
    while !mask < p && rel land !mask = 0 do
      mask := !mask lsl 1
    done;
    if rel <> 0 then begin
      let src = (rel - !mask + root + p) mod p in
      ignore (P2p.recv ~ctx:Internal ~pos ~count comm dt buf ~src ~tag)
    end;
    mask := !mask lsr 1;
    while !mask > 0 do
      if rel + !mask < p then begin
        let dst = (rel + !mask + root) mod p in
        P2p.send ~ctx:Internal ~pos ~count comm dt buf ~dst ~tag
      end;
      mask := !mask lsr 1
    done
  end

(* van de Geijn broadcast: binomial scatter of p roughly equal blocks
   (block i belongs to relative rank i), then a ring allgather of the
   blocks.  Bandwidth-optimal: each rank moves ~2n bytes instead of the
   binomial tree's log2(p)*n. *)
let bcast_scatter_allgather comm dt buf pos count ~root ~tag ~tag2 =
  let p = Comm.size comm and r = Comm.rank comm in
  if p > 1 && count > 0 then begin
    let rel = (r - root + p) mod p in
    let start i = i * count / p in
    (* Scatter: relative rank [rel] first receives the range covering its
       whole binomial subtree, then forwards the upper halves. *)
    let mask = ref 1 in
    while !mask < p && rel land !mask = 0 do
      mask := !mask lsl 1
    done;
    let limit = ref (min (rel + !mask) p) in
    if rel <> 0 then begin
      let src = (rel - !mask + root + p) mod p in
      let lo = start rel and hi = start !limit in
      if hi > lo then
        ignore (P2p.recv ~ctx:Internal ~pos:(pos + lo) ~count:(hi - lo) comm dt buf ~src ~tag)
    end;
    mask := !mask lsr 1;
    while !mask > 0 do
      if rel + !mask < p then begin
        let child = rel + !mask in
        let dst = (child + root) mod p in
        let lo = start child and hi = start !limit in
        if hi > lo then
          P2p.send ~ctx:Internal ~pos:(pos + lo) ~count:(hi - lo) comm dt buf ~dst ~tag;
        limit := child
      end;
      mask := !mask lsr 1
    done;
    (* Ring allgather of the p blocks over relative ranks. *)
    let dst = (((rel + 1) mod p) + root) mod p and src = (((rel - 1 + p) mod p) + root) mod p in
    for step = 1 to p - 1 do
      let sb = (rel - step + 1 + p) mod p and rb = (rel - step + p) mod p in
      let s_lo = start sb and s_hi = start (sb + 1) in
      let r_lo = start rb and r_hi = start (rb + 1) in
      let req =
        if s_hi > s_lo then
          Some
            (P2p.isend ~ctx:Internal ~pos:(pos + s_lo) ~count:(s_hi - s_lo) comm dt buf ~dst
               ~tag:tag2)
        else None
      in
      if r_hi > r_lo then
        ignore (P2p.recv ~ctx:Internal ~pos:(pos + r_lo) ~count:(r_hi - r_lo) comm dt buf ~src ~tag:tag2);
      match req with Some req -> ignore (Request.wait req) | None -> ()
    done
  end

(* ------------------------------------------------------------------ *)
(* Reduce.                                                             *)
(* ------------------------------------------------------------------ *)

(* Binomial-tree reduction.  Reassociates (and, for the receive-combines,
   commutes) the operation — the canonical source of float irreproducibility
   across different p that Sec. V-C addresses. *)
let reduce_binomial comm dt op ~sendbuf ~pos ~count ~root ~tag =
  let p = Comm.size comm and r = Comm.rank comm in
  let acc = Array.sub sendbuf pos count in
  if p = 1 || count = 0 then acc
  else begin
    let tmp = Array.copy acc in
    let rel = (r - root + p) mod p in
    let mask = ref 1 in
    let running = ref true in
    while !running && !mask < p do
      if rel land !mask = 0 then begin
        let src_rel = rel lor !mask in
        if src_rel < p then begin
          let src = (src_rel + root) mod p in
          ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src ~tag);
          combine comm op acc tmp count ~received_left:false
        end
      end
      else begin
        let dst = ((rel lxor !mask) + root) mod p in
        P2p.send ~ctx:Internal ~count comm dt acc ~dst ~tag;
        running := false
      end;
      mask := !mask lsl 1
    done;
    acc
  end

(* ------------------------------------------------------------------ *)
(* Allreduce.                                                          *)
(* ------------------------------------------------------------------ *)

let allreduce_reduce_bcast comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag ~tag2 =
  let acc = reduce_binomial comm dt op ~sendbuf ~pos ~count ~root:0 ~tag in
  if Comm.rank comm = 0 then Array.blit acc 0 recvbuf 0 count;
  bcast_binomial comm dt recvbuf 0 count ~root:0 ~tag:tag2

(* Fold the ranks beyond the largest power of two into their even
   neighbours (MPICH rem-handling): afterwards [pof2] "new ranks"
   participate in the power-of-two schedule, the rest wait for the result.
   Returns the new rank, or -1 for a parked rank. *)
let fold_to_pow2 comm dt op ~recvbuf ~tmp ~count ~rem ~tag_fold =
  let r = Comm.rank comm in
  if r < 2 * rem then
    if r land 1 = 0 then begin
      P2p.send ~ctx:Internal ~count comm dt recvbuf ~dst:(r + 1) ~tag:tag_fold;
      -1
    end
    else begin
      ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src:(r - 1) ~tag:tag_fold);
      (* the sender's rank is lower: its data goes on the left *)
      combine comm op recvbuf tmp count ~received_left:true;
      r asr 1
    end
  else r - rem

(* Return the folded-out ranks' results. *)
let unfold_from_pow2 comm dt ~recvbuf ~count ~rem ~tag_fold =
  let r = Comm.rank comm in
  if r < 2 * rem then
    if r land 1 = 1 then P2p.send ~ctx:Internal ~count comm dt recvbuf ~dst:(r - 1) ~tag:tag_fold
    else ignore (P2p.recv ~ctx:Internal ~count comm dt recvbuf ~src:(r + 1) ~tag:tag_fold)

let real_of_new ~rem nd = if nd < rem then (nd * 2) + 1 else nd + rem

let allreduce_recursive_doubling comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_fold ~tag =
  let p = Comm.size comm in
  Array.blit sendbuf pos recvbuf 0 count;
  if p > 1 && count > 0 then begin
    let tmp = Array.sub sendbuf pos count in
    let pof2 = largest_pow2 p in
    let rem = p - pof2 in
    let newrank = fold_to_pow2 comm dt op ~recvbuf ~tmp ~count ~rem ~tag_fold in
    if newrank >= 0 then begin
      let mask = ref 1 in
      while !mask < pof2 do
        let newdst = newrank lxor !mask in
        let dst = real_of_new ~rem newdst in
        let req = P2p.isend ~ctx:Internal ~count comm dt recvbuf ~dst ~tag in
        ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src:dst ~tag);
        ignore (Request.wait req);
        combine comm op recvbuf tmp count ~received_left:(newdst < newrank);
        mask := !mask lsl 1
      done
    end;
    unfold_from_pow2 comm dt ~recvbuf ~count ~rem ~tag_fold
  end

(* Rabenseifner: recursive-halving reduce-scatter followed by a
   recursive-doubling allgather over the reduced blocks (ported from the
   MPICH reduce_scatter_allgather schedule). *)
let allreduce_rabenseifner comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_fold ~tag_rs ~tag_ag =
  let p = Comm.size comm in
  Array.blit sendbuf pos recvbuf 0 count;
  if p > 1 && count > 0 then begin
    let tmp = Array.sub sendbuf pos count in
    let pof2 = largest_pow2 p in
    let rem = p - pof2 in
    let newrank = fold_to_pow2 comm dt op ~recvbuf ~tmp ~count ~rem ~tag_fold in
    if newrank >= 0 && pof2 > 1 then begin
      let cnts = Array.init pof2 (fun i -> (count / pof2) + if i < count mod pof2 then 1 else 0) in
      let disps = Array.make pof2 0 in
      for i = 1 to pof2 - 1 do
        disps.(i) <- disps.(i - 1) + cnts.(i - 1)
      done;
      let sum_range a b =
        let s = ref 0 in
        for i = a to b - 1 do
          s := !s + cnts.(i)
        done;
        !s
      in
      let exchange ~tag ~send_idx ~send_cnt ~recv_idx ~recv_cnt ~dst ~into =
        let req =
          if send_cnt > 0 then
            Some
              (P2p.isend ~ctx:Internal ~pos:disps.(send_idx) ~count:send_cnt comm dt recvbuf ~dst
                 ~tag)
          else None
        in
        if recv_cnt > 0 then
          ignore (P2p.recv ~ctx:Internal ~pos:disps.(recv_idx) ~count:recv_cnt comm dt into ~src:dst ~tag);
        match req with Some req -> ignore (Request.wait req) | None -> ()
      in
      (* Reduce-scatter by recursive halving. *)
      let send_idx = ref 0 and recv_idx = ref 0 and last_idx = ref pof2 in
      let mask = ref 1 in
      while !mask < pof2 do
        let newdst = newrank lxor !mask in
        let dst = real_of_new ~rem newdst in
        let half = pof2 / (!mask * 2) in
        let send_cnt, recv_cnt =
          if newrank < newdst then begin
            send_idx := !recv_idx + half;
            (sum_range !send_idx !last_idx, sum_range !recv_idx !send_idx)
          end
          else begin
            recv_idx := !send_idx + half;
            (sum_range !send_idx !recv_idx, sum_range !recv_idx !last_idx)
          end
        in
        exchange ~tag:tag_rs ~send_idx:!send_idx ~send_cnt ~recv_idx:!recv_idx ~recv_cnt ~dst
          ~into:tmp;
        if recv_cnt > 0 then begin
          (* fold the received segment into the kept one *)
          let off = disps.(!recv_idx) in
          let acc = Array.sub recvbuf off recv_cnt and inc = Array.sub tmp off recv_cnt in
          combine comm op acc inc recv_cnt ~received_left:(newdst < newrank);
          Array.blit acc 0 recvbuf off recv_cnt
        end;
        send_idx := !recv_idx;
        mask := !mask lsl 1;
        if !mask < pof2 then last_idx := !recv_idx + (pof2 / !mask)
      done;
      (* Allgather by recursive doubling. *)
      mask := pof2 asr 1;
      while !mask > 0 do
        let newdst = newrank lxor !mask in
        let dst = real_of_new ~rem newdst in
        let half = pof2 / (!mask * 2) in
        let send_cnt, recv_cnt =
          if newrank < newdst then begin
            if !mask <> pof2 / 2 then last_idx := !last_idx + half;
            recv_idx := !send_idx + half;
            (sum_range !send_idx !recv_idx, sum_range !recv_idx !last_idx)
          end
          else begin
            recv_idx := !send_idx - half;
            (sum_range !send_idx !last_idx, sum_range !recv_idx !send_idx)
          end
        in
        exchange ~tag:tag_ag ~send_idx:!send_idx ~send_cnt ~recv_idx:!recv_idx ~recv_cnt ~dst
          ~into:recvbuf;
        if newrank > newdst then send_idx := !recv_idx;
        mask := !mask asr 1
      done
    end;
    unfold_from_pow2 comm dt ~recvbuf ~count ~rem ~tag_fold
  end

(* Ring allreduce: reduce-scatter around the ring (p-1 steps), then a ring
   allgather of the reduced blocks.  Linear startups, optimal volume. *)
let allreduce_ring comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_rs ~tag_ag =
  let p = Comm.size comm and r = Comm.rank comm in
  Array.blit sendbuf pos recvbuf 0 count;
  if p > 1 && count > 0 then begin
    let tmp = Array.sub sendbuf pos count in
    let cnts = Array.init p (fun i -> (count / p) + if i < count mod p then 1 else 0) in
    let disps = Array.make p 0 in
    for i = 1 to p - 1 do
      disps.(i) <- disps.(i - 1) + cnts.(i - 1)
    done;
    let dst = (r + 1) mod p and src = (r - 1 + p) mod p in
    let step_exchange ~tag ~sb ~rb ~into ~fold =
      let req =
        if cnts.(sb) > 0 then
          Some (P2p.isend ~ctx:Internal ~pos:disps.(sb) ~count:cnts.(sb) comm dt recvbuf ~dst ~tag)
        else None
      in
      if cnts.(rb) > 0 then begin
        ignore (P2p.recv ~ctx:Internal ~pos:disps.(rb) ~count:cnts.(rb) comm dt into ~src ~tag);
        if fold then begin
          let acc = Array.sub recvbuf disps.(rb) cnts.(rb)
          and inc = Array.sub tmp disps.(rb) cnts.(rb) in
          (* the incoming partial sum starts at the block's owner: left *)
          combine comm op acc inc cnts.(rb) ~received_left:true;
          Array.blit acc 0 recvbuf disps.(rb) cnts.(rb)
        end
      end;
      match req with Some req -> ignore (Request.wait req) | None -> ()
    in
    (* Reduce-scatter: after step s rank r has accumulated s+1 inputs into
       block (r - s); rank r ends owning block (r + 1) mod p. *)
    for s = 1 to p - 1 do
      let sb = (r - s + 1 + p) mod p and rb = (r - s + p) mod p in
      step_exchange ~tag:tag_rs ~sb ~rb ~into:tmp ~fold:true
    done;
    (* Allgather: circulate the reduced blocks. *)
    for s = 0 to p - 2 do
      let sb = (r + 1 - s + (2 * p)) mod p and rb = (r - s + p) mod p in
      step_exchange ~tag:tag_ag ~sb ~rb ~into:recvbuf ~fold:false
    done
  end

(* ------------------------------------------------------------------ *)
(* Allgather.                                                          *)
(* ------------------------------------------------------------------ *)

(* Copy the caller's block into place (shared by the p = 1 fast path and
   the ring/recursive-doubling seeds). *)
let seed_own_block recvbuf rpos count ~my_block_pos ~my_block_buf ~block =
  let dst_pos = rpos + block in
  if my_block_buf != recvbuf || my_block_pos <> dst_pos then
    Array.blit my_block_buf my_block_pos recvbuf dst_pos count

(* Bruck's allgather: logarithmic number of rounds for arbitrary p. *)
let allgather_bruck comm dt ~recvbuf ~rpos ~count ~tag ~my_block_pos ~my_block_buf =
  let p = Comm.size comm and r = Comm.rank comm in
  if count > 0 then begin
    if p = 1 then seed_own_block recvbuf rpos count ~my_block_pos ~my_block_buf ~block:0
    else begin
      let temp = Array.make (p * count) my_block_buf.(my_block_pos) in
      Array.blit my_block_buf my_block_pos temp 0 count;
      let m = ref 1 in
      while !m < p do
        let s = min !m (p - !m) in
        let dst = (r - !m + p) mod p and src = (r + !m) mod p in
        let req = P2p.isend ~ctx:Internal ~count:(s * count) comm dt temp ~dst ~tag in
        ignore (P2p.recv ~ctx:Internal ~pos:(!m * count) ~count:(s * count) comm dt temp ~src ~tag);
        ignore (Request.wait req);
        m := !m + s
      done;
      (* Undo the rotation: temp block i holds rank (r+i) mod p's data. *)
      for i = 0 to p - 1 do
        Array.blit temp (i * count) recvbuf (rpos + (((r + i) mod p) * count)) count
      done
    end
  end

(* Ring allgather: p-1 neighbour steps, each forwarding the block received
   in the previous step. *)
let allgather_ring comm dt ~recvbuf ~rpos ~count ~tag ~my_block_pos ~my_block_buf =
  let p = Comm.size comm and r = Comm.rank comm in
  if count > 0 then begin
    seed_own_block recvbuf rpos count ~my_block_pos ~my_block_buf ~block:(r * count);
    if p > 1 then begin
      let dst = (r + 1) mod p and src = (r - 1 + p) mod p in
      for step = 1 to p - 1 do
        let sb = (r - step + 1 + p) mod p and rb = (r - step + p) mod p in
        let req =
          P2p.isend ~ctx:Internal ~pos:(rpos + (sb * count)) ~count comm dt recvbuf ~dst ~tag
        in
        ignore (P2p.recv ~ctx:Internal ~pos:(rpos + (rb * count)) ~count comm dt recvbuf ~src ~tag);
        ignore (Request.wait req)
      done
    end
  end

(* Recursive doubling (power-of-two p): round k swaps the 2^k blocks held
   with the partner rank lxor 2^k; ranges stay aligned and contiguous. *)
let allgather_recursive_doubling comm dt ~recvbuf ~rpos ~count ~tag ~my_block_pos ~my_block_buf =
  let p = Comm.size comm and r = Comm.rank comm in
  if p land (p - 1) <> 0 then
    Errors.usage "allgather_recursive_doubling requires a power-of-two communicator (p = %d)" p;
  if count > 0 then begin
    seed_own_block recvbuf rpos count ~my_block_pos ~my_block_buf ~block:(r * count);
    let mask = ref 1 in
    while !mask < p do
      let partner = r lxor !mask in
      let my_base = r land lnot (!mask - 1) and partner_base = partner land lnot (!mask - 1) in
      let req =
        P2p.isend ~ctx:Internal ~pos:(rpos + (my_base * count)) ~count:(!mask * count) comm dt
          recvbuf ~dst:partner ~tag
      in
      ignore
        (P2p.recv ~ctx:Internal ~pos:(rpos + (partner_base * count)) ~count:(!mask * count) comm dt
           recvbuf ~src:partner ~tag);
      ignore (Request.wait req);
      mask := !mask lsl 1
    done
  end

(* ------------------------------------------------------------------ *)
(* Alltoall.                                                           *)
(* ------------------------------------------------------------------ *)

(* Irregular exchanges post every request up front and wait for all of
   them (the linear algorithm real implementations use): latency is hidden
   by overlap, but each of the p-1 peers still costs a message start-up —
   including zero-count pairs, which is exactly why Alltoall(v) has
   Omega(p) complexity per call (paper Sec. V-A). *)
let post_all_exchange comm dt ~tag ~scount_of ~spos_of ~rcount_of ~rpos_of ~sendbuf ~recvbuf =
  let p = Comm.size comm and r = Comm.rank comm in
  Array.blit sendbuf (spos_of r) recvbuf (rpos_of r) (scount_of r);
  let recv_reqs =
    Array.init (p - 1) (fun i ->
        let src = (r - 1 - i + p) mod p in
        P2p.irecv ~ctx:Internal ~pos:(rpos_of src) ~count:(rcount_of src) comm dt recvbuf ~src ~tag)
  in
  let send_reqs =
    Array.init (p - 1) (fun i ->
        let dst = (r + 1 + i) mod p in
        P2p.isend ~ctx:Internal ~pos:(spos_of dst) ~count:(scount_of dst) comm dt sendbuf ~dst ~tag)
  in
  Array.iter (fun req -> ignore (Request.wait req)) recv_reqs;
  Array.iter (fun req -> ignore (Request.wait req)) send_reqs

let alltoall_pairwise comm dt ~sendbuf ~recvbuf ~count ~tag =
  post_all_exchange comm dt ~tag
    ~scount_of:(fun _ -> count)
    ~spos_of:(fun d -> d * count)
    ~rcount_of:(fun _ -> count)
    ~rpos_of:(fun s -> s * count)
    ~sendbuf ~recvbuf

(* Bruck's alltoall: rotate locally, then in round k ship every block whose
   index has bit k set to rank r + 2^k (aggregated into one message), and
   finally undo the rotation.  ceil(log2 p) startups instead of p - 1. *)
let alltoall_bruck comm dt ~sendbuf ~recvbuf ~count ~tag =
  let p = Comm.size comm and r = Comm.rank comm in
  if count > 0 then begin
    if p = 1 then Array.blit sendbuf 0 recvbuf 0 count
    else begin
      let temp = Array.make (p * count) sendbuf.(0) in
      (* Phase 1: temp block i = my block for destination (r + i) mod p. *)
      for i = 0 to p - 1 do
        Array.blit sendbuf (((r + i) mod p) * count) temp (i * count) count
      done;
      let max_sel = (p + 1) / 2 in
      let cbuf = Array.make (max_sel * count) temp.(0) in
      let rbuf = Array.make (max_sel * count) temp.(0) in
      let pof = ref 1 in
      while !pof < p do
        let dst = (r + !pof) mod p and src = (r - !pof + p) mod p in
        let nsel = ref 0 in
        for i = 0 to p - 1 do
          if i land !pof <> 0 then begin
            Array.blit temp (i * count) cbuf (!nsel * count) count;
            incr nsel
          end
        done;
        let req = P2p.isend ~ctx:Internal ~count:(!nsel * count) comm dt cbuf ~dst ~tag in
        ignore (P2p.recv ~ctx:Internal ~count:(!nsel * count) comm dt rbuf ~src ~tag);
        ignore (Request.wait req);
        let k = ref 0 in
        for i = 0 to p - 1 do
          if i land !pof <> 0 then begin
            Array.blit rbuf (!k * count) temp (i * count) count;
            incr k
          end
        done;
        pof := !pof lsl 1
      done;
      (* Phase 3: temp block i now holds the data from rank (r - i + p) mod
         p; place it at that source's slot. *)
      for i = 0 to p - 1 do
        Array.blit temp (i * count) recvbuf (((r - i + p) mod p) * count) count
      done
    end
  end

(* ------------------------------------------------------------------ *)
(* Hierarchical (topology-aware) bodies.                               *)
(*                                                                     *)
(* Each takes [nodes]: the node id of every communicator rank (all     *)
(* ranks compute it identically from the communicator's group and the  *)
(* world's network model), from which every rank derives the same      *)
(* node-membership structure without communicating: a node's members   *)
(* are its comm ranks in ascending order, its leader the lowest.       *)
(* ------------------------------------------------------------------ *)

let members_of_node nodes nd =
  let acc = ref [] in
  for i = Array.length nodes - 1 downto 0 do
    if nodes.(i) = nd then acc := i :: !acc
  done;
  Array.of_list !acc

(* Distinct node ids in ascending order. *)
let distinct_nodes nodes =
  let sorted = Array.copy nodes in
  Array.sort compare sorted;
  let acc = ref [] in
  Array.iter (fun nd -> match !acc with x :: _ when x = nd -> () | _ -> acc := nd :: !acc) sorted;
  Array.of_list (List.rev !acc)

let index_in a x =
  let n = Array.length a in
  let rec go i = if i >= n then -1 else if a.(i) = x then i else go (i + 1) in
  go 0

(* Binomial broadcast over [members] (comm ranks), rooted at members.(0);
   [me] is the caller's index in [members]. *)
let bcast_binomial_over comm dt buf pos count ~members ~me ~tag =
  let p = Array.length members in
  if p > 1 && count > 0 then begin
    let mask = ref 1 in
    while !mask < p && me land !mask = 0 do
      mask := !mask lsl 1
    done;
    if me <> 0 then
      ignore (P2p.recv ~ctx:Internal ~pos ~count comm dt buf ~src:members.(me - !mask) ~tag);
    mask := !mask lsr 1;
    while !mask > 0 do
      if me + !mask < p then
        P2p.send ~ctx:Internal ~pos ~count comm dt buf ~dst:members.(me + !mask) ~tag;
      mask := !mask lsr 1
    done
  end

(* Binomial reduction over [members] into [acc]; the result lands at
   members.(0).  Receives always combine a higher-ranked contribution on
   the right, matching [reduce_binomial]. *)
let reduce_binomial_over comm dt op ~acc ~tmp ~count ~members ~me ~tag =
  let p = Array.length members in
  if p > 1 && count > 0 then begin
    let mask = ref 1 in
    let running = ref true in
    while !running && !mask < p do
      if me land !mask = 0 then begin
        let src = me lor !mask in
        if src < p then begin
          ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src:members.(src) ~tag);
          combine comm op acc tmp count ~received_left:false
        end
      end
      else begin
        P2p.send ~ctx:Internal ~count comm dt acc ~dst:members.(me lxor !mask) ~tag;
        running := false
      end;
      mask := !mask lsl 1
    done
  end

(* Recursive-doubling allreduce over [members] (the inter-leader phase of
   the node-leader allreduce), with the usual non-power-of-two fold. *)
let allreduce_rd_over comm dt op ~recvbuf ~tmp ~count ~members ~me ~tag_fold ~tag =
  let p = Array.length members in
  if p > 1 && count > 0 then begin
    let pof2 = largest_pow2 p in
    let rem = p - pof2 in
    let newrank =
      if me < 2 * rem then
        if me land 1 = 0 then begin
          P2p.send ~ctx:Internal ~count comm dt recvbuf ~dst:members.(me + 1) ~tag:tag_fold;
          -1
        end
        else begin
          ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src:members.(me - 1) ~tag:tag_fold);
          combine comm op recvbuf tmp count ~received_left:true;
          me asr 1
        end
      else me - rem
    in
    if newrank >= 0 then begin
      let mask = ref 1 in
      while !mask < pof2 do
        let newdst = newrank lxor !mask in
        let dst = members.(real_of_new ~rem newdst) in
        let req = P2p.isend ~ctx:Internal ~count comm dt recvbuf ~dst ~tag in
        ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src:dst ~tag);
        ignore (Request.wait req);
        combine comm op recvbuf tmp count ~received_left:(newdst < newrank);
        mask := !mask lsl 1
      done
    end;
    if me < 2 * rem then
      if me land 1 = 1 then
        P2p.send ~ctx:Internal ~count comm dt recvbuf ~dst:members.(me - 1) ~tag:tag_fold
      else ignore (P2p.recv ~ctx:Internal ~count comm dt recvbuf ~src:members.(me + 1) ~tag:tag_fold)
  end

(* Node-leader broadcast: binomial over one representative per node (the
   root itself for the root's node, the lowest rank elsewhere), then
   binomial within each node from its representative.  The root's node
   representative leads the inter phase, so no extra hop to a leader. *)
let bcast_node_leader comm dt buf pos count ~root ~nodes ~tag ~tag2 =
  let r = Comm.rank comm in
  if Comm.size comm > 1 && count > 0 then begin
    let root_node = nodes.(root) in
    let rep_of nd = if nd = root_node then root else (members_of_node nodes nd).(0) in
    let all_nodes = distinct_nodes nodes in
    let reps = Array.map rep_of all_nodes in
    Array.sort compare reps;
    (* Rotate the root's representative (the root itself) to the front. *)
    let ri = index_in reps root in
    let leaders = Array.init (Array.length reps) (fun i -> reps.((i + ri) mod Array.length reps)) in
    let li = index_in leaders r in
    if li >= 0 then bcast_binomial_over comm dt buf pos count ~members:leaders ~me:li ~tag;
    (* Intra-node phase, rooted at this node's representative. *)
    let my = members_of_node nodes nodes.(r) in
    let rep = rep_of nodes.(r) in
    let intra = Array.of_list (rep :: List.filter (fun m -> m <> rep) (Array.to_list my)) in
    bcast_binomial_over comm dt buf pos count ~members:intra ~me:(index_in intra r) ~tag:tag2
  end

(* Node-leader allreduce: binomial reduce to each node's leader, recursive
   doubling across leaders, binomial broadcast back down. *)
let allreduce_node_leader comm dt op ~sendbuf ~pos ~recvbuf ~count ~nodes ~tag_up ~tag_fold ~tag_rd
    ~tag_down =
  let r = Comm.rank comm in
  Array.blit sendbuf pos recvbuf 0 count;
  if Comm.size comm > 1 && count > 0 then begin
    let tmp = Array.sub sendbuf pos count in
    let my = members_of_node nodes nodes.(r) in
    let me = index_in my r in
    reduce_binomial_over comm dt op ~acc:recvbuf ~tmp ~count ~members:my ~me ~tag:tag_up;
    let leaders = Array.map (fun nd -> (members_of_node nodes nd).(0)) (distinct_nodes nodes) in
    Array.sort compare leaders;
    let li = index_in leaders r in
    if li >= 0 then
      allreduce_rd_over comm dt op ~recvbuf ~tmp ~count ~members:leaders ~me:li ~tag_fold
        ~tag:tag_rd;
    bcast_binomial_over comm dt recvbuf 0 count ~members:my ~me ~tag:tag_down
  end

(* SMP-aware alltoall: blocks for on-node peers go directly; blocks for
   remote nodes are gathered at the local leader, exchanged leader-to-
   leader as one bundle per node pair, and scattered on arrival.  Trades
   memcpy and leader serialization for a factor-node_size reduction in
   wire startups.  All bundle layouts are canonical (nodes ascending,
   members ascending), so every rank computes every offset locally. *)
let alltoall_smp comm dt ~sendbuf ~recvbuf ~count ~nodes ~tag_local ~tag_up ~tag_net ~tag_down =
  let p = Comm.size comm and r = Comm.rank comm in
  if count > 0 then begin
    let my_node = nodes.(r) in
    let my = members_of_node nodes my_node in
    let m_a = Array.length my in
    let me = index_in my r in
    let leader = my.(0) in
    let all_nodes = distinct_nodes nodes in
    let remote_nodes = Array.of_list (List.filter (fun nd -> nd <> my_node) (Array.to_list all_nodes)) in
    let remote_members = Array.map (members_of_node nodes) remote_nodes in
    let n_remote = p - m_a in
    (* Offset of node index [bi]'s segment in a (p - m_a)-block remote
       bundle laid out node-by-node. *)
    let seg_off = Array.make (Array.length remote_nodes + 1) 0 in
    Array.iteri
      (fun bi ms -> seg_off.(bi + 1) <- seg_off.(bi) + Array.length ms)
      remote_members;
    (* Intra-node direct exchange (own block included). *)
    Array.blit sendbuf (r * count) recvbuf (r * count) count;
    let local_recv =
      List.filter_map
        (fun q ->
          if q = r then None
          else
            Some (P2p.irecv ~ctx:Internal ~pos:(q * count) ~count comm dt recvbuf ~src:q ~tag:tag_local))
        (Array.to_list my)
    in
    let local_send =
      List.filter_map
        (fun q ->
          if q = r then None
          else
            Some (P2p.isend ~ctx:Internal ~pos:(q * count) ~count comm dt sendbuf ~dst:q ~tag:tag_local))
        (Array.to_list my)
    in
    if Array.length remote_nodes > 0 then begin
      (* Pack my remote-destined blocks: nodes ascending, members ascending. *)
      let up = Array.make (max 1 (n_remote * count)) sendbuf.(0) in
      Array.iteri
        (fun bi ms ->
          Array.iteri
            (fun j q -> Array.blit sendbuf (q * count) up ((seg_off.(bi) + j) * count) count)
            ms)
        remote_members;
      if r <> leader then begin
        (* Ship them up, then receive my slice of every arriving bundle. *)
        P2p.send ~ctx:Internal ~count:(n_remote * count) comm dt up ~dst:leader ~tag:tag_up;
        let down = Array.make (n_remote * count) sendbuf.(0) in
        ignore (P2p.recv ~ctx:Internal ~count:(n_remote * count) comm dt down ~src:leader ~tag:tag_down);
        Array.iteri
          (fun bi ms ->
            Array.iteri
              (fun j q -> Array.blit down ((seg_off.(bi) + j) * count) recvbuf (q * count) count)
              ms)
          remote_members
      end
      else begin
        (* Gather the local members' remote blocks: lbuf.(li) is member
           li's bundle (leader's own is [up]). *)
        let lbuf = Array.make m_a up in
        for li = 1 to m_a - 1 do
          let b = Array.make (n_remote * count) sendbuf.(0) in
          ignore (P2p.recv ~ctx:Internal ~count:(n_remote * count) comm dt b ~src:my.(li) ~tag:tag_up);
          lbuf.(li) <- b
        done;
        (* One bundle per remote node: src members ascending, then dst
           members ascending.  Post receives first, then sends (isend
           copies eagerly, so one scratch buffer suffices). *)
        let arrivals = Array.make (Array.length remote_nodes) [||] in
        let net_recv =
          List.mapi
            (fun bi ms ->
              let mb = Array.length ms in
              let b = Array.make (mb * m_a * count) sendbuf.(0) in
              arrivals.(bi) <- b;
              P2p.irecv ~ctx:Internal ~count:(mb * m_a * count) comm dt b ~src:ms.(0) ~tag:tag_net)
            (Array.to_list remote_members)
        in
        let scratch = Array.make (Array.length remote_nodes) [||] in
        Array.iteri
          (fun bi ms ->
            let mb = Array.length ms in
            let b = Array.make (m_a * mb * count) sendbuf.(0) in
            for li = 0 to m_a - 1 do
              Array.blit lbuf.(li) (seg_off.(bi) * count) b (li * mb * count) (mb * count)
            done;
            scratch.(bi) <- b)
          remote_members;
        let net_send =
          List.mapi
            (fun bi ms ->
              let mb = Array.length ms in
              P2p.isend ~ctx:Internal ~count:(m_a * mb * count) comm dt scratch.(bi) ~dst:ms.(0)
                ~tag:tag_net)
            (Array.to_list remote_members)
        in
        ignore (Request.wait_all net_recv);
        ignore (Request.wait_all net_send);
        (* Scatter: member j's slice is, for each remote node, every source
           member's block destined to j.  Leader keeps its own slice. *)
        let down = Array.make (max 1 (n_remote * count)) sendbuf.(0) in
        for j = m_a - 1 downto 0 do
          Array.iteri
            (fun bi ms ->
              let mb = Array.length ms in
              for i = 0 to mb - 1 do
                Array.blit arrivals.(bi) (((i * m_a) + j) * count) down ((seg_off.(bi) + i) * count)
                  count
              done)
            remote_members;
          if j = me then
            Array.iteri
              (fun bi ms ->
                Array.iteri
                  (fun i q -> Array.blit down ((seg_off.(bi) + i) * count) recvbuf (q * count) count)
                  ms)
              remote_members
          else P2p.send ~ctx:Internal ~count:(n_remote * count) comm dt down ~dst:my.(j) ~tag:tag_down
        done
      end
    end;
    ignore (Request.wait_all local_recv);
    ignore (Request.wait_all local_send)
  end

(* Grid ("hypergrid") alltoall: route every block through two coordinate-
   fixing phases over a near-square rows x cols grid (the paper's grid
   all-to-all, Fig. 9).  Phase 1 bundles blocks by destination column
   within each row; phase 2 delivers them within each column.  O(sqrt p)
   startups per rank instead of p - 1. *)
let alltoall_hypergrid comm dt ~sendbuf ~recvbuf ~count ~tag ~tag2 =
  let p = Comm.size comm and r = Comm.rank comm in
  if count > 0 then begin
    let rows, cols = Coll_algos.Cost.grid_dims p in
    if p = 1 || rows * cols <> p then begin
      (* Degenerate grid (p prime collapses to p x 1): fall back to the
         direct exchange rather than simulate a pointless relabelling. *)
      if cols = 1 || rows = 1 then
        post_all_exchange comm dt ~tag
          ~scount_of:(fun _ -> count)
          ~spos_of:(fun d -> d * count)
          ~rcount_of:(fun _ -> count)
          ~rpos_of:(fun s -> s * count)
          ~sendbuf ~recvbuf
      else assert false
    end
    else begin
      let x = r / cols and y = r mod cols in
      (* temp is laid out [source column in my row][destination row]. *)
      let temp = Array.make (p * count) sendbuf.(0) in
      let phase1_recv =
        List.filter_map
          (fun yq ->
            if yq = y then None
            else
              Some
                (P2p.irecv ~ctx:Internal ~pos:(yq * rows * count) ~count:(rows * count) comm dt temp
                   ~src:((x * cols) + yq) ~tag))
          (List.init cols Fun.id)
      in
      for xd = 0 to rows - 1 do
        Array.blit sendbuf (((xd * cols) + y) * count) temp (((y * rows) + xd) * count) count
      done;
      let pack = Array.make (max rows cols * count) sendbuf.(0) in
      let phase1_send =
        List.filter_map
          (fun yd ->
            if yd = y then None
            else begin
              for xd = 0 to rows - 1 do
                Array.blit sendbuf (((xd * cols) + yd) * count) pack (xd * count) count
              done;
              Some
                (P2p.isend ~ctx:Internal ~count:(rows * count) comm dt pack ~dst:((x * cols) + yd)
                   ~tag)
            end)
          (List.init cols Fun.id)
      in
      ignore (Request.wait_all phase1_recv);
      ignore (Request.wait_all phase1_send);
      let phase2_recv =
        List.filter_map
          (fun xs ->
            if xs = x then None
            else
              Some
                (P2p.irecv ~ctx:Internal ~pos:(xs * cols * count) ~count:(cols * count) comm dt
                   recvbuf ~src:((xs * cols) + y) ~tag:tag2))
          (List.init rows Fun.id)
      in
      for ys = 0 to cols - 1 do
        Array.blit temp (((ys * rows) + x) * count) recvbuf (((x * cols) + ys) * count) count
      done;
      let phase2_send =
        List.filter_map
          (fun xd ->
            if xd = x then None
            else begin
              for ys = 0 to cols - 1 do
                Array.blit temp (((ys * rows) + xd) * count) pack (ys * count) count
              done;
              Some
                (P2p.isend ~ctx:Internal ~count:(cols * count) comm dt pack ~dst:((xd * cols) + y)
                   ~tag:tag2)
            end)
          (List.init rows Fun.id)
      in
      ignore (Request.wait_all phase2_recv);
      ignore (Request.wait_all phase2_send)
    end
  end
