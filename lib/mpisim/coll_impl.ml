(* Every message schedule of the collectives.  Selection lives in
   Coll_algos.Select; validation, dispatch and observation live in
   Collectives, which sends no message itself.

   Five schedule primitives are written once here and composed by the
   algorithm bodies: the binomial tree ([bcast_binomial],
   [reduce_binomial]), recursive doubling ([allreduce_rd] with its one
   fold/unfold pair, and [rd_allgatherv] over variable blocks with the
   same fold), the rooted linear loops ([gather_linear],
   [scatter_linear]), two ring loops ([ring_allgatherv], which sends every
   block, and [ring_blocks], which skips empty ones) and the prefix scan
   ([prefix_scan]).  The tree and doubling primitives run over a member
   mapping, so the node-leader algorithms reuse them on member lists.

   Bodies rely on two simulator guarantees: isend copies its payload
   eagerly (so buffers may be reused immediately), and messages on one
   (src, dst, tag) link match in FIFO order. *)

(* Fold [tmp.(pos ..)] into [acc.(pos ..)] element-wise and charge the
   reduction cost. *)
let combine comm op acc tmp ~pos count ~received_left =
  if received_left then
    for i = pos to pos + count - 1 do
      acc.(i) <- Op.apply op tmp.(i) acc.(i)
    done
  else
    for i = pos to pos + count - 1 do
      acc.(i) <- Op.apply op acc.(i) tmp.(i)
    done;
  if count > 0 then Comm.compute comm (float_of_int count *. Op.cost_per_element op)

type members = Rotation of int | Ranks of int array

let group_size comm = function Rotation _ -> Comm.size comm | Ranks a -> Array.length a

let index_in a x =
  let n = Array.length a in
  let rec go i = if i >= n then -1 else if a.(i) = x then i else go (i + 1) in
  go 0

(* The communicator rank at schedule position [i]. *)
let member comm m i =
  match m with Rotation root -> (i + root) mod Comm.size comm | Ranks a -> a.(i)

(* The caller's schedule position, or -1 when it is not a member. *)
let position comm = function
  | Rotation root -> (Comm.rank comm - root + Comm.size comm) mod Comm.size comm
  | Ranks a -> index_in a (Comm.rank comm)

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
(* Binomial tree.                                                      *)
(* ------------------------------------------------------------------ *)

(* Binomial-tree broadcast (MPICH-style) from position 0 of [members]. *)
let bcast_binomial comm dt buf pos count ~members ~tag =
  let p = group_size comm members and me = position comm members in
  if me >= 0 && p > 1 && count > 0 then begin
    let mask = ref 1 in
    while !mask < p && me land !mask = 0 do
      mask := !mask lsl 1
    done;
    if me <> 0 then
      ignore
        (P2p.recv ~ctx:Internal ~pos ~count comm dt buf ~src:(member comm members (me - !mask)) ~tag);
    mask := !mask lsr 1;
    while !mask > 0 do
      if me + !mask < p then
        P2p.send ~ctx:Internal ~pos ~count comm dt buf ~dst:(member comm members (me + !mask)) ~tag;
      mask := !mask lsr 1
    done
  end

(* Binomial-tree reduction into [acc] at position 0 of [members].  A
   received contribution comes from higher positions and is combined on
   the right.  Reassociates (and, for the receive-combines, commutes) the
   operation — the canonical source of float irreproducibility across
   different p that Sec. V-C addresses. *)
let reduce_binomial comm dt op ~acc ~tmp ~count ~members ~tag =
  let p = group_size comm members and me = position comm members in
  if me >= 0 && p > 1 && count > 0 then begin
    let mask = ref 1 in
    let running = ref true in
    while !running && !mask < p do
      if me land !mask = 0 then begin
        let src = me lor !mask in
        if src < p then begin
          ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src:(member comm members src) ~tag);
          combine comm op acc tmp ~pos:0 count ~received_left:false
        end
      end
      else begin
        P2p.send ~ctx:Internal ~count comm dt acc ~dst:(member comm members (me lxor !mask)) ~tag;
        running := false
      end;
      mask := !mask lsl 1
    done
  end

(* Binomial reduction of [sendbuf.(pos ..)] over the whole communicator;
   returns the accumulated vector (meaningful at [root]). *)
let reduce_to_root comm dt op ~sendbuf ~pos ~count ~root ~tag =
  let acc = Array.sub sendbuf pos count in
  if Comm.size comm > 1 && count > 0 then
    reduce_binomial comm dt op ~acc ~tmp:(Array.copy acc) ~count ~members:(Rotation root) ~tag;
  acc

let reduce comm dt op ~sendbuf ~pos ~recvbuf ~count ~root ~tag =
  let acc = reduce_to_root comm dt op ~sendbuf ~pos ~count ~root ~tag in
  if Comm.rank comm = root then Array.blit acc 0 recvbuf 0 count

(* ------------------------------------------------------------------ *)
(* Recursive doubling.                                                 *)
(* ------------------------------------------------------------------ *)

(* Fold the positions beyond the largest power of two into their even
   neighbours (MPICH rem-handling): afterwards [pof2] "new ranks"
   participate in the power-of-two schedule, the rest wait for the result.
   Returns the new rank, or -1 for a parked position. *)
let fold_to_pow2 comm dt op ~recvbuf ~tmp ~count ~members ~me ~rem ~tag_fold =
  if me < 2 * rem then
    if me land 1 = 0 then begin
      P2p.send ~ctx:Internal ~count comm dt recvbuf ~dst:(member comm members (me + 1)) ~tag:tag_fold;
      -1
    end
    else begin
      ignore
        (P2p.recv ~ctx:Internal ~count comm dt tmp ~src:(member comm members (me - 1)) ~tag:tag_fold);
      (* the sender's position is lower: its data goes on the left *)
      combine comm op recvbuf tmp ~pos:0 count ~received_left:true;
      me asr 1
    end
  else me - rem

(* Return the folded-out positions' results. *)
let unfold_from_pow2 comm dt ~recvbuf ~count ~members ~me ~rem ~tag_fold =
  if me < 2 * rem then
    if me land 1 = 1 then
      P2p.send ~ctx:Internal ~count comm dt recvbuf ~dst:(member comm members (me - 1)) ~tag:tag_fold
    else
      ignore
        (P2p.recv ~ctx:Internal ~count comm dt recvbuf ~src:(member comm members (me + 1))
           ~tag:tag_fold)

let real_of_new ~rem nd = if nd < rem then (nd * 2) + 1 else nd + rem

(* Recursive-doubling allreduce of [recvbuf] over [members], with the
   non-power-of-two fold. *)
let allreduce_rd comm dt op ~recvbuf ~tmp ~count ~members ~tag_fold ~tag =
  let p = group_size comm members and me = position comm members in
  if me >= 0 && p > 1 && count > 0 then begin
    let pof2 = largest_pow2 p in
    let rem = p - pof2 in
    let newrank = fold_to_pow2 comm dt op ~recvbuf ~tmp ~count ~members ~me ~rem ~tag_fold in
    if newrank >= 0 then begin
      let mask = ref 1 in
      while !mask < pof2 do
        let newdst = newrank lxor !mask in
        let dst = member comm members (real_of_new ~rem newdst) in
        let req = P2p.isend ~ctx:Internal ~count comm dt recvbuf ~dst ~tag in
        ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src:dst ~tag);
        ignore (Request.wait req);
        combine comm op recvbuf tmp ~pos:0 count ~received_left:(newdst < newrank);
        mask := !mask lsl 1
      done
    end;
    unfold_from_pow2 comm dt ~recvbuf ~count ~members ~me ~rem ~tag_fold
  end

(* Recursive-doubling allgather of the blocks [recvbuf.(pos_of i ..)] of
   [count_of i] elements, with the fold of [allreduce_rd]: the even ranks
   below 2 rem hand their block to their odd neighbour, the pof2 survivors
   double, and each odd rank returns the whole vector to its even
   neighbour.  New rank nd holds the original ranks [lo nd, lo (nd + 1)),
   so every message is one window of the rank-ordered layout [off].  It
   runs in place when the caller's non-empty blocks sit in that order
   (the exclusive scan of the counts, at any base), and through one packed
   copy otherwise; the messages are the same either way, and zero-count
   ones are skipped on both sides.  The fold links r -> r + 1 and
   r + 1 -> r carry no doubling traffic, so one tag serves the whole
   call.  The caller seeds its own block. *)
let rd_allgatherv comm dt ~recvbuf ~pos_of ~count_of ~tag =
  let p = Comm.size comm and r = Comm.rank comm in
  let off = Array.make (p + 1) 0 in
  for i = 0 to p - 1 do
    off.(i + 1) <- off.(i) + count_of i
  done;
  let total = off.(p) in
  if p > 1 && total > 0 then begin
    (* In place when each non-empty block i sits at [base + off.(i)];
       [base] is where the first one sits. *)
    let base = ref (-1) and in_place = ref true in
    for i = 0 to p - 1 do
      if count_of i > 0 then begin
        let b = pos_of i - off.(i) in
        if !base < 0 then base := b else if b <> !base then in_place := false
      end
    done;
    let buf, base =
      if !in_place then (recvbuf, !base)
      else begin
        let packed = Datatype.alloc_like dt recvbuf total in
        Datatype.blit dt recvbuf (pos_of r) packed off.(r) (count_of r);
        (packed, 0)
      end
    in
    (* Each message is the window of the original ranks [lo, hi). *)
    let send lo hi ~dst =
      let pos = base + off.(lo) and count = off.(hi) - off.(lo) in
      if count > 0 then Some (P2p.isend ~ctx:Internal ~pos ~count comm dt buf ~dst ~tag) else None
    in
    let recv lo hi ~src =
      let pos = base + off.(lo) and count = off.(hi) - off.(lo) in
      if count > 0 then ignore (P2p.recv ~ctx:Internal ~pos ~count comm dt buf ~src ~tag)
    in
    let wait = Option.iter (fun req -> ignore (Request.wait req)) in
    let pof2 = largest_pow2 p in
    let rem = p - pof2 in
    if r < 2 * rem && r land 1 = 0 then begin
      let req = send r (r + 1) ~dst:(r + 1) in
      recv 0 p ~src:(r + 1);
      wait req
    end
    else begin
      if r < 2 * rem then recv (r - 1) r ~src:(r - 1);
      let nd = if r < 2 * rem then r asr 1 else r - rem in
      let lo n = if n < rem then 2 * n else n + rem in
      let mask = ref 1 in
      while !mask < pof2 do
        let peer = nd lxor !mask in
        let mine = nd land lnot (!mask - 1) and theirs = peer land lnot (!mask - 1) in
        let partner = real_of_new ~rem peer in
        let req = send (lo mine) (lo (mine + !mask)) ~dst:partner in
        recv (lo theirs) (lo (theirs + !mask)) ~src:partner;
        wait req;
        mask := !mask lsl 1
      done;
      if r < 2 * rem then wait (send 0 p ~dst:(r - 1))
    end;
    if buf != recvbuf then
      for i = 0 to p - 1 do
        if i <> r then Datatype.blit dt buf off.(i) recvbuf (pos_of i) (count_of i)
      done
  end

(* ------------------------------------------------------------------ *)
(* Rings.                                                              *)
(* ------------------------------------------------------------------ *)

(* Ring allgather of the blocks [recvbuf.(pos_of i ..)] of [count_of i]
   elements: p - 1 neighbour steps, each forwarding the block received in
   the previous one.  Every block travels, empty ones included.
   Successive messages between the same neighbours share a tag; the
   network model preserves per-link FIFO order. *)
let ring_allgatherv comm dt ~recvbuf ~pos_of ~count_of ~tag =
  let p = Comm.size comm and r = Comm.rank comm in
  let dst = (r + 1) mod p and src = (r - 1 + p) mod p in
  for step = 1 to p - 1 do
    let sb = (r - step + 1 + p) mod p and rb = (r - step + p) mod p in
    let req =
      P2p.isend ~ctx:Internal ~pos:(pos_of sb) ~count:(count_of sb) comm dt recvbuf ~dst ~tag
    in
    ignore (P2p.recv ~ctx:Internal ~pos:(pos_of rb) ~count:(count_of rb) comm dt recvbuf ~src ~tag);
    ignore (Request.wait req)
  done

(* p - 1 neighbour steps over the blocks [start i, start (i + 1)) of [buf]:
   in step s ring position [me] sends block (me - s + 1) to [dst] and
   receives block (me - s) from [src], skipping empty blocks.  With
   [recv_block], [recv_block lo n] receives each block instead of the
   plain receive into [buf] (the ring allreduce folds it in there). *)
let ring_blocks ?recv_block comm dt buf ~start ~me ~dst ~src ~tag =
  let p = Comm.size comm in
  for s = 1 to p - 1 do
    let sb = (me - s + 1 + p) mod p and rb = (me - s + p) mod p in
    let s_lo = start sb and s_n = start (sb + 1) - start sb in
    let r_lo = start rb and r_n = start (rb + 1) - start rb in
    let req =
      if s_n > 0 then Some (P2p.isend ~ctx:Internal ~pos:s_lo ~count:s_n comm dt buf ~dst ~tag)
      else None
    in
    (if r_n > 0 then
       match recv_block with
       | None -> ignore (P2p.recv ~ctx:Internal ~pos:r_lo ~count:r_n comm dt buf ~src ~tag)
       | Some recv_block -> recv_block r_lo r_n);
    match req with Some req -> ignore (Request.wait req) | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Rooted linear loops, the prefix scan, fixed collectives.            *)
(* ------------------------------------------------------------------ *)

(* Linear gather: the root copies its own block and receives every other
   rank's in rank order; [recvbuf] is used at the root only. *)
let gather_linear comm dt ~sendbuf ~spos ~scount ~recvbuf ~rpos_of ~rcount_of ~root ~tag =
  let r = Comm.rank comm in
  if r = root then begin
    Datatype.blit dt sendbuf spos recvbuf (rpos_of r) scount;
    for src = 0 to Comm.size comm - 1 do
      if src <> root then
        ignore
          (P2p.recv ~ctx:Internal ~pos:(rpos_of src) ~count:(rcount_of src) comm dt recvbuf ~src ~tag)
    done
  end
  else P2p.send ~ctx:Internal ~pos:spos ~count:scount comm dt sendbuf ~dst:root ~tag

(* Linear scatter: the root copies its own block and sends every other
   rank's in rank order; [sendbuf] is used at the root only. *)
let scatter_linear comm dt ~sendbuf ~spos_of ~scount_of ~recvbuf ~rpos ~rcount ~root ~tag =
  let r = Comm.rank comm in
  if r = root then begin
    Datatype.blit dt sendbuf (spos_of r) recvbuf rpos (scount_of r);
    for dst = 0 to Comm.size comm - 1 do
      if dst <> root then
        P2p.send ~ctx:Internal ~pos:(spos_of dst) ~count:(scount_of dst) comm dt sendbuf ~dst ~tag
    done
  end
  else ignore (P2p.recv ~ctx:Internal ~pos:rpos ~count:rcount comm dt recvbuf ~src:root ~tag)

(* Recursive-doubling prefix scan: in round k every rank passes its
   running partial to rank + 2^k.  The inclusive scan seeds [recvbuf] with
   the caller's own data; the exclusive one leaves it untouched until the
   first contribution arrives (so rank 0's stays as it was, as in MPI). *)
let prefix_scan comm dt op ~sendbuf ~recvbuf ~count ~tag ~inclusive =
  let p = Comm.size comm and r = Comm.rank comm in
  if inclusive then Array.blit sendbuf 0 recvbuf 0 count;
  if p > 1 && count > 0 then begin
    let partial = Array.sub sendbuf 0 count in
    let tmp = Array.copy partial in
    let have_result = ref inclusive in
    let mask = ref 1 in
    while !mask < p do
      let dst = r + !mask and src = r - !mask in
      let req =
        if dst < p then Some (P2p.isend ~ctx:Internal ~count comm dt partial ~dst ~tag) else None
      in
      if src >= 0 then begin
        ignore (P2p.recv ~ctx:Internal ~count comm dt tmp ~src ~tag);
        (* tmp covers ranks below src inclusive: combine on the left. *)
        for i = 0 to count - 1 do
          partial.(i) <- Op.apply op tmp.(i) partial.(i);
          recvbuf.(i) <- (if !have_result then Op.apply op tmp.(i) recvbuf.(i) else tmp.(i))
        done;
        have_result := true;
        Comm.compute comm (2.0 *. float_of_int count *. Op.cost_per_element op)
      end;
      (match req with Some req -> ignore (Request.wait req) | None -> ());
      mask := !mask lsl 1
    done
  end

(* Reduce-scatter with equal block sizes: reduce to rank 0, then scatter
   the blocks from there (the simple algorithm; tuned implementations
   exist but the cost shape — full reduction volume plus a scatter — is
   the same). *)
let reduce_scatter_block comm dt op ~sendbuf ~recvbuf ~count ~tag ~tag2 =
  let acc =
    reduce_to_root comm dt op ~sendbuf ~pos:0 ~count:(Comm.size comm * count) ~root:0 ~tag
  in
  scatter_linear comm dt ~sendbuf:acc
    ~spos_of:(fun d -> d * count)
    ~scount_of:(fun _ -> count)
    ~recvbuf ~rpos:0 ~rcount:count ~root:0 ~tag:tag2

(* Communicator handles travel between ranks as ordinary (tiny) messages;
   a dedicated opaque datatype keeps that honest in the cost model. *)
let dt_comm : World.comm_shared Datatype.t = Datatype.custom ~name:"MPI_Comm" ~extent:16 ()

(* The leader creates the new shared state and distributes it to the other
   members over the parent communicator. *)
let distribute_shared comm ~members ~tag make_shared =
  let r = Comm.rank comm in
  let leader = members.(0) in
  if r = leader then begin
    let shared = make_shared () in
    let box = [| shared |] in
    Array.iter
      (fun m -> if m <> leader then P2p.send ~ctx:Internal comm dt_comm box ~dst:m ~tag)
      members;
    shared
  end
  else begin
    let box = [| Comm.shared comm |] in
    ignore (P2p.recv ~ctx:Internal comm dt_comm box ~src:leader ~tag);
    box.(0)
  end

(* ------------------------------------------------------------------ *)
(* Broadcast.                                                          *)
(* ------------------------------------------------------------------ *)

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
    ring_blocks comm dt buf
      ~start:(fun i -> pos + start i)
      ~me:rel
      ~dst:(((rel + 1) mod p + root) mod p)
      ~src:(((rel - 1 + p) mod p + root) mod p)
      ~tag:tag2
  end

(* ------------------------------------------------------------------ *)
(* Allreduce.                                                          *)
(* ------------------------------------------------------------------ *)

let allreduce_reduce_bcast comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag ~tag2 =
  reduce comm dt op ~sendbuf ~pos ~recvbuf ~count ~root:0 ~tag;
  bcast_binomial comm dt recvbuf 0 count ~members:(Rotation 0) ~tag:tag2

let allreduce_recursive_doubling comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_fold ~tag =
  Array.blit sendbuf pos recvbuf 0 count;
  if Comm.size comm > 1 && count > 0 then
    allreduce_rd comm dt op ~recvbuf ~tmp:(Array.sub sendbuf pos count) ~count
      ~members:(Rotation 0) ~tag_fold ~tag

(* Rabenseifner: recursive-halving reduce-scatter followed by a
   recursive-doubling allgather over the reduced blocks (ported from the
   MPICH reduce_scatter_allgather schedule). *)
let allreduce_rabenseifner comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_fold ~tag_rs ~tag_ag =
  let p = Comm.size comm and r = Comm.rank comm in
  Array.blit sendbuf pos recvbuf 0 count;
  if p > 1 && count > 0 then begin
    let tmp = Array.sub sendbuf pos count in
    let pof2 = largest_pow2 p in
    let rem = p - pof2 in
    let members = Rotation 0 in
    let newrank = fold_to_pow2 comm dt op ~recvbuf ~tmp ~count ~members ~me:r ~rem ~tag_fold in
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
        (* fold the received segment into the kept one *)
        if recv_cnt > 0 then
          combine comm op recvbuf tmp ~pos:disps.(!recv_idx) recv_cnt
            ~received_left:(newdst < newrank);
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
    unfold_from_pow2 comm dt ~recvbuf ~count ~members ~me:r ~rem ~tag_fold
  end

(* Ring allreduce: reduce-scatter around the ring (p-1 steps), then a ring
   allgather of the reduced blocks.  Linear startups, optimal volume.
   Block i holds count/p elements, plus one for i < count mod p. *)
let allreduce_ring comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_rs ~tag_ag =
  let p = Comm.size comm and r = Comm.rank comm in
  Array.blit sendbuf pos recvbuf 0 count;
  if p > 1 && count > 0 then begin
    let tmp = Array.sub sendbuf pos count in
    let start i = (i * (count / p)) + min i (count mod p) in
    let dst = (r + 1) mod p and src = (r - 1 + p) mod p in
    (* Reduce-scatter: after step s rank r has accumulated s+1 inputs into
       block (r - s); rank r ends owning block (r + 1) mod p.  Each
       received block lands in [tmp] and is combined on the left (the
       partial sum it carries starts at the block's owner). *)
    let fold lo n =
      ignore (P2p.recv ~ctx:Internal ~pos:lo ~count:n comm dt tmp ~src ~tag:tag_rs);
      combine comm op recvbuf tmp ~pos:lo n ~received_left:true
    in
    ring_blocks ~recv_block:fold comm dt recvbuf ~start ~me:r ~dst ~src ~tag:tag_rs;
    (* Allgather: circulate the reduced blocks. *)
    ring_blocks comm dt recvbuf ~start ~me:((r + 1) mod p) ~dst ~src ~tag:tag_ag
  end

(* ------------------------------------------------------------------ *)
(* Allgather.                                                          *)
(* ------------------------------------------------------------------ *)

(* Copy the caller's block into place (shared by the p = 1 fast path and
   the ring/recursive-doubling seeds). *)
let seed_own_block dt recvbuf rpos count ~my_block_pos ~my_block_buf ~block =
  let dst_pos = rpos + block in
  if my_block_buf != recvbuf || my_block_pos <> dst_pos then
    Datatype.blit dt my_block_buf my_block_pos recvbuf dst_pos count

(* Bruck's allgather: logarithmic number of rounds for arbitrary p. *)
let allgather_bruck comm dt ~recvbuf ~rpos ~count ~tag ~my_block_pos ~my_block_buf =
  let p = Comm.size comm and r = Comm.rank comm in
  if count > 0 then begin
    if p = 1 then seed_own_block dt recvbuf rpos count ~my_block_pos ~my_block_buf ~block:0
    else begin
      let temp = Datatype.alloc_like dt my_block_buf (p * count) in
      Datatype.blit dt my_block_buf my_block_pos temp 0 count;
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
        Datatype.blit dt temp (i * count) recvbuf (rpos + (((r + i) mod p) * count)) count
      done
    end
  end

(* Ring and recursive doubling: an allgatherv body on the uniform layout. *)
let allgather_uniform body comm dt ~recvbuf ~rpos ~count ~tag ~my_block_pos ~my_block_buf =
  if count > 0 then begin
    seed_own_block dt recvbuf rpos count ~my_block_pos ~my_block_buf
      ~block:(Comm.rank comm * count);
    body comm dt ~recvbuf ~pos_of:(fun i -> rpos + (i * count)) ~count_of:(fun _ -> count) ~tag
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
  Datatype.blit dt sendbuf (spos_of r) recvbuf (rpos_of r) (scount_of r);
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
    if p = 1 then Datatype.blit dt sendbuf 0 recvbuf 0 count
    else begin
      let temp = Datatype.alloc_like dt sendbuf (p * count) in
      (* Phase 1: temp block i = my block for destination (r + i) mod p. *)
      for i = 0 to p - 1 do
        Datatype.blit dt sendbuf (((r + i) mod p) * count) temp (i * count) count
      done;
      let max_sel = (p + 1) / 2 in
      let cbuf = Datatype.alloc_like dt temp (max_sel * count) in
      let rbuf = Datatype.alloc_like dt temp (max_sel * count) in
      let pof = ref 1 in
      while !pof < p do
        let dst = (r + !pof) mod p and src = (r - !pof + p) mod p in
        let nsel = ref 0 in
        for i = 0 to p - 1 do
          if i land !pof <> 0 then begin
            Datatype.blit dt temp (i * count) cbuf (!nsel * count) count;
            incr nsel
          end
        done;
        let req = P2p.isend ~ctx:Internal ~count:(!nsel * count) comm dt cbuf ~dst ~tag in
        ignore (P2p.recv ~ctx:Internal ~count:(!nsel * count) comm dt rbuf ~src ~tag);
        ignore (Request.wait req);
        let k = ref 0 in
        for i = 0 to p - 1 do
          if i land !pof <> 0 then begin
            Datatype.blit dt rbuf (!k * count) temp (i * count) count;
            incr k
          end
        done;
        pof := !pof lsl 1
      done;
      (* Phase 3: temp block i now holds the data from rank (r - i + p) mod
         p; place it at that source's slot. *)
      for i = 0 to p - 1 do
        Datatype.blit dt temp (i * count) recvbuf (((r - i + p) mod p) * count) count
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
    bcast_binomial comm dt buf pos count ~members:(Ranks leaders) ~tag;
    (* Intra-node phase, rooted at this node's representative. *)
    let my = members_of_node nodes nodes.(r) in
    let rep = rep_of nodes.(r) in
    let intra = Array.of_list (rep :: List.filter (fun m -> m <> rep) (Array.to_list my)) in
    bcast_binomial comm dt buf pos count ~members:(Ranks intra) ~tag:tag2
  end

(* Node-leader allreduce: binomial reduce to each node's leader, recursive
   doubling across leaders, binomial broadcast back down. *)
let allreduce_node_leader comm dt op ~sendbuf ~pos ~recvbuf ~count ~nodes ~tag_up ~tag_fold ~tag_rd
    ~tag_down =
  let r = Comm.rank comm in
  Array.blit sendbuf pos recvbuf 0 count;
  if Comm.size comm > 1 && count > 0 then begin
    let tmp = Array.sub sendbuf pos count in
    let my = Ranks (members_of_node nodes nodes.(r)) in
    reduce_binomial comm dt op ~acc:recvbuf ~tmp ~count ~members:my ~tag:tag_up;
    let leaders = Array.map (fun nd -> (members_of_node nodes nd).(0)) (distinct_nodes nodes) in
    Array.sort compare leaders;
    allreduce_rd comm dt op ~recvbuf ~tmp ~count ~members:(Ranks leaders) ~tag_fold ~tag:tag_rd;
    bcast_binomial comm dt recvbuf 0 count ~members:my ~tag:tag_down
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
    Datatype.blit dt sendbuf (r * count) recvbuf (r * count) count;
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
      let up = Datatype.alloc_like dt sendbuf (max 1 (n_remote * count)) in
      Array.iteri
        (fun bi ms ->
          Array.iteri
            (fun j q -> Datatype.blit dt sendbuf (q * count) up ((seg_off.(bi) + j) * count) count)
            ms)
        remote_members;
      if r <> leader then begin
        (* Ship them up, then receive my slice of every arriving bundle. *)
        P2p.send ~ctx:Internal ~count:(n_remote * count) comm dt up ~dst:leader ~tag:tag_up;
        let down = Datatype.alloc_like dt sendbuf (n_remote * count) in
        ignore (P2p.recv ~ctx:Internal ~count:(n_remote * count) comm dt down ~src:leader ~tag:tag_down);
        Array.iteri
          (fun bi ms ->
            Array.iteri
              (fun j q ->
                Datatype.blit dt down ((seg_off.(bi) + j) * count) recvbuf (q * count) count)
              ms)
          remote_members
      end
      else begin
        (* Gather the local members' remote blocks: lbuf.(li) is member
           li's bundle (leader's own is [up]). *)
        let lbuf = Array.make m_a up in
        for li = 1 to m_a - 1 do
          let b = Datatype.alloc_like dt sendbuf (n_remote * count) in
          ignore (P2p.recv ~ctx:Internal ~count:(n_remote * count) comm dt b ~src:my.(li) ~tag:tag_up);
          lbuf.(li) <- b
        done;
        (* One bundle per remote node: src members ascending, then dst
           members ascending.  Post receives first, then sends (isend
           copies eagerly, so one scratch buffer suffices). *)
        let arrivals = Array.make (Array.length remote_nodes) (Datatype.empty dt) in
        let net_recv =
          List.mapi
            (fun bi ms ->
              let mb = Array.length ms in
              let b = Datatype.alloc_like dt sendbuf (mb * m_a * count) in
              arrivals.(bi) <- b;
              P2p.irecv ~ctx:Internal ~count:(mb * m_a * count) comm dt b ~src:ms.(0) ~tag:tag_net)
            (Array.to_list remote_members)
        in
        let scratch = Array.make (Array.length remote_nodes) (Datatype.empty dt) in
        Array.iteri
          (fun bi ms ->
            let mb = Array.length ms in
            let b = Datatype.alloc_like dt sendbuf (m_a * mb * count) in
            for li = 0 to m_a - 1 do
              Datatype.blit dt lbuf.(li) (seg_off.(bi) * count) b (li * mb * count) (mb * count)
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
        let down = Datatype.alloc_like dt sendbuf (max 1 (n_remote * count)) in
        for j = m_a - 1 downto 0 do
          Array.iteri
            (fun bi ms ->
              let mb = Array.length ms in
              for i = 0 to mb - 1 do
                Datatype.blit dt arrivals.(bi)
                  (((i * m_a) + j) * count)
                  down
                  ((seg_off.(bi) + i) * count)
                  count
              done)
            remote_members;
          if j = me then
            Array.iteri
              (fun bi ms ->
                Array.iteri
                  (fun i q ->
                    Datatype.blit dt down ((seg_off.(bi) + i) * count) recvbuf (q * count) count)
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
      if cols = 1 || rows = 1 then alltoall_pairwise comm dt ~sendbuf ~recvbuf ~count ~tag
      else assert false
    end
    else begin
      let x = r / cols and y = r mod cols in
      (* temp is laid out [source column in my row][destination row]. *)
      let temp = Datatype.alloc_like dt sendbuf (p * count) in
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
        Datatype.blit dt sendbuf (((xd * cols) + y) * count) temp (((y * rows) + xd) * count) count
      done;
      let pack = Datatype.alloc_like dt sendbuf (max rows cols * count) in
      let phase1_send =
        List.filter_map
          (fun yd ->
            if yd = y then None
            else begin
              for xd = 0 to rows - 1 do
                Datatype.blit dt sendbuf (((xd * cols) + yd) * count) pack (xd * count) count
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
        Datatype.blit dt temp (((ys * rows) + x) * count) recvbuf (((x * cols) + ys) * count) count
      done;
      let phase2_send =
        List.filter_map
          (fun xd ->
            if xd = x then None
            else begin
              for ys = 0 to cols - 1 do
                Datatype.blit dt temp (((ys * rows) + xd) * count) pack (ys * count) count
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

(* ------------------------------------------------------------------ *)
(* Dispatch by algorithm.                                              *)
(* ------------------------------------------------------------------ *)

(* Node id of every communicator rank — the structure the hierarchical
   bodies derive their leader/member ordering from. *)
let nodes_of comm =
  let net = (Comm.world comm).World.net in
  Array.map (fun wr -> Simnet.Netmodel.node_of net wr) (Comm.group comm)

let bcast comm dt buf pos count ~root algo ~tags:(tag, tag2) =
  match (algo : Coll_algos.Algo.bcast) with
  | Bcast_binomial -> bcast_binomial comm dt buf pos count ~members:(Rotation root) ~tag
  | Bcast_scatter_allgather -> bcast_scatter_allgather comm dt buf pos count ~root ~tag ~tag2
  | Bcast_node_leader ->
      bcast_node_leader comm dt buf pos count ~root ~nodes:(nodes_of comm) ~tag ~tag2

let allreduce comm dt op ~sendbuf ~pos ~recvbuf ~count algo ~tags:(t1, t2, t3, t4) =
  match (algo : Coll_algos.Algo.allreduce) with
  | Ar_reduce_bcast -> allreduce_reduce_bcast comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag:t1 ~tag2:t2
  | Ar_recursive_doubling ->
      allreduce_recursive_doubling comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_fold:t1 ~tag:t2
  | Ar_rabenseifner ->
      allreduce_rabenseifner comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_fold:t1 ~tag_rs:t2
        ~tag_ag:t3
  | Ar_ring -> allreduce_ring comm dt op ~sendbuf ~pos ~recvbuf ~count ~tag_rs:t1 ~tag_ag:t2
  | Ar_node_leader ->
      allreduce_node_leader comm dt op ~sendbuf ~pos ~recvbuf ~count ~nodes:(nodes_of comm)
        ~tag_up:t1 ~tag_fold:t2 ~tag_rd:t3 ~tag_down:t4

let allgather comm dt ~recvbuf ~rpos ~count ~my_block_pos ~my_block_buf algo ~tag =
  let f =
    match (algo : Coll_algos.Algo.allgather) with
    | Ag_bruck -> allgather_bruck
    | Ag_ring -> allgather_uniform ring_allgatherv
    | Ag_recursive_doubling -> allgather_uniform rd_allgatherv
  in
  f comm dt ~recvbuf ~rpos ~count ~tag ~my_block_pos ~my_block_buf

let allgatherv comm dt ~recvbuf ~pos_of ~count_of algo ~tag =
  match (algo : Coll_algos.Algo.allgatherv) with
  | Agv_ring -> ring_allgatherv comm dt ~recvbuf ~pos_of ~count_of ~tag
  | Agv_recursive_doubling -> rd_allgatherv comm dt ~recvbuf ~pos_of ~count_of ~tag

let alltoall comm dt ~sendbuf ~recvbuf ~count algo ~tags:(t1, t2, t3, t4) =
  match (algo : Coll_algos.Algo.alltoall) with
  | A2a_pairwise -> alltoall_pairwise comm dt ~sendbuf ~recvbuf ~count ~tag:t1
  | A2a_bruck -> alltoall_bruck comm dt ~sendbuf ~recvbuf ~count ~tag:t1
  | A2a_smp ->
      alltoall_smp comm dt ~sendbuf ~recvbuf ~count ~nodes:(nodes_of comm) ~tag_local:t1 ~tag_up:t2
        ~tag_net:t3 ~tag_down:t4
  | A2a_hypergrid -> alltoall_hypergrid comm dt ~sendbuf ~recvbuf ~count ~tag:t1 ~tag2:t2
