type t = {
  world : World.t;
  shared : World.comm_shared;
  rank : int;
  mutable coll_seq : int;
  mutable coll_index : int;
  mutable shrink_seq : int;
  mutable agree_seq : int;
}

let make world shared ~rank =
  { world; shared; rank; coll_seq = 0; coll_index = 0; shrink_seq = 0; agree_seq = 0 }
let world c = c.world
let shared c = c.shared
let rank c = c.rank
let size c = Array.length c.shared.group
let id c = c.shared.cid

let world_rank_of c r =
  if r < 0 || r >= size c then Errors.usage "rank %d out of range for communicator of size %d" r (size c);
  c.shared.group.(r)

let group c = c.shared.group

(* Placement query: the shared-memory node hosting a communicator rank. *)
let node_of_rank c r = Simnet.Netmodel.node_of c.world.World.net (world_rank_of c r)

let is_revoked c = c.shared.revoked
let check_active c = if c.shared.revoked then raise Errors.Comm_revoked

(* Internal tags live below -10; user tags must be >= 0.  The sequence
   wraps far before colliding with the ibarrier tag space (see P2p). *)
let next_collective_tag c =
  c.coll_seq <- c.coll_seq + 1;
  -10 - (c.coll_seq land 0xFFFFF)

let next_coll_index c =
  c.coll_index <- c.coll_index + 1;
  c.coll_index - 1

let next_shrink_epoch c =
  c.shrink_seq <- c.shrink_seq + 1;
  c.shrink_seq

let next_agree_epoch c =
  c.agree_seq <- c.agree_seq + 1;
  c.agree_seq

let now c = World.now c.world
let compute c seconds = Simnet.Engine.delay c.world.World.engine seconds
let compute_until c time = Simnet.Engine.delay_until c.world.World.engine time
