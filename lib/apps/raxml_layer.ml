(* The RAxML-NG integration benchmark (paper Sec. IV-C, Fig. 11).

   RAxML-NG's parallel abstraction layer broadcasts serialized model state
   (branch lengths, substitution-model parameters) and reduces per-worker
   log-likelihoods, ~700 MPI calls per second.  The [Before] module
   reproduces the hand-written layer (explicit BinaryStream serialization,
   a size broadcast followed by a payload broadcast); [After] is the
   KaMPIng one-liner.  A synthetic likelihood-search loop drives both at
   the original call rate so overhead would show up in the simulated
   runtime. *)

module D = Mpisim.Datatype

(* The "model" travelling between workers. *)
type model = { branch_lengths : float array; alpha : float; logl : float }

let model_codec =
  Serde.Codec.conv ~name:"model"
    (fun m -> (m.branch_lengths, m.alpha, m.logl))
    (fun (branch_lengths, alpha, logl) -> { branch_lengths; alpha; logl })
    Serde.Codec.(triple (array float) float float)

let make_model ~taxa ~seed =
  let rng = Simnet.Rng.create (Int64.of_int seed) in
  {
    branch_lengths = Array.init ((2 * taxa) - 3) (fun _ -> Simnet.Rng.float rng);
    alpha = 0.5 +. Simnet.Rng.float rng;
    logl = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Before: RAxML-NG's custom layer (Fig. 11 top).                      *)
(* ------------------------------------------------------------------ *)

module Before = struct
  (* _parallel_buf: the preallocated serialization scratch buffer. *)
  type t = { comm : Mpisim.Comm.t; mutable parallel_buf : Bytes.t }

  let create comm = { comm; parallel_buf = Bytes.create 4096 }

  let mpi_broadcast_raw t buf ~count ~root =
    Mpisim.Collectives.bcast t.comm D.serialized buf ~count ~root

  (* The hand-rolled pattern: serialize into the scratch buffer, broadcast
     the size, broadcast the bytes, deserialize. *)
  let mpi_broadcast t ~root obj =
    let master = Mpisim.Comm.rank t.comm = root in
    let size =
      if master then begin
        let b = Serde.Codec.encode model_codec obj in
        let n = Bytes.length b in
        if n > Bytes.length t.parallel_buf then t.parallel_buf <- Bytes.create (2 * n);
        Bytes.blit b 0 t.parallel_buf 0 n;
        Mpisim.Comm.compute t.comm (D.serialization_cost ~bytes:n);
        n
      end
      else 0
    in
    let size_box = [| size |] in
    Mpisim.Collectives.bcast t.comm D.int size_box ~root;
    let size = size_box.(0) in
    if (not master) && size > Bytes.length t.parallel_buf then
      t.parallel_buf <- Bytes.create (2 * size);
    mpi_broadcast_raw t t.parallel_buf ~count:size ~root;
    if master then obj
    else begin
      Mpisim.Comm.compute t.comm (D.serialization_cost ~bytes:size);
      Serde.Codec.decode_sub model_codec t.parallel_buf ~pos:0 ~len:size
    end
end

(* ------------------------------------------------------------------ *)
(* After: the layer collapses to KaMPIng calls (Fig. 11 bottom).       *)
(* ------------------------------------------------------------------ *)

module After = struct
  let create comm = Kamping.Comm.wrap comm
  let mpi_broadcast t ~root obj = Kamping.Comm.bcast_serialized ~root t model_codec obj
end

(* ------------------------------------------------------------------ *)
(* The synthetic driver: a likelihood search issuing the RAxML call mix *)
(* ------------------------------------------------------------------ *)

type stats = { iterations : int; final_logl : float; sim_seconds : float }

(* Each iteration: local likelihood work, an allreduce of the likelihood,
   and every [bcast_every] iterations a model broadcast from the current
   best worker — roughly 700 calls/s at the default work size. *)
let search ~variant ~iterations ~taxa comm =
  let start = Mpisim.Comm.now comm in
  let bcast : root:int -> model -> model =
    match variant with
    | `Before ->
        let layer = Before.create comm in
        Before.mpi_broadcast layer
    | `After ->
        let layer = After.create comm in
        After.mpi_broadcast layer
  in
  let model = ref (make_model ~taxa ~seed:7) in
  let r = Mpisim.Comm.rank comm in
  let best = ref neg_infinity in
  for i = 1 to iterations do
    (* local likelihood evaluation: ~1.4 ms of numerics *)
    Mpisim.Comm.compute comm 1.4e-3;
    let local_logl = -1000.0 -. (1.0 /. float_of_int ((i * (r + 1)) + 1)) in
    let out = [| 0.0 |] in
    Mpisim.Collectives.allreduce comm D.float Mpisim.Op.float_max ~sendbuf:[| local_logl |]
      ~recvbuf:out ~count:1;
    best := Float.max !best out.(0);
    if i mod 2 = 0 then begin
      (* the best worker publishes its model *)
      let root = i mod Mpisim.Comm.size comm in
      model := bcast ~root { !model with logl = !best }
    end
  done;
  { iterations; final_logl = !best; sim_seconds = Mpisim.Comm.now comm -. start }
