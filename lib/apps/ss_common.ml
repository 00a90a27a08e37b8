(* Shared, binding-agnostic parts of the sample sort implementations
   (paper Sec. IV-A: "all shared parts of the code have been extracted to
   functions").  Every binding variant below uses exactly these helpers, so
   the variant files measure only the communication code. *)

(* 16 log2 p + 1 samples per rank, the textbook choice from Fig. 7. *)
let num_samples p =
  let logp = int_of_float (ceil (log (float_of_int (max 2 p)) /. log 2.0)) in
  (16 * logp) + 1

let generate_input ~rank ~n_per_rank ~seed =
  let rng = Simnet.Rng.split (Simnet.Rng.create (Int64.of_int seed)) rank in
  Array.init n_per_rank (fun _ -> Simnet.Rng.int rng max_int)

let draw_samples ~rank ~seed data k =
  let n = Array.length data in
  if n = 0 then [||]
  else begin
    let rng = Simnet.Rng.split (Simnet.Rng.create (Int64.of_int (seed lxor 0x5a5a))) rank in
    Array.init k (fun _ -> data.(Simnet.Rng.int rng n))
  end

(* p-1 equidistant splitters out of the sorted global sample. *)
let select_splitters gsamples p =
  let m = Array.length gsamples in
  Array.init (p - 1) (fun i -> gsamples.(min (m - 1) ((i + 1) * m / p)))

(* With [data] sorted, bucket i is the contiguous run between splitters;
   returns per-bucket counts. *)
let bucket_counts data splitters p =
  let counts = Array.make p 0 in
  let bucket = ref 0 in
  Array.iter
    (fun x ->
      while !bucket < p - 1 && splitters.(!bucket) < x do
        incr bucket
      done;
      counts.(!bucket) <- counts.(!bucket) + 1)
    data;
  counts

let local_sort comm data =
  Array.sort Int.compare data;
  Mpisim.Comm.compute comm (Kamping.Costs.sort (Array.length data))

let charge_partition comm n = Mpisim.Comm.compute comm (Kamping.Costs.linear n)
