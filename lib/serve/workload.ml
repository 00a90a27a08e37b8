module Rng = Simnet.Rng

type op = Get | Put of int
type request = { at : float; key : int; op : op }

type t = {
  cdf : float array;
  rate : float;
  write_ratio : float;
  seed : int;
  stream : int;
  mutable rng : Rng.t;
  mutable idx : int;  (* requests popped so far *)
  mutable clock : float;  (* arrival time of [pending] *)
  mutable pending : request option;
}

let zipf_pmf ~n_keys ~zipf_s =
  if n_keys <= 0 then Mpisim.Errors.usage "Workload: n_keys must be positive";
  let w = Array.init n_keys (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) zipf_s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let cdf_of pmf =
  let acc = ref 0.0 in
  Array.map
    (fun p ->
      acc := !acc +. p;
      !acc)
    pmf

let fresh_rng ~seed ~stream = Rng.split (Rng.create (Int64.of_int seed)) stream

let create ~n_keys ~zipf_s ~rate ~write_ratio ~seed ~stream =
  if rate <= 0.0 then Mpisim.Errors.usage "Workload: rate must be positive";
  if write_ratio < 0.0 || write_ratio > 1.0 then
    Mpisim.Errors.usage "Workload: write_ratio must be in [0,1]";
  {
    cdf = cdf_of (zipf_pmf ~n_keys ~zipf_s);
    rate;
    write_ratio;
    seed;
    stream;
    rng = fresh_rng ~seed ~stream;
    idx = 0;
    clock = 0.0;
    pending = None;
  }

(* First index with cdf.(i) >= u. *)
let sample_key t u =
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* Every request consumes exactly four draws, so regeneration is purely
   positional. *)
let gen t =
  let u_dt = Rng.float t.rng in
  let u_key = Rng.float t.rng in
  let u_op = Rng.float t.rng in
  let u_delta = Rng.float t.rng in
  t.clock <- t.clock +. (-.Float.log (1.0 -. u_dt) /. t.rate);
  let key = sample_key t u_key in
  let op =
    if u_op < t.write_ratio then Put (1 + int_of_float (u_delta *. 8.0)) else Get
  in
  { at = t.clock; key; op }

let ensure_pending t = if t.pending = None then t.pending <- Some (gen t)

let next_due t ~now ~limit =
  ensure_pending t;
  match t.pending with
  | Some r when r.at <= now && r.at < limit ->
      t.pending <- None;
      t.idx <- t.idx + 1;
      Some r
  | Some _ | None -> None

let pos t = t.idx

let seek t i =
  if i < 0 then Mpisim.Errors.usage "Workload.seek: negative position %d" i;
  t.rng <- fresh_rng ~seed:t.seed ~stream:t.stream;
  t.idx <- 0;
  t.clock <- 0.0;
  t.pending <- None;
  for _ = 1 to i do
    ignore (gen t);
    t.idx <- t.idx + 1
  done
