module V = Ds.Vec

(* Per-vertex random streams keyed by (seed, vertex id) keep the global
   graph independent of the rank count. *)
let vertex_stream ~seed v = Simnet.Rng.split (Simnet.Rng.create (Int64.of_int seed)) v

let erdos_renyi ~rank ~comm_size ~global_n ~avg_degree ~seed =
  let first, local_n = Distgraph.block_range ~global_n ~comm_size rank in
  let edges = V.create () in
  for i = 0 to local_n - 1 do
    let v = first + i in
    let rng = vertex_stream ~seed v in
    for _ = 1 to avg_degree do
      let rec draw () =
        let u = Simnet.Rng.int rng global_n in
        if u = v && global_n > 1 then draw () else u
      in
      V.push edges (v, draw ())
    done
  done;
  Distgraph.of_edges ~comm_size ~rank ~global_n edges

(* --- 2D random geometric graph, cell-major ids --- *)

type rgg_layout = { k : int; base : int; rem : int; radius : float; seed : int }

let rgg_layout ~global_n ~avg_degree ~seed =
  let radius = sqrt (float_of_int avg_degree /. (Float.pi *. float_of_int global_n)) in
  let k = max 1 (int_of_float (1.0 /. radius)) in
  let cells = k * k in
  { k; base = global_n / cells; rem = global_n mod cells; radius; seed }

let cell_count layout c = layout.base + (if c < layout.rem then 1 else 0)

let cell_offset layout c = (c * layout.base) + min c layout.rem

let cell_of_vertex layout v =
  if layout.base = 0 then min v (layout.rem - 1)
  else begin
    let boundary = layout.rem * (layout.base + 1) in
    if v < boundary then v / (layout.base + 1) else layout.rem + ((v - boundary) / layout.base)
  end

let position layout v =
  let c = cell_of_vertex layout v in
  let cx = c mod layout.k and cy = c / layout.k in
  let rng = vertex_stream ~seed:layout.seed v in
  let side = 1.0 /. float_of_int layout.k in
  ( (float_of_int cx +. Simnet.Rng.float rng) *. side,
    (float_of_int cy +. Simnet.Rng.float rng) *. side )

let rgg_2d ~rank ~comm_size ~global_n ~avg_degree ~seed =
  let layout = rgg_layout ~global_n ~avg_degree ~seed in
  let first, local_n = Distgraph.block_range ~global_n ~comm_size rank in
  let edges = V.create () in
  let r2 = layout.radius *. layout.radius in
  for i = 0 to local_n - 1 do
    let v = first + i in
    let xv, yv = position layout v in
    let c = cell_of_vertex layout v in
    let cx = c mod layout.k and cy = c / layout.k in
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        let nx = cx + dx and ny = cy + dy in
        if nx >= 0 && nx < layout.k && ny >= 0 && ny < layout.k then begin
          let nc = (ny * layout.k) + nx in
          let off = cell_offset layout nc in
          for j = 0 to cell_count layout nc - 1 do
            let u = off + j in
            if u <> v then begin
              let xu, yu = position layout u in
              let dx = xu -. xv and dy = yu -. yv in
              if (dx *. dx) +. (dy *. dy) <= r2 then V.push edges (v, u)
            end
          done
        end
      done
    done
  done;
  Distgraph.of_edges ~comm_size ~rank ~global_n edges

(* --- power-law targets: u = floor(n * U^2) favors low ids --- *)

let rhg_like ~rank ~comm_size ~global_n ~avg_degree ~seed =
  let first, local_n = Distgraph.block_range ~global_n ~comm_size rank in
  let edges = V.create () in
  for i = 0 to local_n - 1 do
    let v = first + i in
    let rng = vertex_stream ~seed v in
    for _ = 1 to avg_degree do
      let rec draw () =
        let u = Simnet.Rng.float rng in
        let t = int_of_float (u *. u *. float_of_int global_n) in
        let t = min t (global_n - 1) in
        if t = v && global_n > 1 then draw () else t
      in
      V.push edges (v, draw ())
    done
  done;
  Distgraph.of_edges ~comm_size ~rank ~global_n edges

type family = Erdos_renyi | Rgg2d | Rhg

let family_name = function Erdos_renyi -> "erdos-renyi" | Rgg2d -> "rgg2d" | Rhg -> "rhg"

let generate family ~rank ~comm_size ~global_n ~avg_degree ~seed =
  match family with
  | Erdos_renyi -> erdos_renyi ~rank ~comm_size ~global_n ~avg_degree ~seed
  | Rgg2d -> rgg_2d ~rank ~comm_size ~global_n ~avg_degree ~seed
  | Rhg -> rhg_like ~rank ~comm_size ~global_n ~avg_degree ~seed

let shard_slices family ~n_shards ~global_n ~avg_degree ~seed =
  let made = Hashtbl.create 8 in
  fun s ->
    match Hashtbl.find_opt made s with
    | Some g -> g
    | None ->
        let g = generate family ~rank:s ~comm_size:n_shards ~global_n ~avg_degree ~seed in
        Hashtbl.add made s g;
        g
