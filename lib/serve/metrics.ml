module V = Ds.Vec

type t = { samples : float V.t }

let create () = { samples = V.create () }
let record t l = V.push t.samples (Float.max 0.0 l)
let samples t = V.to_array t.samples

let percentile samples q =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(Int.max 0 (Int.min (n - 1) rank))
  end
