let sort n =
  if n <= 1 then 0.0
  else begin
    let fn = float_of_int n in
    15.0e-9 *. fn *. (log fn /. log 2.0)
  end

let linear n = 2.0e-9 *. float_of_int n
let hash_ops n = 25.0e-9 *. float_of_int n
let per_edge m = 4.0e-9 *. float_of_int m
