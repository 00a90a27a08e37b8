type 'a t = {
  f : 'a -> 'a -> 'a;
  commutative : bool;
  builtin : bool;
  cost_per_element : float;
}

let apply op a b = op.f a b
let commutative op = op.commutative
let is_builtin op = op.builtin
let cost_per_element op = op.cost_per_element

let builtin_cost = 1.0e-9
let user_cost = 4.0e-9 (* user lambdas defeat vectorization *)

let of_fun ?(commutative = true) f =
  { f; commutative; builtin = false; cost_per_element = user_cost }

let builtin f = { f; commutative = true; builtin = true; cost_per_element = builtin_cost }

let int_sum = builtin ( + )
let int_prod = builtin ( * )
let int_max = builtin max
let int_min = builtin min
let int_land = builtin ( land )
let int_lor = builtin ( lor )
let int_lxor = builtin ( lxor )
let float_sum = builtin ( +. )
let float_prod = builtin ( *. )
let float_max = builtin Float.max
let float_min = builtin Float.min
let bool_and = builtin ( && )
let bool_or = builtin ( || )
