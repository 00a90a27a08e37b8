module N = Simnet.Netmodel

type t = N.fabric

let make ?(uplinks = 0) ~node_of ~rack_of ~node ~rack ~core () =
  let f =
    {
      N.f_node_of = Array.copy node_of;
      f_rack_of = Array.copy rack_of;
      f_node = node;
      f_rack = rack;
      f_core = core;
      f_uplinks = uplinks;
    }
  in
  N.validate_fabric f;
  f

let nodes (f : t) = Array.length f.N.f_rack_of

let racks (f : t) =
  if Array.length f.N.f_rack_of = 0 then 0
  else 1 + Array.fold_left Int.max 0 f.N.f_rack_of

let ranks (f : t) = Array.length f.N.f_node_of

let max_per_node (f : t) =
  Array.fold_left Int.max 0 (Place.populations f.N.f_node_of)

let describe (f : t) =
  Printf.sprintf "%d ranks / %d nodes / %d racks (<=%d ranks/node, %d uplinks/node)"
    (ranks f) (nodes f) (racks f) (max_per_node f) f.N.f_uplinks
