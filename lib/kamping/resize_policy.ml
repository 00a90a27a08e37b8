type t = Resize_to_fit | Grow_only | No_resize

exception Buffer_too_small of { needed : int; capacity : int }

let prepare policy vec ~needed ~filler =
  (match policy with
  | Resize_to_fit -> Ds.Vec.resize vec needed filler
  | Grow_only -> Ds.Vec.ensure_length vec needed filler
  | No_resize ->
      if Ds.Vec.length vec < needed then
        raise (Buffer_too_small { needed; capacity = Ds.Vec.length vec }));
  Ds.Vec.unsafe_data vec
