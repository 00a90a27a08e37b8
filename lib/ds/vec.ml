(* Growable array.  The backing store is a plain ['a array]; because OCaml
   arrays cannot hold uninitialized slots, growth requires a witness element
   (taken from the existing contents or from the pushed value).  An empty
   vector therefore defers [reserve] requests until the first element
   arrives ([want_cap]). *)

type 'a t = { mutable data : 'a array; mutable len : int; mutable want_cap : int }

let create () = { data = [||]; len = 0; want_cap = 0 }
let make n x = { data = Array.make (max n 0) x; len = n; want_cap = 0 }
let init n f = { data = Array.init n f; len = n; want_cap = 0 }
let of_array a = { data = Array.copy a; len = Array.length a; want_cap = 0 }
let of_list l = of_array (Array.of_list l)
let length v = v.len
let capacity v = Array.length v.data
let is_empty v = v.len = 0

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set: index out of bounds";
  Array.unsafe_set v.data i x

(* Grow the backing store to at least [n] slots, using [filler] for the new
   slots. *)
let grow v n filler =
  let cap = Array.length v.data in
  if n > cap then begin
    let new_cap = max (max (2 * cap) n) (max v.want_cap 4) in
    let data = Array.make new_cap filler in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  if v.len = Array.length v.data then grow v (v.len + 1) x;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty vector";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let clear v = v.len <- 0

(* A store that [grow] allocates already holds [x] in every slot from
   [v.len] on, so only a resize within the capacity fills. *)
let resize v n x =
  if n < 0 then invalid_arg "Vec.resize: negative length";
  if n > v.len then
    if n > Array.length v.data then grow v n x else Array.fill v.data v.len (n - v.len) x;
  v.len <- n

let reserve v n =
  if Array.length v.data = 0 then v.want_cap <- max v.want_cap n
  else if n > Array.length v.data then grow v n v.data.(0)

let ensure_length v n x = if n > v.len then resize v n x

let append_array v a =
  let n = Array.length a in
  if n > 0 then begin
    grow v (v.len + n) a.(0);
    Array.blit a 0 v.data v.len n;
    v.len <- v.len + n
  end

let append v w =
  let n = w.len in
  if n > 0 then begin
    grow v (v.len + n) w.data.(0);
    Array.blit w.data 0 v.data v.len n;
    v.len <- v.len + n
  end

let blit src spos dst dpos n =
  if n < 0 || spos < 0 || dpos < 0 || spos + n > src.len || dpos + n > dst.len
  then invalid_arg "Vec.blit: range out of bounds";
  Array.blit src.data spos dst.data dpos n

let sub v pos n =
  if pos < 0 || n < 0 || pos + n > v.len then invalid_arg "Vec.sub";
  { data = Array.sub v.data pos n; len = n; want_cap = 0 }

let copy v = { data = Array.sub v.data 0 v.len; len = v.len; want_cap = 0 }
let to_array v = Array.sub v.data 0 v.len

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
  go (v.len - 1) []

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let map f v = { data = Array.init v.len (fun i -> f v.data.(i)); len = v.len; want_cap = 0 }

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0

let for_all p v = not (exists (fun x -> not (p x)) v)

let sort cmp v =
  (* Sort a dense copy: the backing store may have trailing slack. *)
  if v.len < Array.length v.data then begin
    let dense = Array.sub v.data 0 v.len in
    Array.sort cmp dense;
    Array.blit dense 0 v.data 0 v.len
  end
  else Array.sort cmp v.data

let equal eq a b =
  a.len = b.len
  &&
  let rec go i = i >= a.len || (eq a.data.(i) b.data.(i) && go (i + 1)) in
  go 0

let unsafe_data v = v.data
let unsafe_of_array a n = { data = a; len = n; want_cap = 0 }

let pp pp_elt fmt v =
  Format.fprintf fmt "[@[";
  iteri (fun i x -> if i > 0 then Format.fprintf fmt ";@ %a" pp_elt x else pp_elt fmt x) v;
  Format.fprintf fmt "@]]"
