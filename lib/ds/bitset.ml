type t = { words : int array; n : int }

let bits_per_word = Sys.int_size

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; n }

let check b i = if i < 0 || i >= b.n then invalid_arg "Bitset: index out of bounds"

let set b i =
  check b i;
  let w = i / bits_per_word and j = i mod bits_per_word in
  b.words.(w) <- b.words.(w) lor (1 lsl j)

let clear b i =
  check b i;
  let w = i / bits_per_word and j = i mod bits_per_word in
  b.words.(w) <- b.words.(w) land lnot (1 lsl j)

let mem b i =
  check b i;
  let w = i / bits_per_word and j = i mod bits_per_word in
  b.words.(w) land (1 lsl j) <> 0

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let count b = Array.fold_left (fun acc w -> acc + popcount w) 0 b.words

let iter_set f b =
  for w = 0 to Array.length b.words - 1 do
    let word = b.words.(w) in
    if word <> 0 then
      for j = 0 to bits_per_word - 1 do
        if word land (1 lsl j) <> 0 then f ((w * bits_per_word) + j)
      done
  done

let fill b =
  Array.fill b.words 0 (Array.length b.words) (-1);
  (* Mask the tail word so that [count] stays within capacity. *)
  let tail = b.n mod bits_per_word in
  if tail <> 0 && Array.length b.words > 0 then
    b.words.(Array.length b.words - 1) <- (1 lsl tail) - 1

let reset b = Array.fill b.words 0 (Array.length b.words) 0
let copy b = { words = Array.copy b.words; n = b.n }
let equal a b = a.n = b.n && a.words = b.words
