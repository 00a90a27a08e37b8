(* The engine's original boxed-record binary heap, kept verbatim as the
   differential oracle for the event queue (test/test_engine_scale.ml).
   Do not "improve" this module: its value is that it is independent,
   bounds-checked code. *)

type 'a entry = { time : float; seq : int; value : 'a }
type 'a t = { mutable heap : 'a entry array; mutable len : int }

let create () = { heap = [||]; len = 0 }
let length q = q.len
let is_empty q = q.len = 0

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.len && lt q.heap.(l) q.heap.(!smallest) then smallest := l;
  if r < q.len && lt q.heap.(r) q.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q ~time ~seq value =
  let e = { time; seq; value } in
  if q.len = Array.length q.heap then begin
    let cap = max 16 (2 * q.len) in
    let heap = Array.make cap e in
    Array.blit q.heap 0 heap 0 q.len;
    q.heap <- heap
  end;
  q.heap.(q.len) <- e;
  q.len <- q.len + 1;
  sift_up q (q.len - 1)

let pop_min q =
  if q.len = 0 then None
  else begin
    let min = q.heap.(0) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      q.heap.(0) <- q.heap.(q.len);
      sift_down q 0
    end;
    Some (min.time, min.seq, min.value)
  end

let peek_time q = if q.len = 0 then None else Some q.heap.(0).time
