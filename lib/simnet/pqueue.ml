(* Binary min-heap event queue in exact (time, seq) order.

   Three parallel arrays hold the heap: unboxed float times, packed
   seq/owner keys and the event closures; slot [i]'s children are
   [2i + 1] and [2i + 2].  Push moves a hole up from the end; pop moves
   the last entry into the root's hole and sifts it down.  The arrays
   grow by doubling and never shrink, and a vacated slot's closure is
   cleared so the queue keeps no popped event's captures alive.

   This replaced a Brown calendar queue, which won on a smooth synthetic
   load but not on the bursty real ones: each alltoall round of the
   bfs_rgg benchmark fills the queue from empty to ~8k entries and
   drains it, and the calendar rebuilt its buckets 1,334 times per job
   (21% of host samples), allocating fresh arrays each time.  On the
   heap, bfs_rgg allocates 62.0 instead of 92.6 Mwords per job.

   The key is [(seq lsl owner_bits) lor (owner + 1)]: seqs are unique
   (the engine's counter), so comparing keys compares seqs, and the
   owner is recovered on pop.  Floats never cross a function boundary
   on the hot path (they would be boxed): push times travel through the
   [in_time] cell, popped entries through the [out_*] cells, and the
   sift loops work on local floats, so push and pop allocate nothing.
   Heap indices stay below [len], so the loops use unsafe array access;
   test/binheap.ml is the bounds-checked reference heap they are
   differentially tested against.  Push times must be >= the last
   popped time (the simulation clock); [push] enforces it. *)

type event = unit -> unit

let nop () = ()

(* Packed seq/owner key layout. *)
let owner_bits = 21
let owner_mask = (1 lsl owner_bits) - 1
let max_seq = 1 lsl 42

type t = {
  mutable times : float array;
  mutable keys : int array; (* packed seq/owner keys *)
  mutable fns : event array;
  mutable len : int;
  mutable peak : int;
  last : float array; (* [0]: last popped time — the queue's clock floor *)
  (* scratch cells of the allocation-free protocol *)
  in_time : float array;
  out_time : float array;
  mutable out_key : int;
  mutable out_fn : event;
}

let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0.0;
    keys = Array.make initial_capacity 0;
    fns = Array.make initial_capacity nop;
    len = 0;
    peak = 0;
    last = [| 0.0 |];
    in_time = [| 0.0 |];
    out_time = [| 0.0 |];
    out_key = 0;
    out_fn = nop;
  }

let length q = q.len
let is_empty q = q.len = 0
let peak q = q.peak

let grow q =
  let cap = 2 * Array.length q.times in
  let times = Array.make cap 0.0 and keys = Array.make cap 0 and fns = Array.make cap nop in
  Array.blit q.times 0 times 0 q.len;
  Array.blit q.keys 0 keys 0 q.len;
  Array.blit q.fns 0 fns 0 q.len;
  q.times <- times;
  q.keys <- keys;
  q.fns <- fns

(* The push time is in [q.in_time.(0)]. *)
let push_cell q ~seq ~owner fn =
  let time = Array.unsafe_get q.in_time 0 in
  if not (time >= q.last.(0)) then
    invalid_arg "Pqueue.push: time before the last popped entry (or NaN)";
  if seq < 0 || seq >= max_seq then invalid_arg "Pqueue.push: seq out of range";
  if owner < -1 || owner >= owner_mask then invalid_arg "Pqueue.push: owner out of range";
  let key = (seq lsl owner_bits) lor (owner + 1) in
  if q.len = Array.length q.times then grow q;
  let times = q.times and keys = q.keys and fns = q.fns in
  let i = ref q.len in
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = Array.unsafe_get times p in
    if time < tp || (time = tp && key < Array.unsafe_get keys p) then begin
      Array.unsafe_set times !i tp;
      Array.unsafe_set keys !i (Array.unsafe_get keys p);
      Array.unsafe_set fns !i (Array.unsafe_get fns p);
      i := p
    end
    else sifting := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set keys !i key;
  Array.unsafe_set fns !i fn;
  q.len <- q.len + 1;
  if q.len > q.peak then q.peak <- q.len

let push q ~time ~seq ~owner fn =
  q.in_time.(0) <- time;
  push_cell q ~seq ~owner fn

(* Allocation-free relative push: the sum lands in the scratch cell as an
   unboxed float-array store, so no boxed float is ever materialized. *)
let push_after q ~base ~delay ~seq ~owner fn =
  q.in_time.(0) <- base.(0) +. delay;
  push_cell q ~seq ~owner fn

let pop q =
  if q.len = 0 then false
  else begin
    let times = q.times and keys = q.keys and fns = q.fns in
    Array.unsafe_set q.out_time 0 (Array.unsafe_get times 0);
    Array.unsafe_set q.last 0 (Array.unsafe_get times 0);
    q.out_key <- Array.unsafe_get keys 0;
    q.out_fn <- Array.unsafe_get fns 0;
    let n = q.len - 1 in
    q.len <- n;
    (* the last entry leaves its slot and sifts down from the root *)
    let time = Array.unsafe_get times n and key = Array.unsafe_get keys n in
    let fn = Array.unsafe_get fns n in
    Array.unsafe_set fns n nop;
    if n > 0 then begin
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let r = l + 1 in
          let c =
            if r < n
               && (let tl = Array.unsafe_get times l and tr = Array.unsafe_get times r in
                   tr < tl || (tr = tl && Array.unsafe_get keys r < Array.unsafe_get keys l))
            then r
            else l
          in
          let tc = Array.unsafe_get times c in
          if tc < time || (tc = time && Array.unsafe_get keys c < key) then begin
            Array.unsafe_set times !i tc;
            Array.unsafe_set keys !i (Array.unsafe_get keys c);
            Array.unsafe_set fns !i (Array.unsafe_get fns c);
            i := c
          end
          else sifting := false
        end
      done;
      Array.unsafe_set times !i time;
      Array.unsafe_set keys !i key;
      Array.unsafe_set fns !i fn
    end;
    true
  end

let popped_seq q = q.out_key lsr owner_bits
let popped_owner q = (q.out_key land owner_mask) - 1
let popped_event q = q.out_fn
let popped_time q = q.out_time.(0)
let popped_time_beyond q limit = q.out_time.(0) > limit
let write_popped_time q cell = cell.(0) <- q.out_time.(0)

let pop_min q =
  if pop q then Some (q.out_time.(0), popped_seq q, popped_owner q, q.out_fn) else None

let peek_time q = if q.len = 0 then None else Some q.times.(0)
