(* Calendar event queue (Brown's calendar queue, made exact).

   The engine's event stream is mostly monotone: events are pushed at or
   slightly ahead of the simulation clock and popped in nondecreasing time
   order.  A calendar queue exploits this: events hash into time-width
   buckets, a push appends to its bucket in O(1), and a pop scans forward
   from the clock's bucket, usually finding the minimum within a step or
   two — no O(log n) sift, no per-entry heap record.

   Exactness.  Naive calendar queues compare entry times against
   floating-point bucket boundaries, which can misfile an entry whose
   [time /. width] rounds across a boundary and then dequeue a *larger*
   event first.  We avoid boundary arithmetic entirely: every entry is
   filed under its integer virtual bucket index
   [vi = trunc ((time - origin) / width)], and the dequeue scan compares
   entry [vi] values against the integer scan position.  [vi] is
   recomputed from the stored time wherever it is needed — [origin] and
   [inv_width] only change inside [rebucket], which rehashes every
   entry, so every recomputation evaluates the exact expression the
   entry was filed under and is bit-identical to it.  [vi] is monotone
   in [time] (division by a positive width and truncation both preserve
   order, and every [vi] comes from the same expression), equal times
   yield equal [vi], and equal [vi] means the same bucket.  Buckets are
   unsorted; a pop takes the (time, seq)-argmin of the first bucket
   whose minimum is due.  That entry is the global minimum: all
   remaining entries satisfy [vi >= scan position] (push enforces
   [time >= last popped]), every entry with the scan position's [vi]
   lives in the scanned bucket, and any entry with a larger [vi] has a
   strictly larger time.  So the queue pops in exact [(time, seq)] order
   — bit-identical to the binary heap it replaced (property-tested
   against the old heap, kept as test/binheap.ml, in
   test/test_engine_scale.ml).

   Memory layout.  The calendar is flat: every bucket owns [slot_cap]
   inline slots in three queue-wide arrays — a [float array] of times
   (unboxed storage, unboxed compares), an [int array] of packed
   [seq]/[owner] keys, and a closure array — plus a per-bucket count.
   A probe therefore touches a handful of flat-array cache lines and
   never chases a per-bucket record or per-bucket array headers.  The
   resize policy keeps mean occupancy at or below two entries per
   bucket, so the rare bucket that overflows its inline slots spills
   into a private growable side bag ([spill]); spill entries keep the
   inline slots full, so the common probe path never looks at the spill
   of a bucket holding at most [slot_cap] entries.

   The packed key is [(seq lsl owner_bits) lor (owner + 1)].  Seqs are
   unique (the engine's monotone counter), so comparing keys compares
   seqs; the owner rides in the low bits and is recovered on pop.  Push
   rejects out-of-range values loudly ([seq >= 2^42], [owner] outside
   [-1, 2^21 - 2]).

   Zero-alloc discipline.  Floats never cross a function boundary on the
   hot path (they would be boxed): push times travel through the
   [in_time] scratch cell, popped entries through the [out_*] cells; the
   located minimum travels through the [hit_b]/[hit_i] scratch fields (a
   tuple return would allocate); and helper recursions are top-level
   functions (a local recursive function allocates a closure per call).
   Hot-path array accesses use [Array.unsafe_get]/[Array.unsafe_set]:
   bucket indices come from [land mask], flat indices are
   [b * slot_cap + i] with [i] bounded by [blens.(b) <= slot_cap], spill
   indices are bounded by [s_len] — all in range by construction — and
   the whole protocol is differentially tested against the
   bounds-checked binary heap.  Cold paths (rebucket, growth, spills)
   stay bounds-checked.  A push/pop steady state allocates nothing —
   measured at 0.0 minor-heap words/event by the engine bench.

   Invariant.  Push times must be >= the time of the last popped entry
   (the simulation clock); the engine guarantees this (delays are
   non-negative), and [push] enforces it with [invalid_arg] so misuse is
   loud rather than silently unordered. *)

type event = unit -> unit

let nop () = ()

(* Inline slots per bucket.  Mean occupancy is kept <= 2 by the resize
   policy, so four slots make overflow the exception (~5% of buckets at
   the Poisson tail), not the rule. *)
let slot_cap = 4

(* Packed seq/owner key layout. *)
let owner_bits = 21
let owner_mask = (1 lsl owner_bits) - 1
let max_seq = 1 lsl 42

(* Overflow side bag of a single bucket; unsorted, swap-removed, kept
   only while the bucket holds more than [slot_cap] entries. *)
type spill = {
  mutable s_times : float array;
  mutable s_ints : int array; (* packed seq/owner keys *)
  mutable s_fns : event array;
  mutable s_len : int;
}

type t = {
  (* flat calendar: bucket [b]'s inline entry [i] lives at flat index
     [b * slot_cap + i] in [times]/[ints]/[fns] *)
  mutable times : float array;
  mutable ints : int array; (* packed seq/owner keys *)
  mutable fns : event array;
  mutable blens : Bytes.t;
  (* per bucket: INLINE entry count only (0..slot_cap, fits a byte — the
     whole table is a few KB and stays cache-resident).  Spill entries
     are not counted here: spill nonempty implies the inline slots are
     full, so a count below [slot_cap] also proves the spill is empty,
     and spill adds/removes never touch the byte. *)
  mutable spills : spill array; (* [sentinel] when the bucket never spilled *)
  sentinel : spill;
  mutable mask : int; (* bucket count - 1; count is a power of two *)
  mutable width : float; (* bucket time width *)
  mutable inv_width : float; (* 1.0 /. width, cached for the hot path *)
  origin : float array; (* [0]: anchor subtracted before bucketing *)
  last : float array; (* [0]: last popped time — the queue's clock floor *)
  mutable len : int;
  mutable peak : int;
  mutable resizes : int;
  mutable searches : int; (* direct-search fallbacks (sparse regions) *)
  (* scan-cost maintenance: bucket width is only right for the event
     density it was estimated from, and the density drifts as the
     simulation spreads out; these accumulate dequeue scan steps so pop
     can refresh the width when scans get long *)
  mutable scan_acc : int;
  mutable pop_acc : int;
  (* scratch for the allocation-free pop protocol *)
  mutable hit_b : int; (* bucket where find_min left the minimum *)
  mutable hit_i : int; (* < slot_cap: inline slot; else spill index + slot_cap *)
  out_time : float array;
  mutable out_key : int;
  mutable out_fn : event;
  (* scratch cell for the allocation-free push protocol: the push time
     travels here instead of as a function argument, because a float
     crossing a (non-inlined) call boundary is boxed *)
  in_time : float array;
}

let min_buckets = 16
let max_buckets = 1 lsl 18

let create () =
  let sentinel = { s_times = [||]; s_ints = [||]; s_fns = [||]; s_len = 0 } in
  {
    times = Array.make (min_buckets * slot_cap) 0.0;
    ints = Array.make (min_buckets * slot_cap) 0;
    fns = Array.make (min_buckets * slot_cap) nop;
    blens = Bytes.make min_buckets '\000';
    spills = Array.make min_buckets sentinel;
    sentinel;
    mask = min_buckets - 1;
    width = 1.0e-6 (* network-latency scale: the engine's typical event gap *);
    inv_width = 1.0e6;
    origin = [| 0.0 |];
    last = [| 0.0 |];
    len = 0;
    peak = 0;
    resizes = 0;
    searches = 0;
    scan_acc = 0;
    pop_acc = 0;
    hit_b = 0;
    hit_i = 0;
    out_time = [| 0.0 |];
    out_key = 0;
    out_fn = nop;
    in_time = [| 0.0 |];
  }

let length q = q.len
let is_empty q = q.len = 0
let stats q = (q.peak, q.resizes, q.searches)

(* ------------------------------------------------------------------ *)
(* Bucket primitives                                                   *)

let spill_grow s =
  let cap = Array.length s.s_times in
  let cap' = if cap = 0 then 4 else 2 * cap in
  let times = Array.make cap' 0.0 in
  let ints = Array.make cap' 0 in
  let fns = Array.make cap' nop in
  Array.blit s.s_times 0 times 0 s.s_len;
  Array.blit s.s_ints 0 ints 0 s.s_len;
  Array.blit s.s_fns 0 fns 0 s.s_len;
  s.s_times <- times;
  s.s_ints <- ints;
  s.s_fns <- fns

(* Append to bucket [b]; the entry time is in [q.in_time.(0)] (see the
   zero-alloc note).  Inline slots fill first; only an already-full
   bucket touches its spill. *)
let bucket_add q b ~key fn =
  let inl = Char.code (Bytes.unsafe_get q.blens b) in
  if inl < slot_cap then begin
    let f = (b * slot_cap) + inl in
    Array.unsafe_set q.times f (Array.unsafe_get q.in_time 0);
    Array.unsafe_set q.ints f key;
    Array.unsafe_set q.fns f fn;
    Bytes.unsafe_set q.blens b (Char.unsafe_chr (inl + 1))
  end
  else begin
    let s0 = q.spills.(b) in
    let s =
      if s0 != q.sentinel then s0
      else begin
        let s =
          { s_times = Array.make 4 0.0; s_ints = Array.make 4 0;
            s_fns = Array.make 4 nop; s_len = 0 }
        in
        q.spills.(b) <- s;
        s
      end
    in
    if s.s_len = Array.length s.s_times then spill_grow s;
    let k = s.s_len in
    s.s_times.(k) <- q.in_time.(0);
    s.s_ints.(k) <- key;
    s.s_fns.(k) <- fn;
    s.s_len <- k + 1
  end

(* (time, seq)-minimum of bucket [b], encoded as an inline slot
   (< slot_cap) or a spill index (+ slot_cap); [q.blens.(b) > 0].
   Top-level and loop-based: the pop path must not allocate. *)
let bucket_min q b =
  let inl = Char.code (Bytes.unsafe_get q.blens b) in
  let base = b * slot_cap in
  let bf = ref base in
  for f = base + 1 to base + inl - 1 do
    let j = !bf in
    if
      Array.unsafe_get q.times f < Array.unsafe_get q.times j
      || (Array.unsafe_get q.times f = Array.unsafe_get q.times j
          && Array.unsafe_get q.ints f < Array.unsafe_get q.ints j)
    then bf := f
  done;
  if inl < slot_cap then !bf - base
  else begin
    (* full inline slots: the spill may hold more ([sentinel] has
       [s_len = 0], so it falls through harmlessly) *)
    let s = q.spills.(b) in
    if s.s_len = 0 then !bf - base
    else begin
      let sk = ref 0 in
      for k = 1 to s.s_len - 1 do
        let j = !sk in
        if
          s.s_times.(k) < s.s_times.(j)
          || (s.s_times.(k) = s.s_times.(j) && s.s_ints.(k) < s.s_ints.(j))
        then sk := k
      done;
      let f = !bf and k = !sk in
      if
        s.s_times.(k) < q.times.(f)
        || (s.s_times.(k) = q.times.(f) && s.s_ints.(k) < q.ints.(f))
      then slot_cap + k
      else f - base
    end
  end

(* Accessors over the encoded entry index (rare paths may branch). *)
let entry_key q b e =
  if e < slot_cap then q.ints.((b * slot_cap) + e) else q.spills.(b).s_ints.(e - slot_cap)

(* Is the encoded entry due at scan position [vi]?  The virtual index is
   recomputed from the stored time by the exact expression push filed
   the entry under — [origin] and [inv_width] only change inside
   [rebucket], which rehashes every entry — so the recomputation is
   bit-identical to the filing index.  One comparison per branch so no
   float ever crosses a boundary boxed. *)
let entry_due q b e vi =
  if e < slot_cap then
    int_of_float
      ((Array.unsafe_get q.times ((b * slot_cap) + e) -. Array.unsafe_get q.origin 0)
      *. q.inv_width)
    <= vi
  else
    int_of_float ((q.spills.(b).s_times.(e - slot_cap) -. q.origin.(0)) *. q.inv_width) <= vi

(* Remove the encoded entry, filling the hole from the bucket's last
   entry.  An inline hole refills from the spill first, so spill entries
   exist only while the inline slots are full — the common probe path of
   a <= slot_cap bucket never reads its spill. *)
let bucket_remove q b e =
  let inl = Char.code (Bytes.unsafe_get q.blens b) in
  if e < slot_cap then begin
    let f = (b * slot_cap) + e in
    let s = if inl = slot_cap then q.spills.(b) else q.sentinel in
    if s.s_len > 0 then begin
      (* refill the inline hole from the spill so spill entries only
         exist while the inline slots are full; the byte is unchanged *)
      let k = s.s_len - 1 in
      q.times.(f) <- s.s_times.(k);
      q.ints.(f) <- s.s_ints.(k);
      q.fns.(f) <- s.s_fns.(k);
      s.s_fns.(k) <- nop;
      (* drop the closure reference *)
      s.s_len <- k
    end
    else begin
      let l = (b * slot_cap) + inl - 1 in
      Array.unsafe_set q.times f (Array.unsafe_get q.times l);
      Array.unsafe_set q.ints f (Array.unsafe_get q.ints l);
      Array.unsafe_set q.fns f (Array.unsafe_get q.fns l);
      Array.unsafe_set q.fns l nop;
      Bytes.unsafe_set q.blens b (Char.unsafe_chr (inl - 1))
    end
  end
  else begin
    let s = q.spills.(b) in
    let k = e - slot_cap in
    let l = s.s_len - 1 in
    s.s_times.(k) <- s.s_times.(l);
    s.s_ints.(k) <- s.s_ints.(l);
    s.s_fns.(k) <- s.s_fns.(l);
    s.s_fns.(l) <- nop;
    s.s_len <- l
  end

(* ------------------------------------------------------------------ *)
(* Resizing                                                            *)

(* Rebuild with [n] buckets and a width estimated from the current
   contents: twice the mean gap in the near-future window the dequeue
   scan is about to traverse.  The window is found with two unboxed
   passes (min/max, then a count near the minimum) — no sort, no boxed
   compares, so a rebucket costs O(len) flat.  Degenerate spreads (all
   ties, or a single entry) keep the previous width.  A width estimated
   too small is self-correcting (long dequeue scans trip the maintenance
   rebucket in [pop]); the near-head window guards against the
   non-self-correcting direction, a width too wide for a dense region. *)
let rebucket q n =
  let len = q.len in
  let times = Array.make (max 1 len) 0.0 in
  let keys = Array.make (max 1 len) 0 in
  let fns = Array.make (max 1 len) nop in
  let k = ref 0 in
  let old_n = q.mask + 1 in
  for b = 0 to old_n - 1 do
    let inl = Char.code (Bytes.get q.blens b) in
    if inl > 0 then begin
      let base = b * slot_cap in
      for i = 0 to inl - 1 do
        times.(!k) <- q.times.(base + i);
        keys.(!k) <- q.ints.(base + i);
        fns.(!k) <- q.fns.(base + i);
        incr k
      done;
      if inl = slot_cap then begin
        let s = q.spills.(b) in
        for i = 0 to s.s_len - 1 do
          times.(!k) <- s.s_times.(i);
          keys.(!k) <- s.s_ints.(i);
          fns.(!k) <- s.s_fns.(i);
          incr k
        done;
        if s.s_len > 0 then begin
          Array.fill s.s_fns 0 (Array.length s.s_fns) nop;
          s.s_len <- 0
        end
      end
    end
  done;
  (if len >= 2 then begin
     let tmin = ref times.(0) and tmax = ref times.(0) in
     for i = 1 to len - 1 do
       if times.(i) < !tmin then tmin := times.(i);
       if times.(i) > !tmax then tmax := times.(i)
     done;
     let span = !tmax -. !tmin in
     if span > 0.0 then begin
       (* near-head density: count entries in a window sized to hold ~256
          of them if the spread were uniform, then take the mean gap
          actually observed there *)
       let window = span *. Float.min 1.0 (256.0 /. float_of_int len) in
       let limit = !tmin +. window in
       let c = ref 0 in
       for i = 0 to len - 1 do
         if times.(i) <= limit then incr c
       done;
       let w = 2.0 *. window /. float_of_int (max 2 !c) in
       if w > 0.0 then begin
         q.width <- Float.max 1e-12 (Float.min w 1e9);
         q.inv_width <- 1.0 /. q.width
       end
     end
   end);
  if old_n <> n then begin
    q.times <- Array.make (n * slot_cap) 0.0;
    q.ints <- Array.make (n * slot_cap) 0;
    q.fns <- Array.make (n * slot_cap) nop;
    q.blens <- Bytes.make n '\000';
    q.spills <- Array.make n q.sentinel
  end
  else begin
    Array.fill q.fns 0 (n * slot_cap) nop;
    Bytes.fill q.blens 0 n '\000'
  end;
  q.mask <- n - 1;
  (* re-anchor so virtual indices restart near zero *)
  q.origin.(0) <- q.last.(0);
  q.resizes <- q.resizes + 1;
  q.scan_acc <- 0;
  q.pop_acc <- 0;
  for i = 0 to len - 1 do
    q.in_time.(0) <- times.(i);
    let vi = int_of_float ((q.in_time.(0) -. q.origin.(0)) *. q.inv_width) in
    bucket_add q (vi land q.mask) ~key:keys.(i) fns.(i)
  done

(* ------------------------------------------------------------------ *)
(* Push                                                                *)

(* The push time is in [q.in_time.(0)]. *)
let push_cell q ~seq ~owner fn =
  if not (q.in_time.(0) >= q.last.(0)) then
    invalid_arg "Pqueue.push: time before the last popped entry (or NaN)";
  if seq < 0 || seq >= max_seq then invalid_arg "Pqueue.push: seq out of range";
  if owner < -1 || owner >= owner_mask then invalid_arg "Pqueue.push: owner out of range";
  let key = (seq lsl owner_bits) lor (owner + 1) in
  let vi = int_of_float ((q.in_time.(0) -. q.origin.(0)) *. q.inv_width) in
  bucket_add q (vi land q.mask) ~key fn;
  q.len <- q.len + 1;
  if q.len > q.peak then q.peak <- q.len;
  let n = q.mask + 1 in
  if q.len > 2 * n && n < max_buckets then rebucket q (2 * n)

let push q ~time ~seq ~owner fn =
  q.in_time.(0) <- time;
  push_cell q ~seq ~owner fn

(* Allocation-free relative push: the sum lands in the scratch cell as an
   unboxed float-array store, so no boxed float is ever materialized. *)
let push_after q ~base ~delay ~seq ~owner fn =
  q.in_time.(0) <- base.(0) +. delay;
  push_cell q ~seq ~owner fn

(* ------------------------------------------------------------------ *)
(* Pop                                                                 *)

(* Locate the bucket holding the global (time, seq) minimum and leave it
   in [q.hit_b]/[q.hit_i] (scratch fields — a tuple return would
   allocate).  Scan virtual indices upward from the clock's bucket: every
   remaining entry has [vi >=] the scan start (push enforces time >=
   last, vi is monotone in time), all entries sharing the scan position's
   [vi] live in its bucket, and any entry with a larger [vi] has a
   strictly larger time — so the first scanned bucket whose
   (time, seq)-min is due (entry [vi <=] scan position) holds the global
   minimum.  If a whole lap finds nothing due, the queue is sparse: fall
   back to a direct min scan over every bucket. *)
let direct_search q n =
  q.searches <- q.searches + 1;
  q.scan_acc <- q.scan_acc + n;
  let bb = ref (-1) and be = ref 0 in
  for b = 0 to n - 1 do
    if Char.code (Bytes.get q.blens b) > 0 then begin
      let m = bucket_min q b in
      if !bb < 0 then begin
        bb := b;
        be := m
      end
      else begin
        let tb = if m < slot_cap then q.times.((b * slot_cap) + m)
                 else q.spills.(b).s_times.(m - slot_cap)
        and tc = if !be < slot_cap then q.times.((!bb * slot_cap) + !be)
                 else q.spills.(!bb).s_times.(!be - slot_cap) in
        if tb < tc || (tb = tc && entry_key q b m < entry_key q !bb !be) then begin
          bb := b;
          be := m
        end
      end
    end
  done;
  q.hit_b <- !bb;
  q.hit_i <- !be

(* Top-level (not a local closure — the pop path must not allocate).
   Singleton buckets — the common case at occupancy <= 2 — skip the
   argmin scan entirely. *)
let rec scan_from q n vi steps =
  if steps = n then direct_search q n
  else begin
    let b = vi land q.mask in
    let inl = Char.code (Bytes.unsafe_get q.blens b) in
    if inl = 1 then begin
      if
        int_of_float
          ((Array.unsafe_get q.times (b * slot_cap) -. Array.unsafe_get q.origin 0)
          *. q.inv_width)
        <= vi
      then begin
        q.scan_acc <- q.scan_acc + steps;
        q.hit_b <- b;
        q.hit_i <- 0
      end
      else scan_from q n (vi + 1) (steps + 1)
    end
    else if inl > 1 then begin
      let m = bucket_min q b in
      if entry_due q b m vi then begin
        q.scan_acc <- q.scan_acc + steps;
        q.hit_b <- b;
        q.hit_i <- m
      end
      else scan_from q n (vi + 1) (steps + 1)
    end
    else scan_from q n (vi + 1) (steps + 1)
  end

let find_min q =
  let n = q.mask + 1 in
  scan_from q n (int_of_float ((q.last.(0) -. q.origin.(0)) *. q.inv_width)) 0

let pop q =
  if q.len = 0 then false
  else begin
    find_min q;
    let b = q.hit_b and e = q.hit_i in
    (if e < slot_cap then begin
       let f = (b * slot_cap) + e in
       Array.unsafe_set q.out_time 0 (Array.unsafe_get q.times f);
       q.out_key <- Array.unsafe_get q.ints f;
       q.out_fn <- Array.unsafe_get q.fns f
     end
     else begin
       let s = q.spills.(b) in
       let k = e - slot_cap in
       q.out_time.(0) <- s.s_times.(k);
       q.out_key <- s.s_ints.(k);
       q.out_fn <- s.s_fns.(k)
     end);
    bucket_remove q b e;
    q.last.(0) <- q.out_time.(0);
    q.len <- q.len - 1;
    q.pop_acc <- q.pop_acc + 1;
    let n = q.mask + 1 in
    if q.len * 4 < n && n > min_buckets then rebucket q (n / 2)
    else if
      (* virtual indices grow with simulated time; re-anchor long before
         [int_of_float] could overflow on a long-running simulation *)
      (q.last.(0) -. q.origin.(0)) *. q.inv_width > 1e15
    then rebucket q n
    else if q.pop_acc >= 128 then begin
      (* width maintenance: the estimated width only matches the event
         density it was sampled from, and the density drifts as the
         simulation spreads out.  When scans average over ~2 steps per
         pop, a same-size rebucket (which re-estimates the width and
         re-anchors the origin) is cheaper than keeping on walking
         stale-width buckets. *)
      if q.scan_acc > 2 * q.pop_acc && q.len > 0 then rebucket q n
      else begin
        q.scan_acc <- 0;
        q.pop_acc <- 0
      end
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
  if pop q then
    Some (q.out_time.(0), q.out_key lsr owner_bits, (q.out_key land owner_mask) - 1, q.out_fn)
  else None

let peek_time q =
  if q.len = 0 then None
  else begin
    find_min q;
    let b = q.hit_b and e = q.hit_i in
    if e < slot_cap then Some q.times.((b * slot_cap) + e)
    else Some q.spills.(b).s_times.(e - slot_cap)
  end
