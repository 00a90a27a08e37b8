type t = {
  capacity : int;
  table : (int, int) Hashtbl.t;
  mutable lookups : int;
  mutable hits : int;
}

let create ~capacity () =
  if capacity < 0 then Mpisim.Errors.usage "Cache: negative capacity %d" capacity;
  { capacity; table = Hashtbl.create (max 16 capacity); lookups = 0; hits = 0 }

let find t k =
  if t.capacity = 0 then None
  else begin
    t.lookups <- t.lookups + 1;
    match Hashtbl.find_opt t.table k with
    | Some v ->
        t.hits <- t.hits + 1;
        Some v
    | None -> None
  end

let insert t ~key ~value =
  if t.capacity > 0 then begin
    if (not (Hashtbl.mem t.table key)) && Hashtbl.length t.table >= t.capacity then begin
      (* evict the largest (Zipf-coldest) key — deterministic *)
      let victim = Hashtbl.fold (fun k _ acc -> Int.max k acc) t.table min_int in
      Hashtbl.remove t.table victim
    end;
    Hashtbl.replace t.table key value
  end

let invalidate t k = Hashtbl.remove t.table k
let clear t = Hashtbl.reset t.table
let lookups t = t.lookups
let hits t = t.hits
