module V = Ds.Vec
module D = Mpisim.Datatype

(* Ranks are laid out row-major in a [rows x cols] grid whose last row may
   be partial.  A message src -> dst is routed to the intermediate rank
   (row src, col dst); when that slot does not exist (src in the partial
   last row, col dst beyond its width) the slot directly above is used —
   still in dst's column, so phase 2 stays a pure column exchange.

   Phase-1 partner sets are therefore: the own row, widened by the partial
   last row for its upstairs neighbours.  Both phases exchange counts first
   (one small message per partner), then the payloads — O(sqrt p) messages
   per rank in total. *)

type t = {
  comm : Kamping.Comm.t;
  cols : int;
  rows : int;
  phase1_send : int array;  (* potential intermediates I may send to *)
  phase1_recv : int array;  (* ranks whose phase-1 messages I may receive *)
  phase2_peers : int array;  (* my column, both directions *)
  mutable seq : int;
}

let row_of cols r = r / cols
let col_of cols r = r mod cols

let row_members ~p ~cols row =
  let lo = row * cols in
  let hi = min p (lo + cols) in
  Array.init (hi - lo) (fun i -> lo + i)

let col_members ~p ~cols col =
  let rec go r acc = if r >= p then List.rev acc else go (r + cols) (r :: acc) in
  Array.of_list (go col [])

let create comm =
  let p = Kamping.Comm.size comm and r = Kamping.Comm.rank comm in
  let cols = int_of_float (ceil (sqrt (float_of_int p))) in
  let rows = (p + cols - 1) / cols in
  let last_row_partial = p mod cols <> 0 in
  let my_row = row_of cols r in
  let phase1_send =
    if last_row_partial && my_row = rows - 1 then
      Array.append (row_members ~p ~cols my_row) (row_members ~p ~cols (rows - 2))
    else row_members ~p ~cols my_row
  in
  let phase1_recv =
    if last_row_partial && my_row = rows - 2 then
      Array.append (row_members ~p ~cols my_row) (row_members ~p ~cols (rows - 1))
    else row_members ~p ~cols my_row
  in
  let phase2_peers = col_members ~p ~cols (col_of cols r) in
  (* Building the grid is collective: synchronize like a topology create. *)
  Kamping.Comm.barrier comm;
  { comm; cols; rows; phase1_send; phase1_recv; phase2_peers; seq = 0 }

let columns grid = grid.cols
let rows grid = grid.rows

(* The bucket of key [k], created empty on first use. *)
let bucket tbl k =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = V.create () in
      Hashtbl.add tbl k v;
      v

let alltoallv grid dt ~send_buf ~send_counts =
  let comm = grid.comm in
  let p = Kamping.Comm.size comm and r = Kamping.Comm.rank comm in
  if Array.length send_counts <> p then
    Mpisim.Errors.usage "grid_alltoall: send_counts must have one entry per rank";
  let fill = Indirect.default_fill ~who:"grid_alltoall" dt in
  grid.seq <- grid.seq + 1;
  let base = 0x600000 + (4 * grid.seq) in
  let dt_routed = D.pair D.int dt in
  (* Phase 1: bucket (dst, elem) pairs by intermediate. *)
  let buckets : (int, (int * 'a) V.t) Hashtbl.t = Hashtbl.create 8 in
  let pos = ref 0 in
  Array.iteri
    (fun dst count ->
      if count > 0 then begin
        let i = (row_of grid.cols r * grid.cols) + col_of grid.cols dst in
        let i = if i < p then i else i - grid.cols in
        let b = bucket buckets i in
        for k = 0 to count - 1 do
          V.push b (dst, V.get send_buf (!pos + k))
        done
      end;
      pos := !pos + count)
    send_counts;
  Kamping.Comm.compute comm (Kamping.Costs.linear (V.length send_buf));
  let received1 =
    Indirect.phase_exchange comm dt_routed ~fill:(0, fill) ~send_to:grid.phase1_send
      ~recv_from:grid.phase1_recv ~outgoing:(Hashtbl.find_opt buckets) ~count_tag:base
      ~data_tag:(base + 1)
  in
  (* Phase 2: re-bucket by final destination, tagging the true origin. *)
  let buckets2 : (int, (int * 'a) V.t) Hashtbl.t = Hashtbl.create 8 in
  (* Self-messages flow through the same path (the cost model makes them a
     cheap memcpy), so phase 1's result already includes what stayed put. *)
  List.iter
    (fun (src, arr) -> Array.iter (fun (d, x) -> V.push (bucket buckets2 d) (src, x)) arr)
    received1;
  let received2 =
    Indirect.phase_exchange comm dt_routed ~fill:(0, fill) ~send_to:grid.phase2_peers
      ~recv_from:grid.phase2_peers ~outgoing:(Hashtbl.find_opt buckets2) ~count_tag:(base + 2)
      ~data_tag:(base + 3)
  in
  (* Assemble the result grouped by origin. *)
  let collected : (int * 'a) V.t = V.create () in
  List.iter (fun (_, arr) -> Array.iter (V.push collected) arr) received2;
  Indirect.group_by_source comm ~fill ~source:fst ~value:snd collected
