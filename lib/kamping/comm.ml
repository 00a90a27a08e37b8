module C = Mpisim.Collectives
module D = Mpisim.Datatype
module P = Mpisim.P2p
module V = Ds.Vec

type t = { c : Mpisim.Comm.t }

type 'a vresult = {
  recv_buf : 'a V.t;
  recv_counts : int array option;
  recv_displs : int array option;
  send_displs : int array option;
}

let wrap c = { c }
let raw t = t.c
let rank t = Mpisim.Comm.rank t.c
let size t = Mpisim.Comm.size t.c
let is_root ?(root = 0) t = rank t = root
let now t = Mpisim.Comm.now t.c
let compute t s = Mpisim.Comm.compute t.c s
let default_tag = 0

(* ---------------- tracing accessors ---------------- *)

let tracing t = Mpisim.Observe.tracing t.c
let with_region t name f = Mpisim.Observe.span ~ctx:User User t.c name f

(* ---------------- helpers ---------------- *)

(* Total extent of a (counts, displs) layout; with user displacements the
   blocks may be permuted, so take the max end. *)
let layout_end counts displs =
  let hi = ref 0 in
  Array.iteri (fun i c -> hi := max !hi (displs.(i) + c)) counts;
  !hi

(* A witness element for allocating typed buffers: from the datatype's
   default, else from any non-empty candidate buffer. *)
let filler dt candidates =
  match D.default_elt dt with
  | Some d -> d
  | None -> begin
      match List.find_opt (fun v -> V.length v > 0) candidates with
      | Some v -> V.get v 0
      | None ->
          Mpisim.Errors.usage
            "cannot allocate a receive buffer for datatype %s: create it with ~default"
            (D.name dt)
    end

(* Resolve the receive buffer and policy: a caller-supplied buffer defaults
   to No_resize (the library never reallocates behind the caller's back); a
   fresh buffer is resized to fit. *)
let prepare_recv_full ?recv_buf ?recv_policy dt ~needed ~samples =
  let vec, policy =
    match (recv_buf, recv_policy) with
    | Some v, Some p -> (v, p)
    | Some v, None -> (v, Resize_policy.No_resize)
    | None, p -> (V.create (), Option.value p ~default:Resize_policy.Resize_to_fit)
  in
  let fill = filler dt (samples @ [ vec ]) in
  let arr = Resize_policy.prepare policy vec ~needed ~filler:fill in
  (vec, arr, policy)

let prepare_recv ?recv_buf ?recv_policy dt ~needed ~samples =
  let vec, arr, _ = prepare_recv_full ?recv_buf ?recv_policy dt ~needed ~samples in
  (vec, arr)

(* After a receive completed with [actual] elements: [Resize_to_fit]
   trims the vector to the true size, [Grow_only] keeps only the growth
   the data needed (never below the caller's length [before]), and
   [No_resize] never resizes. *)
let fit_to_actual policy dt vec ~before actual =
  let n =
    match policy with
    | Resize_policy.Resize_to_fit -> actual
    | Grow_only -> max before actual
    | No_resize -> V.length vec
  in
  if V.length vec <> n then V.resize vec n (filler dt [ vec ])

(* The message is built only on failure: a valid call allocates nothing. *)
let check_counts_array t what counts =
  if Assertions.enabled Light && Array.length counts <> size t then
    Mpisim.Errors.usage "%s: counts array must have one entry per rank" what

(* ---------------- collectives ---------------- *)

let pin_algorithm t ~coll ~algo = C.pin_algorithm t.c ~coll ~algo
let unpin_algorithm t ~coll = C.unpin_algorithm t.c ~coll
let pinned_algorithm t ~coll = C.pinned_algorithm t.c ~coll
let pin_table_algorithm t ~coll table = C.pin_table_algorithm t.c ~coll table
let pinned_table_algorithm t ~coll = C.pinned_table_algorithm t.c ~coll
let barrier t = C.barrier t.c

let bcast ?(root = 0) t dt ~send_recv_buf =
  let count = V.length send_recv_buf in
  Assertions.heavy_check_uniform t.c count ~what:"bcast count";
  C.bcast t.c dt (V.unsafe_data send_recv_buf) ~count ~root

let bcast_single ?(root = 0) t dt v =
  let box = [| v |] in
  C.bcast t.c dt box ~count:1 ~root;
  box.(0)

let gather ?(root = 0) ?recv_buf ?recv_policy t dt ~send_buf =
  let count = V.length send_buf in
  Assertions.heavy_check_uniform t.c count ~what:"gather count";
  if rank t = root then begin
    let vec, arr =
      prepare_recv ?recv_buf ?recv_policy dt ~needed:(size t * count) ~samples:[ send_buf ]
    in
    C.gather t.c dt ~sendbuf:(V.unsafe_data send_buf) ~recvbuf:arr ~count ~root;
    vec
  end
  else begin
    C.gather t.c dt ~sendbuf:(V.unsafe_data send_buf) ~count ~root;
    match recv_buf with Some v -> v | None -> V.create ()
  end

let gatherv ?(root = 0) ?recv_counts ?recv_displs ?recv_buf ?recv_policy
    ?(recv_counts_out = false) ?(recv_displs_out = false) t dt ~send_buf =
  let scount = V.length send_buf in
  let i_am_root = rank t = root in
  let counts =
    match recv_counts with
    | Some c ->
        if i_am_root then check_counts_array t "gatherv" c;
        Some c
    | None ->
        (* Default computation: gather the per-rank send counts. *)
        let rc = if i_am_root then Array.make (size t) 0 else [||] in
        if i_am_root then
          C.gather t.c D.int ~sendbuf:[| scount |] ~recvbuf:rc ~count:1 ~root
        else C.gather t.c D.int ~sendbuf:[| scount |] ~count:1 ~root;
        if i_am_root then Some rc else None
  in
  if i_am_root then begin
    let counts = Option.get counts in
    let displs = match recv_displs with Some d -> d | None -> C.exclusive_scan counts in
    let vec, arr =
      prepare_recv ?recv_buf ?recv_policy dt ~needed:(layout_end counts displs)
        ~samples:[ send_buf ]
    in
    C.gatherv t.c dt ~sendbuf:(V.unsafe_data send_buf) ~scount ~recvbuf:arr ~rcounts:counts
      ~rdispls:displs ~root;
    {
      recv_buf = vec;
      recv_counts = (if recv_counts_out then Some counts else None);
      recv_displs = (if recv_displs_out then Some displs else None);
      send_displs = None;
    }
  end
  else begin
    C.gatherv t.c dt ~sendbuf:(V.unsafe_data send_buf) ~scount ~root;
    {
      recv_buf = (match recv_buf with Some v -> v | None -> V.create ());
      recv_counts = None;
      recv_displs = None;
      send_displs = None;
    }
  end

let allgather ?recv_buf ?recv_policy t dt ~send_buf =
  let count = V.length send_buf in
  Assertions.heavy_check_uniform t.c count ~what:"allgather count";
  let vec, arr =
    prepare_recv ?recv_buf ?recv_policy dt ~needed:(size t * count) ~samples:[ send_buf ]
  in
  C.allgather t.c dt ~sendbuf:(V.unsafe_data send_buf) ~recvbuf:arr ~count;
  vec

let allgather_inplace t dt ~send_recv_buf =
  let p = size t in
  Assertions.check Light
    (fun () -> V.length send_recv_buf mod p = 0)
    "allgather_inplace: buffer length must be a multiple of the communicator size";
  let count = V.length send_recv_buf / p in
  C.allgather ~inplace:true t.c dt ~sendbuf:[||] ~recvbuf:(V.unsafe_data send_recv_buf) ~count

let allgatherv ?recv_counts ?recv_displs ?recv_buf ?recv_policy ?(recv_counts_out = false)
    ?(recv_displs_out = false) t dt ~send_buf =
  let scount = V.length send_buf in
  let counts =
    match recv_counts with
    | Some c ->
        check_counts_array t "allgatherv" c;
        c
    | None ->
        (* Default computation (Fig. 2): allgather of the send counts. *)
        let c = Array.make (size t) 0 in
        C.allgather t.c D.int ~sendbuf:[| scount |] ~recvbuf:c ~count:1;
        c
  in
  let displs = match recv_displs with Some d -> d | None -> C.exclusive_scan counts in
  let vec, arr =
    prepare_recv ?recv_buf ?recv_policy dt ~needed:(layout_end counts displs) ~samples:[ send_buf ]
  in
  C.allgatherv t.c dt ~sendbuf:(V.unsafe_data send_buf) ~scount ~recvbuf:arr ~rcounts:counts
    ~rdispls:displs;
  {
    recv_buf = vec;
    recv_counts = (if recv_counts_out then Some counts else None);
    recv_displs = (if recv_displs_out then Some displs else None);
    send_displs = None;
  }

let scatter ?(root = 0) ?send_buf ?recv_count ?recv_buf ?recv_policy t dt =
  let i_am_root = rank t = root in
  let sb =
    if i_am_root then
      match send_buf with
      | Some v -> v
      | None -> Mpisim.Errors.usage "scatter: the root rank needs ~send_buf"
    else V.create ()
  in
  let count =
    match recv_count with
    | Some c -> c
    | None ->
        (* The block size is only known at the root: broadcast it. *)
        let c = if i_am_root then V.length sb / size t else 0 in
        bcast_single ~root t D.int c
  in
  let vec, arr = prepare_recv ?recv_buf ?recv_policy dt ~needed:count ~samples:[ sb ] in
  if i_am_root then C.scatter t.c dt ~sendbuf:(V.unsafe_data sb) ~recvbuf:arr ~count ~root
  else C.scatter t.c dt ~recvbuf:arr ~count ~root;
  vec

let scatterv ?(root = 0) ?send_buf ?send_counts ?send_displs ?recv_count ?recv_buf ?recv_policy t
    dt =
  let i_am_root = rank t = root in
  let sb =
    if i_am_root then
      match send_buf with
      | Some v -> v
      | None -> Mpisim.Errors.usage "scatterv: the root rank needs ~send_buf"
    else V.create ()
  in
  let counts =
    if i_am_root then begin
      match send_counts with
      | Some c ->
          check_counts_array t "scatterv" c;
          c
      | None -> Mpisim.Errors.usage "scatterv: the root rank needs ~send_counts"
    end
    else [||]
  in
  let displs = if i_am_root then
      match send_displs with Some d -> d | None -> C.exclusive_scan counts
    else [||]
  in
  let count =
    match recv_count with
    | Some c -> c
    | None ->
        (* Default computation: scatter the per-rank counts. *)
        let box = Array.make 1 0 in
        if i_am_root then C.scatter t.c D.int ~sendbuf:counts ~recvbuf:box ~count:1 ~root
        else C.scatter t.c D.int ~recvbuf:box ~count:1 ~root;
        box.(0)
  in
  let vec, arr = prepare_recv ?recv_buf ?recv_policy dt ~needed:count ~samples:[ sb ] in
  if i_am_root then
    C.scatterv t.c dt ~sendbuf:(V.unsafe_data sb) ~scounts:counts ~sdispls:displs ~recvbuf:arr
      ~rcount:count ~root
  else C.scatterv t.c dt ~recvbuf:arr ~rcount:count ~root;
  vec

let alltoall ?recv_buf ?recv_policy t dt ~send_buf =
  let p = size t in
  Assertions.check Light
    (fun () -> V.length send_buf mod p = 0)
    "alltoall: send buffer length must be a multiple of the communicator size";
  let count = V.length send_buf / p in
  Assertions.heavy_check_uniform t.c count ~what:"alltoall count";
  let vec, arr = prepare_recv ?recv_buf ?recv_policy dt ~needed:(p * count) ~samples:[ send_buf ] in
  C.alltoall t.c dt ~sendbuf:(V.unsafe_data send_buf) ~recvbuf:arr ~count;
  vec

let alltoallv ?send_displs ?recv_counts ?recv_displs ?recv_buf ?recv_policy
    ?(recv_counts_out = false) ?(recv_displs_out = false) ?(send_displs_out = false) t dt ~send_buf
    ~send_counts =
  check_counts_array t "alltoallv" send_counts;
  let sdispls = match send_displs with Some d -> d | None -> C.exclusive_scan send_counts in
  let rcounts =
    match recv_counts with
    | Some c ->
        check_counts_array t "alltoallv" c;
        c
    | None ->
        (* Default computation: transpose the counts matrix. *)
        let c = Array.make (size t) 0 in
        C.alltoall t.c D.int ~sendbuf:send_counts ~recvbuf:c ~count:1;
        c
  in
  let rdispls = match recv_displs with Some d -> d | None -> C.exclusive_scan rcounts in
  let vec, arr =
    prepare_recv ?recv_buf ?recv_policy dt ~needed:(layout_end rcounts rdispls)
      ~samples:[ send_buf ]
  in
  C.alltoallv t.c dt ~sendbuf:(V.unsafe_data send_buf) ~scounts:send_counts ~sdispls ~recvbuf:arr
    ~rcounts ~rdispls;
  {
    recv_buf = vec;
    recv_counts = (if recv_counts_out then Some rcounts else None);
    recv_displs = (if recv_displs_out then Some rdispls else None);
    send_displs = (if send_displs_out then Some sdispls else None);
  }

let alltoallv_flat t dt (flat : 'a Flatten.flat) =
  alltoallv t dt ~send_buf:flat.Flatten.data ~send_counts:flat.Flatten.send_counts

let reduce ?(root = 0) t dt op ~send_buf =
  let count = V.length send_buf in
  Assertions.heavy_check_uniform t.c count ~what:"reduce count";
  if rank t = root then begin
    let out = Array.sub (V.unsafe_data send_buf) 0 count in
    C.reduce t.c dt op ~sendbuf:(V.unsafe_data send_buf) ~recvbuf:out ~count ~root;
    V.unsafe_of_array out count
  end
  else begin
    C.reduce t.c dt op ~sendbuf:(V.unsafe_data send_buf) ~count ~root;
    V.create ()
  end

let allreduce t dt op ~send_buf =
  let count = V.length send_buf in
  Assertions.heavy_check_uniform t.c count ~what:"allreduce count";
  let out = Array.sub (V.unsafe_data send_buf) 0 count in
  C.allreduce t.c dt op ~sendbuf:(V.unsafe_data send_buf) ~recvbuf:out ~count;
  V.unsafe_of_array out count

let allreduce_single t dt op v =
  let out = [| v |] in
  C.allreduce t.c dt op ~sendbuf:[| v |] ~recvbuf:out ~count:1;
  out.(0)

let reduce_single ?(root = 0) t dt op v =
  let out = reduce ~root t dt op ~send_buf:(V.unsafe_of_array [| v |] 1) in
  if rank t = root then Some (V.get out 0) else None

let gather_single ?(root = 0) t dt v =
  gather ~root t dt ~send_buf:(V.unsafe_of_array [| v |] 1)

let scan t dt op ~send_buf =
  let count = V.length send_buf in
  let out = Array.sub (V.unsafe_data send_buf) 0 count in
  C.scan t.c dt op ~sendbuf:(V.unsafe_data send_buf) ~recvbuf:out ~count;
  V.unsafe_of_array out count

let scan_single t dt op v =
  let out = [| v |] in
  C.scan t.c dt op ~sendbuf:[| v |] ~recvbuf:out ~count:1;
  out.(0)

let exscan t dt op ~send_buf =
  let count = V.length send_buf in
  let out = Array.sub (V.unsafe_data send_buf) 0 count in
  C.exscan t.c dt op ~sendbuf:(V.unsafe_data send_buf) ~recvbuf:out ~count;
  V.unsafe_of_array out count

let exscan_single ~init t dt op v =
  let out = [| init |] in
  C.exscan t.c dt op ~sendbuf:[| v |] ~recvbuf:out ~count:1;
  out.(0)

(* ---------------- non-blocking collectives ---------------- *)

let ibcast ?(root = 0) t dt ~send_recv_buf =
  let req = C.ibcast t.c dt (V.unsafe_data send_recv_buf) ~count:(V.length send_recv_buf) ~root in
  Nb_result.make req (fun _ -> send_recv_buf)

let iallreduce t dt op ~send_buf =
  let count = V.length send_buf in
  let out = Array.sub (V.unsafe_data send_buf) 0 count in
  let req = C.iallreduce t.c dt op ~sendbuf:(V.unsafe_data send_buf) ~recvbuf:out ~count in
  Nb_result.make req (fun _ -> V.unsafe_of_array out count)

let ialltoallv ?send_displs ?recv_displs t dt ~send_buf ~send_counts ~recv_counts =
  check_counts_array t "ialltoallv" send_counts;
  check_counts_array t "ialltoallv" recv_counts;
  let sdispls = match send_displs with Some d -> d | None -> C.exclusive_scan send_counts in
  let rdispls = match recv_displs with Some d -> d | None -> C.exclusive_scan recv_counts in
  let needed = layout_end recv_counts rdispls in
  let fill = filler dt [ send_buf ] in
  let out = Array.make (max needed 1) fill in
  let req =
    C.ialltoallv t.c dt ~sendbuf:(V.unsafe_data send_buf) ~scounts:send_counts ~sdispls
      ~recvbuf:out ~rcounts:recv_counts ~rdispls
  in
  Nb_result.make req (fun _ -> V.unsafe_of_array out needed)

(* ---------------- point-to-point ---------------- *)

let send ?(tag = default_tag) t dt ~send_buf ~dst =
  P.send t.c dt (V.unsafe_data send_buf) ~count:(V.length send_buf) ~dst ~tag

let recv ?(tag = default_tag) ?count ?recv_buf ?recv_policy t dt ~src =
  let src, tag, count =
    match count with
    | Some c -> (src, tag, c)
    | None ->
        (* Probe first so the buffer is sized exactly. *)
        let st = P.probe t.c ~src ~tag in
        (st.Mpisim.Request.source, st.Mpisim.Request.tag, st.Mpisim.Request.count)
  in
  let before = Option.fold ~none:0 ~some:V.length recv_buf in
  let vec, arr, policy = prepare_recv_full ?recv_buf ?recv_policy dt ~needed:count ~samples:[] in
  let st = P.recv t.c dt arr ~count ~src ~tag in
  (* The status carries the true element count (it may be below capacity
     when ?count was an upper bound). *)
  fit_to_actual policy dt vec ~before st.Mpisim.Request.count;
  vec

let isend ?(tag = default_tag) t dt ~send_buf ~dst =
  let req = P.isend t.c dt (V.unsafe_data send_buf) ~count:(V.length send_buf) ~dst ~tag in
  Nb_result.make req (fun _ -> send_buf)

let issend ?(tag = default_tag) t dt ~send_buf ~dst =
  let req = P.issend t.c dt (V.unsafe_data send_buf) ~count:(V.length send_buf) ~dst ~tag in
  Nb_result.make req (fun _ -> send_buf)

let irecv ?(tag = default_tag) ~count t dt ~src =
  let vec, arr, policy = prepare_recv_full dt ~needed:count ~samples:[] in
  let req = P.irecv t.c dt arr ~count ~src ~tag in
  Nb_result.make req (fun st ->
      fit_to_actual policy dt vec ~before:0 st.Mpisim.Request.count;
      vec)

let iprobe ?(tag = default_tag) t ~src = P.iprobe t.c ~src ~tag

(* ---------------- persistent & partitioned (MPI-4) ---------------- *)

module Persist = Mpisim.Persist

let send_init ?(tag = default_tag) t dt ~send_buf ~dst =
  P.send_init t.c dt (V.unsafe_data send_buf) ~count:(V.length send_buf) ~dst ~tag

let ssend_init ?(tag = default_tag) t dt ~send_buf ~dst =
  P.ssend_init t.c dt (V.unsafe_data send_buf) ~count:(V.length send_buf) ~dst ~tag

let recv_init ?(tag = default_tag) ~count t dt ~src =
  let fill = filler dt [] in
  let arr = Array.make (max 1 count) fill in
  let h = P.recv_init t.c dt arr ~count ~src ~tag in
  (h, V.unsafe_of_array arr count)

let psend_init ?(tag = default_tag) t dt ~send_buf ~partitions ~count ~dst =
  P.psend_init t.c dt (V.unsafe_data send_buf) ~partitions ~count ~dst ~tag

let precv_init ?(tag = default_tag) ~partitions ~count t dt ~src =
  let fill = filler dt [] in
  let arr = Array.make (max 1 (partitions * count)) fill in
  let h = P.precv_init t.c dt arr ~partitions ~count ~src ~tag in
  (h, V.unsafe_of_array arr (partitions * count))

let bcast_init ?(root = 0) t dt ~send_recv_buf =
  C.bcast_init t.c dt (V.unsafe_data send_recv_buf) ~count:(V.length send_recv_buf) ~root

let start = Persist.start
let startall = Persist.startall
let free_request = Persist.free

(* ---------------- large counts (MPI-4 MPI_Count) ---------------- *)

let send_sparse ?(tag = default_tag) t dt ~count ~dst = P.send_sparse t.c dt ~count ~dst ~tag

let recv_sparse ?(tag = default_tag) t dt ~capacity ~src =
  P.recv_sparse t.c dt ~capacity ~src ~tag

(* ---------------- sessions (MPI-4 §11) ---------------- *)

let session ?name t = Mpisim.Session.init ?name t.c
let comm_of_pset s pname = wrap (Mpisim.Session.comm_of_pset s pname)

(* ---------------- serialization ---------------- *)

(* Every serialized call moves one [Bytes] archive: the sender's archive
   is the send window, and the receive window is one exact-size
   [Bytes.create] that each part decodes from in place. *)
let wire = Serialization.wire_datatype

let send_serialized ?(tag = default_tag) t codec v ~dst =
  let archive = Serialization.to_wire codec v in
  compute t (D.serialization_cost ~bytes:(Bytes.length archive));
  P.send t.c wire archive ~dst ~tag

let recv_serialized ?(tag = default_tag) t codec ~src =
  let st = P.probe t.c ~src ~tag in
  let buf = Bytes.create st.Mpisim.Request.count in
  let st = P.recv t.c wire buf ~src:st.source ~tag:st.tag in
  compute t (D.serialization_cost ~bytes:st.Mpisim.Request.count);
  Serialization.of_wire codec buf ~pos:0 ~len:st.Mpisim.Request.count

let bcast_serialized ?(root = 0) t codec v =
  let i_am_root = rank t = root in
  let archive = if i_am_root then Serialization.to_wire codec v else Bytes.empty in
  if i_am_root then compute t (D.serialization_cost ~bytes:(Bytes.length archive));
  let len = bcast_single ~root t D.int (Bytes.length archive) in
  let buf = if i_am_root then archive else Bytes.create len in
  C.bcast t.c wire buf ~count:len ~root;
  if i_am_root then v
  else begin
    compute t (D.serialization_cost ~bytes:len);
    Serialization.of_wire codec buf ~pos:0 ~len
  end

(* Decoding the received parts, charged as one park: the per-part costs
   fold from [now] in rank order, the same float additions that [p]
   sequential [compute] calls would make to the clock, so the wake-up is
   bit-identical with one engine event instead of [p].  Then every part
   decodes in place from its offset in the receive window. *)
let decode_parts t codec buf counts displs =
  let until = ref (now t) in
  for r = 0 to Array.length counts - 1 do
    until := !until +. D.serialization_cost ~bytes:counts.(r)
  done;
  Mpisim.Comm.compute_until t.c !until;
  Array.init (Array.length counts) (fun r ->
      Serialization.of_wire codec buf ~pos:displs.(r) ~len:counts.(r))

(* The calls [allgatherv] makes with default counts: the counts
   allgather, then the exchange into an exact-size window. *)
let allgather_serialized t codec v =
  let archive = Serialization.to_wire codec v in
  let scount = Bytes.length archive in
  compute t (D.serialization_cost ~bytes:scount);
  let counts = Array.make (size t) 0 in
  C.allgather t.c D.int ~sendbuf:[| scount |] ~recvbuf:counts ~count:1;
  let displs = C.exclusive_scan counts in
  let buf = Bytes.create (layout_end counts displs) in
  C.allgatherv t.c wire ~sendbuf:archive ~scount ~recvbuf:buf ~rcounts:counts ~rdispls:displs;
  decode_parts t codec buf counts displs

(* The calls [alltoallv] makes with default counts: the counts
   transpose, then the exchange into an exact-size window. *)
let alltoallv_serialized t codec messages =
  let p = size t in
  Assertions.check Light
    (fun () -> Array.length messages = p)
    "alltoallv_serialized: one message per rank required";
  let archive, send_counts = Serialization.to_wire_parts codec messages in
  compute t (D.serialization_cost ~bytes:(Bytes.length archive));
  let counts = Array.make p 0 in
  C.alltoall t.c D.int ~sendbuf:send_counts ~recvbuf:counts ~count:1;
  let displs = C.exclusive_scan counts in
  let buf = Bytes.create (layout_end counts displs) in
  C.alltoallv t.c wire ~sendbuf:archive ~scounts:send_counts
    ~sdispls:(C.exclusive_scan send_counts) ~recvbuf:buf ~rcounts:counts ~rdispls:displs;
  decode_parts t codec buf counts displs

(* ---------------- communicator management ---------------- *)

let dup t = wrap (C.dup t.c)
let split t ~color ~key = Option.map wrap (C.split t.c ~color ~key)
let split_by_node ?key t = wrap (C.split_by_node ?key t.c)
let node_of_rank t r = Mpisim.Comm.node_of_rank t.c r
