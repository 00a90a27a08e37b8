(** The pieces the indirect all-to-all plugins ({!Grid_alltoall},
    {!Hypergrid}) share: the element-fill lookup, one counts-then-payload
    exchange per routing phase, and the final grouping by source rank.
    Each plugin keeps its own routing and its own error prefix. *)

(** [default_fill ~who dt] is [dt]'s default element, which sizes receive
    buffers.
    @raise Mpisim.Errors.Usage_error (prefixed with [who]) when [dt] has
    none. *)
val default_fill : who:string -> 'a Mpisim.Datatype.t -> 'a

(** [phase_exchange comm dt ~fill ~send_to ~recv_from ~outgoing ~count_tag
    ~data_tag] runs one routing phase: every rank of [send_to] gets one
    count message (the length of [outgoing dst], 0 for [None]), every rank
    of [recv_from] is heard from once, then the non-empty payloads travel.
    Returns [(src, elements)] for each non-empty incoming payload, in
    [recv_from] order.  [fill] only initialises receive buffers. *)
val phase_exchange :
  Kamping.Comm.t ->
  'a Mpisim.Datatype.t ->
  fill:'a ->
  send_to:int array ->
  recv_from:int array ->
  outgoing:(int -> 'a Ds.Vec.t option) ->
  count_tag:int ->
  data_tag:int ->
  (int * 'a array) list

(** [group_by_source comm ~fill ~source ~value items] is the received
    elements [value x] ordered by [source x] (stable within one source),
    plus the per-source counts over the [Kamping.Comm.size comm] ranks;
    the two passes are charged as local compute. *)
val group_by_source :
  Kamping.Comm.t ->
  fill:'a ->
  source:('r -> int) ->
  value:('r -> 'a) ->
  'r Ds.Vec.t ->
  'a Ds.Vec.t * int array
