(** The event model of the tracing subsystem (Scalasca/Vampir-style).

    A trace is a flat record of what one simulated run did, stamped with
    simulated time and world rank:

    - {b spans}: enter/exit of each logical MPI call (collectives,
      point-to-point, RMA, communicator management) plus user-annotated
      regions;
    - {b messages}: one record per injected message — user or
      library-internal — carrying the four timestamps that wait-state
      analysis needs (sent, arrived, receive posted, matched);
    - {b waits}: intervals during which a rank's fiber was suspended on an
      external event (a blocking receive, a request wait, an agreement).

    The recorder (see {!Recorder}) produces these; {!Analysis} classifies
    them and {!Chrome} exports them. *)

(** One completed MPI call (or user region) on one rank. *)
type span = {
  sp_rank : int;  (** world rank *)
  sp_op : string;  (** operation name, e.g. ["MPI_Allreduce"] *)
  sp_cat : string;  (** ["coll"], ["p2p"], ["rma"], ["comm"] or ["user"] *)
  sp_comm : int;  (** communicator id, [-1] when not applicable *)
  sp_seq : int;
      (** per-(rank, communicator) collective index used to line the same
          collective call up across ranks; [-1] for non-collectives *)
  sp_t0 : float;  (** enter time, simulated seconds *)
  sp_t1 : float;  (** exit time *)
}

(** One message through the simulated network.  [msg_posted] and
    [msg_matched] stay [-1.0] until the receive side stamps them; a message
    that is never received keeps [msg_matched = -1.0]. *)
type message = {
  msg_id : int;  (** unique per trace, used as the Chrome flow id *)
  msg_src : int;  (** sender world rank *)
  msg_dst : int;  (** receiver world rank *)
  msg_tag : int;
  msg_bytes : int;
  msg_user : bool;  (** user-level send (vs. collective-internal) *)
  msg_sent : float;  (** injection time at the sender *)
  msg_arrived : float;  (** arrival at the receiver's mailbox *)
  mutable msg_posted : float;  (** when the matching receive was posted *)
  mutable msg_matched : float;  (** when the payload was delivered *)
}

(** One interval during which a rank was suspended waiting for an external
    event (blocking receive, request wait, agreement). *)
type wait = { w_rank : int; w_t0 : float; w_t1 : float }

(** A complete trace of one run. *)
type data = {
  ranks : int;
  spans : span list;  (** in completion order *)
  messages : message list;  (** in injection order *)
  waits : wait list;  (** in resumption order *)
  rank_end : float array;  (** per-rank finish time (last is [total]) *)
  total : float;  (** final simulated time of the run *)
}

(** [stamp_match m ~posted ~time] records the receive-side timestamps of a
    message: when the matching receive was posted and when the payload was
    delivered. *)
val stamp_match : message -> posted:float -> time:float -> unit

(** [matched m] is true once the message was delivered. *)
val matched : message -> bool
