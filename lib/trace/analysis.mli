(** Wait-state classification and critical-path extraction
    (Scalasca-style) over a recorded {!Event.data}. *)

(** Taxonomy of classified wait states. *)
type wait_class =
  | Late_sender
      (** the receive was posted before the message arrived: the receiver
          idled because the sender was late *)
  | Late_receiver
      (** the message arrived before the receive was posted: the payload
          sat in the receiver's mailbox (charged to the sender side in
          synchronous-send terms; we charge the exposure to the dst rank's
          peer) *)
  | Wait_at_collective
      (** time a rank spent inside a collective before the last
          participant arrived — load imbalance in front of the collective *)

type wait_state = {
  ws_class : wait_class;
  ws_rank : int;  (** the rank charged with the waiting time *)
  ws_peer : int;  (** the causing peer rank, [-1] if collective-wide *)
  ws_op : string;  (** call site: innermost enclosing span's operation *)
  ws_time : float;  (** when the wait ended (simulated seconds) *)
  ws_amount : float;  (** length of the wait, simulated seconds *)
}

type rank_stats = {
  rank : int;
  span : float;  (** this rank's finish time *)
  waiting : float;  (** total suspended time *)
  working : float;  (** [span - waiting] *)
  late_sender : float;  (** classified late-sender share of [waiting] *)
  late_receiver : float;  (** late-receiver exposure charged to this rank *)
  coll_wait : float;  (** classified collective-imbalance time *)
}

(** One step of the critical path, walked backwards in time. *)
type step_kind =
  | Run  (** the rank was executing (compute or active communication) *)
  | Blocked  (** suspended with no incoming message edge to jump through *)
  | Transfer  (** a message edge: sender inject -> receiver match *)

type step = {
  st_kind : step_kind;
  st_rank : int;
  st_t0 : float;
  st_t1 : float;
  st_op : string;  (** enclosing op at [st_t1], ["(idle)"] for Blocked *)
}

type report = {
  data : Event.data;
  wait_states : wait_state list;  (** sorted by decreasing [ws_amount] *)
  per_rank : rank_stats array;
  critical_path : step list;  (** in forward time order, from [t=0] *)
}

val analyze : Event.data -> report

(** Sum of step durations of the critical path; equals [data.total] by
    construction of the backward walk. *)
val critical_length : report -> float
