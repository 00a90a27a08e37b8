(** Shared, binding-agnostic pieces of the sample sort benchmark
    (paper Sec. IV-A).  All binding variants use exactly these helpers, so
    the per-variant files measure only the communication code — the setup
    behind Table I's LoC numbers. *)

(** [num_samples p] is the textbook sampling rate [16 log2 p + 1]. *)
val num_samples : int -> int

(** [generate_input ~rank ~n_per_rank ~seed] draws uniform random keys,
    deterministically per rank. *)
val generate_input : rank:int -> n_per_rank:int -> seed:int -> int array

(** [draw_samples ~rank ~seed data k] picks [k] random elements (with
    replacement; empty input yields no samples). *)
val draw_samples : rank:int -> seed:int -> int array -> int -> int array

(** [select_splitters gsamples p] picks the [p-1] equidistant splitters
    from the sorted global sample. *)
val select_splitters : int array -> int -> int array

(** [bucket_counts data splitters p] sizes the per-destination buckets of a
    locally sorted array. *)
val bucket_counts : int array -> int array -> int -> int array

(** [local_sort comm data] sorts in place and charges the comparison-sort
    cost to the simulated clock. *)
val local_sort : Mpisim.Comm.t -> int array -> unit

(** [charge_partition comm n] charges one linear pass over [n] elements. *)
val charge_partition : Mpisim.Comm.t -> int -> unit
