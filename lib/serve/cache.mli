(** Client-side replica cache of hot keys.

    A bounded key->value map each client rank keeps next to its request
    stream: get replies populate it, repeated gets of hot keys are served
    locally (near-zero latency), and servers invalidate cached copies
    when a key is written (see the directory protocol in {!Serve}).

    Consistency is eventual: between a write being applied on the owner
    and the invalidation reaching a client, that client may still serve
    the old value.  The serving engine therefore never folds cached get
    results into its semantic digest — only timing (hit rate, latency)
    depends on the cache.

    Eviction drops the largest cached key: under a Zipf workload key
    popularity decreases with the key id, so the largest key is the best
    deterministic guess for the coldest entry. *)

type t

(** [create ~capacity ()] — [capacity = 0] disables the cache entirely
    ({!find} always misses, {!insert} is a no-op).
    @raise Mpisim.Errors.Usage_error on a negative capacity. *)
val create : capacity:int -> unit -> t

(** [find t k] is the cached value, counting the lookup (and the hit). *)
val find : t -> int -> int option

val insert : t -> key:int -> value:int -> unit
val invalidate : t -> int -> unit

(** [clear t] drops every entry (rebalance/recovery consistency epoch);
    statistics survive. *)
val clear : t -> unit

val lookups : t -> int
val hits : t -> int
