(** Precomputed n x n received-power table for a frozen point set.

    Entries are produced by evaluating the seed formula
    [power /. (dist v u ** alpha)] verbatim on the [Soa] columns, so
    reading the cache is bit-identical to computing on the fly. Rows fill
    lazily (first touch wins, atomic publication — safe under
    [Sinr_par.Pool] workers) until the byte budget is spent; past the cap
    only the requested sender entries are recomputed into the caller's
    scratch buffer.

    [Sinr] creates the cache [~bypass:true] exactly when it installs the
    sparse kernel: then no row-pointer array exists, every lookup
    evaluates the formula directly, and the decision ticks the
    [phys.cache.bypassed] counter. No other size limit is needed: from
    n ≈ 2,900 up the default 64 MiB cannot hold the table anyway. *)

type t

val create : Config.t -> Soa.t -> cap_bytes:int -> bypass:bool -> t

val n : t -> int

val max_rows : t -> int
(** How many rows the byte budget admits (0 when bypassed). *)

val bypassed : t -> bool
(** Created [~bypass:true]: no row will ever be allocated. *)

val rows_cached : t -> int
val bytes_cached : t -> int

val row :
  t -> int -> ids:int array -> nsend:int -> scratch:Float.Array.t ->
  Float.Array.t
(** [row t u ~ids ~nsend ~scratch] is receiver [u]'s power row: index [v]
    holds the received power of a transmission from [v] at [u] (diagonal
    0, never meaningful). Returns the resident row (every entry valid), or
    — when the cap is exhausted or the cache is bypassed — fills only the
    entries [ids.(0 .. nsend-1)] of [scratch] (length [>= n t]) and
    returns it; its other entries are stale. [u] must not be among the
    ids. *)

val pair : t -> sender:int -> receiver:int -> float
(** One entry: cached when the receiver's row is resident, otherwise a
    direct evaluation of the same expression. Never triggers a row fill. *)

val compute : t -> sender:int -> receiver:int -> float
(** The uncached seed expression (exposed for tests). *)
