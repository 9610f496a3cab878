(** Concurrent digest set: the explorer's visited-configuration table.

    A stdlib [Hashtbl] behind one [Mutex]; every operation runs under it
    ({!Sync.with_lock}).  Membership-or-insert ([add]) is therefore
    exactly-once per digest across any number of domains — the property
    the deterministic exploration counts rely on.  There is no delete.  The
    table starts small and grows with the entries stored, so a call pays
    for the configurations it claims, not for its [limit].

    Digests are stored as given and must be well-mixed (use {!Mix.mix}).
    Two distinct configurations hashing to the same 63-bit digest are
    silently merged — the standard hash-compaction trade-off; with [s]
    stored entries the expected number of false merges is about
    [s^2 / 2^64] (see docs/EXPLORATION.md). *)

type t

val create : ?limit:int -> unit -> t
(** An empty table accepting up to [max 1 limit] entries (default limit
    1_000_000). *)

val add : t -> int -> [ `Added | `Present | `Full ]
(** Insert-or-find, atomic under the table's lock.  [`Added] — the calling
    domain claimed this digest, and no other [add] of it ever returns
    [`Added].  [`Present] — already claimed.  [`Full] — the digest is new
    and the table already holds [limit] entries. *)

val mem : t -> int -> bool

val cardinal : t -> int
(** Entries stored. *)

val limit : t -> int
(** The entry limit this table enforces. *)
