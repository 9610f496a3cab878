(** Lock discipline primitive: critical sections that cannot leak.

    [with_lock m f] runs [f ()] with [m] held and releases [m] on every
    exit path, including exceptions ([Fun.protect]).  All shared-state
    access in the tree goes through this combinator — the [lock-discipline]
    lint rule bans raw [Mutex.lock]/[Mutex.unlock] everywhere except this
    module's implementation.

    It lives in the support layer so that both [wb_obs] (the domain-safe
    metrics registry) and [wb_net] (the referee's session tables) can use
    it without a dependency cycle.

    [Condition.wait] is safe inside the callback: it atomically releases
    and reacquires the same mutex, so the ownership invariant assumed by
    the final unlock still holds. *)

val with_lock : Mutex.t -> (unit -> 'a) -> 'a
