(** Approximate maximum concurrent multicommodity flow
    (Garg-Könemann / Fleischer width-independent scheme).

    WAN traffic engineering controllers such as SWAN and B4 solve
    multicommodity flow problems; production systems use an LP solver.
    We substitute the classic fully-polynomial approximation scheme,
    which needs nothing but repeated shortest-path computations and
    converges to within (1 - 3 epsilon) of the optimum.  This keeps the
    TE layer self-contained — and, exactly as the paper requires, the
    algorithm is oblivious to whether the topology it is fed is the
    physical one or the fake-edge-augmented one. *)

type commodity = { src : int; dst : int; demand : float }

type result = {
  lambda : float;
      (** Concurrent throughput fraction: every commodity can ship
          [lambda *. demand] simultaneously.  Capped at 1.0 — demands
          are never over-served. *)
  flow : float array;  (** Feasible per-edge flow after scaling. *)
  routed : float array;
      (** Per-commodity shipped amount; never exceeds the commodity's
          demand. *)
}

val solve :
  ?epsilon:float -> 'tag Graph.t -> commodity array -> result
(** [solve ?epsilon g commodities] with [epsilon] in (0, 0.5], default
    0.1.  Commodities must have positive demand and distinct
    [src <> dst].  Smaller epsilon = tighter approximation, more
    shortest-path iterations.

    Per augmenting path the solver does O(path + search frontier) work
    and allocates nothing: one {!Shortest.workspace} serves every search
    of the solve, and the dual objective D(l) = sum of length * capacity
    is tracked incrementally instead of re-summed over all edges.
    Guard-band invariant: the running estimate decides "D(l) < 1" only
    while it is below [1 - 1e-6], far outside its rounding drift; inside
    that band the exact sum over the edges in id order decides.  So
    every termination decision, and every bit of the result, is the one
    an exact re-sum after each path gives. *)

val total_throughput : result -> float
(** Sum of shipped amounts over commodities. *)
