(** Shortest-path algorithms over {!Graph} edge costs.

    Used by the SWAN-style TE allocator (k-shortest candidate paths, as
    in Hong et al., SIGCOMM 2013) and by the "short paths at all costs"
    penalty variant of Section 4.2 where every link gets unit weight. *)

type path = Graph.edge_id list
(** A path as the list of edge ids traversed, in order. *)

val path_cost : 'tag Graph.t -> path -> float
val path_capacity : 'tag Graph.t -> path -> float
(** Bottleneck (minimum) capacity along the path; [infinity] for the
    empty path. *)

val dijkstra :
  ?usable:(Graph.edge_id -> bool) ->
  ?cost:(Graph.edge_id -> float) ->
  'tag Graph.t ->
  src:int ->
  dst:int ->
  path option
(** Least-cost path using non-negative edge costs; [usable] filters
    edges (default: all).  [None] when unreachable.  [cost] overrides
    the per-edge cost without rebuilding the graph.  A one-shot
    {!search}: it builds a {!workspace}, reads [usable] and [cost] once
    per edge, and searches.  The search stops as soon as [dst] is
    finalized. *)

(** {2 Reusable search workspace}

    Callers that search the same graph many times under changing costs
    (the multicommodity solver searches once per augmenting path) build
    one workspace and call {!search}, which allocates nothing.  Ties
    break deterministically: a binary min-heap keyed by distance, a
    1e-12 slack in the settle and relax comparisons, and each vertex's
    edges scanned in insertion order, so the same costs always give the
    same path ({!dijkstra} and {!k_shortest} run on it too). *)

type workspace

val workspace : 'tag Graph.t -> workspace
(** Search state for the graph as it is now: CSR out-adjacency in
    insertion order, edge endpoints, epoch-stamped distance and
    predecessor arrays, a heap of [n_edges + 1] slots and a path buffer.
    Edges added to the graph later are not seen. *)

val search : workspace -> cost:float array -> src:int -> dst:int -> int
(** [search ws ~cost ~src ~dst] finds a least-cost path under the
    id-indexed, non-negative [cost]; an edge of cost [infinity] is never
    taken, which is how callers mark edges unusable.  Returns the
    path's number of edges, written in order to the first entries of
    [path ws], or [-1] when [dst] is unreachable. *)

val path : workspace -> Graph.edge_id array
(** The buffer the last {!search} wrote its path to; the next search
    overwrites it. *)

val bellman_ford : 'tag Graph.t -> src:int -> float array
(** Distances from [src] to every vertex (infinity if unreachable);
    handles negative costs; raises [Invalid_argument] on a
    negative-cost cycle reachable from [src]. *)

val k_shortest : 'tag Graph.t -> src:int -> dst:int -> k:int -> path list
(** Yen's algorithm: up to [k] loopless least-cost paths in
    non-decreasing cost order.  Requires non-negative costs. *)
