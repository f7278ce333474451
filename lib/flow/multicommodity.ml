type commodity = { src : int; dst : int; demand : float }

type result = {
  lambda : float;
  flow : float array;
  routed : float array;
}

let total_throughput r = Array.fold_left ( +. ) 0.0 r.routed

let m_phases = Rwc_obs.Metrics.counter "mcf/phases"
let m_paths = Rwc_obs.Metrics.counter "mcf/augmenting_paths"

(* Fleischer's phase variant of Garg-Könemann.  Edge lengths start at
   delta / capacity and are multiplied by (1 + eps * f / c) whenever f
   units are pushed; phases route each commodity's full demand along
   successively longer paths.  On termination the accumulated flow is
   scaled down by the worst congestion so it becomes feasible, and
   lambda is the resulting common fraction of demand shipped. *)
let solve ?(epsilon = 0.1) g commodities =
  assert (epsilon > 0.0 && epsilon <= 0.5);
  Array.iter
    (fun c -> assert (c.demand > 0.0 && c.src <> c.dst))
    commodities;
  let m = Graph.n_edges g in
  let n_com = Array.length commodities in
  if n_com = 0 then { lambda = infinity; flow = Array.make m 0.0; routed = [||] }
  else begin
    let delta =
      (float_of_int (max m 2) /. (1.0 -. epsilon)) ** (-1.0 /. epsilon)
    in
    (* [length] doubles as the search cost: a zero-capacity edge gets
       length infinity, which the search never takes, and is left out of
       the dual and of every length update. *)
    let length = Array.make m infinity in
    let usable_cap = Array.make m 0.0 in
    Graph.iter_edges
      (fun e ->
        usable_cap.(e.Graph.id) <- e.Graph.capacity;
        if e.Graph.capacity > 0.0 then
          length.(e.Graph.id) <- delta /. e.Graph.capacity)
      g;
    (* Per-commodity per-edge flow, so each commodity can be rescaled
       to its own demand independently at the end. *)
    let com_flow = Array.make_matrix n_com (max 1 m) 0.0 in
    let routed_raw = Array.make n_com 0.0 in
    (* The dual objective D(l) = sum over usable edges of length * capacity,
       summed in edge-id order.  Termination ("D(l) >= 1") is decided on
       this exact sum, never on an approximation of it. *)
    let dual () =
      let acc = ref 0.0 in
      for e = 0 to m - 1 do
        if usable_cap.(e) > 0.0 then acc := !acc +. (length.(e) *. usable_cap.(e))
      done;
      !acc
    in
    (* Running estimate of D(l), so the test after each augmenting path
       costs O(path) instead of an O(m) sum.  Pushing f units over edge
       e multiplies l_e by (1 + eps f / c_e), which raises D by exactly
       l_e * eps * f; the estimate adds that for every edge of the path
       and is resynced to the exact sum at the start of each phase and
       whenever the sum is taken.

       Guard band.  Each update's rounding is a few ulps of a term that
       is at most D, and D < 1 + eps while the loop runs, so k updates
       since the last resync leave the estimate within about
       6k * 2^-53 of the exact sum (the sum's own rounding included).
       A phase makes far fewer than the ~10^9 updates that would take
       that to 1e-6; the largest drift measured, over 21-day
       north_america runs and the oracle tests' random graphs, is below
       2e-15.  So while the estimate is below 1 - 1e-6 the exact sum is
       below 1 too and the estimate is trusted; inside the band the
       exact sum is recomputed and the "< 1" test is decided on it.
       Every termination decision is therefore the one the plain
       sum-after-every-path loop makes, and the result is bit-identical
       to it. *)
    let estimate = [| 0.0 |] in
    let exact_below_one () =
      let d = dual () in
      estimate.(0) <- d;
      d < 1.0
    in
    let below_one () = estimate.(0) < 1.0 -. 1e-6 || exact_below_one () in
    (* One search workspace for the whole solve: an augmenting path
       costs O(path + search frontier) and allocates nothing. *)
    let ws = Shortest.workspace g in
    let path = Shortest.path ws in
    let phases = ref 0 in
    let max_phases = 10_000 in
    while exact_below_one () && !phases < max_phases do
      incr phases;
      Rwc_obs.Metrics.incr m_phases;
      for j = 0 to n_com - 1 do
        let c = commodities.(j) in
        let flow_j = com_flow.(j) in
        let remaining = ref c.demand in
        while !remaining > 1e-12 && below_one () do
          let len = Shortest.search ws ~cost:length ~src:c.src ~dst:c.dst in
          if len < 0 then remaining := 0.0
          else begin
            Rwc_obs.Metrics.incr m_paths;
            let bottleneck = ref infinity in
            for k = 0 to len - 1 do
              bottleneck := Float.min !bottleneck usable_cap.(path.(k))
            done;
            let f = Float.min !remaining !bottleneck in
            for k = 0 to len - 1 do
              let eid = path.(k) in
              let l = length.(eid) in
              flow_j.(eid) <- flow_j.(eid) +. f;
              estimate.(0) <- estimate.(0) +. (l *. epsilon *. f);
              length.(eid) <- l *. (1.0 +. (epsilon *. f /. usable_cap.(eid)))
            done;
            routed_raw.(j) <- routed_raw.(j) +. f;
            remaining := !remaining -. f
          end
        done
      done
    done;
    (* Scale to feasibility: first a global factor bringing the worst
       edge back within capacity, then a per-commodity cap so nobody
       ships more than its demand (phases over-route when the network
       has slack).  Per-commodity shrinking preserves edge feasibility
       and flow conservation. *)
    let accumulated = Array.make (max 1 m) 0.0 in
    Array.iter
      (fun cf -> Array.iteri (fun e f -> accumulated.(e) <- accumulated.(e) +. f) cf)
      com_flow;
    let congestion =
      Graph.fold_edges
        (fun acc e ->
          if e.Graph.capacity > 0.0 then
            Float.max acc (accumulated.(e.Graph.id) /. e.Graph.capacity)
          else acc)
        0.0 g
    in
    let scale = if congestion > 1.0 then 1.0 /. congestion else 1.0 in
    let flow = Array.make (max 1 m) 0.0 in
    let routed = Array.make n_com 0.0 in
    Array.iteri
      (fun j cf ->
        let shipped = routed_raw.(j) *. scale in
        let cap_j =
          if shipped > commodities.(j).demand then
            commodities.(j).demand /. shipped
          else 1.0
        in
        let factor = scale *. cap_j in
        Array.iteri (fun e f -> flow.(e) <- flow.(e) +. (f *. factor)) cf;
        routed.(j) <- routed_raw.(j) *. factor)
      com_flow;
    let lambda =
      Array.to_list (Array.mapi (fun j r -> r /. commodities.(j).demand) routed)
      |> List.fold_left Float.min infinity
    in
    { lambda; flow; routed }
  end
