(* Reference implementations for the bit-equality oracle
   (test_te_oracle.ml): the list-based Dijkstra, Yen's k-shortest paths
   over it and the Garg-Könemann solver, exactly as they were before
   the search moved onto a reusable workspace and the solver's dual
   became incremental.  The bodies are verbatim, apart from the module
   qualification, so the fast code can be checked against them bit for
   bit; nothing outside the tests uses them. *)

open Rwc_flow

module Shortest_ref = struct
  module Pq = struct
    type 'a t = { mutable data : (float * 'a) array; mutable size : int }

    let create () = { data = [||]; size = 0 }
    let is_empty q = q.size = 0

    let push q prio x =
      if q.size = Array.length q.data then begin
        let cap = max 32 (2 * q.size) in
        let bigger = Array.make cap (prio, x) in
        Array.blit q.data 0 bigger 0 q.size;
        q.data <- bigger
      end;
      q.data.(q.size) <- (prio, x);
      q.size <- q.size + 1;
      let i = ref (q.size - 1) in
      while !i > 0 && fst q.data.((!i - 1) / 2) > fst q.data.(!i) do
        let p = (!i - 1) / 2 in
        let tmp = q.data.(p) in
        q.data.(p) <- q.data.(!i);
        q.data.(!i) <- tmp;
        i := p
      done

    let pop q =
      assert (q.size > 0);
      let top = q.data.(0) in
      q.size <- q.size - 1;
      q.data.(0) <- q.data.(q.size);
      let i = ref 0 and looping = ref true in
      while !looping do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < q.size && fst q.data.(l) < fst q.data.(!s) then s := l;
        if r < q.size && fst q.data.(r) < fst q.data.(!s) then s := r;
        if !s = !i then looping := false
        else begin
          let tmp = q.data.(!i) in
          q.data.(!i) <- q.data.(!s);
          q.data.(!s) <- tmp;
          i := !s
        end
      done;
      top
  end

  let dijkstra ?(usable = fun _ -> true) ?cost g ~src ~dst =
    let edge_cost =
      match cost with
      | Some f -> f
      | None -> fun eid -> (Graph.edge g eid).Graph.cost
    in
    let n = Graph.n_vertices g in
    let dist = Array.make n infinity in
    let prev = Array.make n (-1) in
    let visited = Array.make n false in
    dist.(src) <- 0.0;
    let q = Pq.create () in
    Pq.push q 0.0 src;
    while not (Pq.is_empty q) && not visited.(dst) do
      let d, v = Pq.pop q in
      if (not visited.(v)) && d <= dist.(v) +. 1e-12 then begin
        visited.(v) <- true;
        if v <> dst then
          List.iter
            (fun eid ->
              if usable eid then begin
                let e = Graph.edge g eid in
                let c = edge_cost eid in
                assert (c >= 0.0);
                let nd = dist.(v) +. c in
                if nd < dist.(e.Graph.dst) -. 1e-12 then begin
                  dist.(e.Graph.dst) <- nd;
                  prev.(e.Graph.dst) <- eid;
                  Pq.push q nd e.Graph.dst
                end
              end)
            (Graph.out_edges g v)
      end
    done;
    if not (Float.is_finite dist.(dst)) then None
    else begin
      let rec rebuild v acc =
        if v = src then acc
        else
          let eid = prev.(v) in
          rebuild (Graph.edge g eid).Graph.src (eid :: acc)
      in
      Some (rebuild dst [])
    end

  (* Yen's k-shortest loopless paths. *)
  let k_shortest g ~src ~dst ~k =
    assert (k >= 0);
    match dijkstra g ~src ~dst with
    | None -> []
    | Some first ->
        let vertices_of p =
          src :: List.map (fun eid -> (Graph.edge g eid).Graph.dst) p
        in
        let accepted = ref [ first ] in
        let candidates = ref [] in
        (* Candidate paths, deduplicated by edge-id list. *)
        let add_candidate p =
          let cost = Shortest.path_cost g p in
          if not (List.exists (fun (_, q) -> q = p) !candidates) then
            candidates := (cost, p) :: !candidates
        in
        let rec take_prefix p i =
          if i = 0 then [] else match p with
            | [] -> []
            | e :: rest -> e :: take_prefix rest (i - 1)
        in
        let finished = ref false in
        while List.length !accepted < k && not !finished do
          let last = List.hd !accepted in
          let last_vertices = Array.of_list (vertices_of last) in
          (* Branch at every spur node of the previous path. *)
          for i = 0 to Array.length last_vertices - 2 do
            let spur = last_vertices.(i) in
            let root = take_prefix last i in
            (* Edges removed: any edge that some accepted path with the
               same root uses to leave the spur node, plus edges into
               root vertices (looplessness). *)
            let banned_edges =
              List.filter_map
                (fun p ->
                  let prefix = take_prefix p i in
                  if prefix = root then List.nth_opt p i else None)
                !accepted
            in
            let root_vertices = Array.to_list (Array.sub last_vertices 0 (i + 1)) in
            let root_interior = List.filter (fun v -> v <> spur) root_vertices in
            let usable eid =
              let e = Graph.edge g eid in
              (not (List.mem eid banned_edges))
              && (not (List.mem e.Graph.dst root_interior))
              && not (List.mem e.Graph.src root_interior)
            in
            match dijkstra ~usable g ~src:spur ~dst with
            | None -> ()
            | Some spur_path -> add_candidate (root @ spur_path)
          done;
          (* Pull the cheapest unused candidate. *)
          let unused =
            List.filter (fun (_, p) -> not (List.mem p !accepted)) !candidates
          in
          match List.sort (fun (a, _) (b, _) -> compare a b) unused with
          | [] -> finished := true
          | (_, best) :: _ -> accepted := best :: !accepted
        done;
        let sorted =
          List.sort (fun a b -> compare (Shortest.path_cost g a) (Shortest.path_cost g b)) !accepted
        in
        take_prefix sorted k
end

module Multicommodity_ref = struct
  open Multicommodity

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
      let length = Array.make m 0.0 in
      let usable_cap = Array.make m 0.0 in
      Graph.iter_edges
        (fun e ->
          usable_cap.(e.Graph.id) <- e.Graph.capacity;
          (* Zero-capacity edges are excluded via the [usable] filter in
             every shortest-path call, so their length is irrelevant —
             but it must stay finite for the graph construction. *)
          length.(e.Graph.id) <-
            (if e.Graph.capacity > 0.0 then delta /. e.Graph.capacity else 0.0))
        g;
      (* Per-commodity per-edge flow, so each commodity can be rescaled
         to its own demand independently at the end. *)
      let com_flow = Array.make_matrix n_com (max 1 m) 0.0 in
      let routed_raw = Array.make n_com 0.0 in
      let dual () =
        Graph.fold_edges
          (fun acc e ->
            if usable_cap.(e.Graph.id) > 0.0 then
              acc +. (length.(e.Graph.id) *. usable_cap.(e.Graph.id))
            else acc)
          0.0 g
      in
      let phases = ref 0 in
      let max_phases = 10_000 in
      while dual () < 1.0 && !phases < max_phases do
        incr phases;
        Rwc_obs.Metrics.incr m_phases;
        Array.iteri
          (fun j c ->
            let remaining = ref c.demand in
            (* Shortest path under the current length function — passed
               as a cost override so the graph is never rebuilt;
               zero-capacity edges are unusable. *)
            let usable eid = usable_cap.(eid) > 0.0 in
            let len eid = length.(eid) in
            while !remaining > 1e-12 && dual () < 1.0 do
              match Shortest_ref.dijkstra ~usable ~cost:len g ~src:c.src ~dst:c.dst with
              | None -> remaining := 0.0
              | Some path ->
                  Rwc_obs.Metrics.incr m_paths;
                  let bottleneck =
                    List.fold_left
                      (fun acc eid -> Float.min acc usable_cap.(eid))
                      infinity path
                  in
                  let f = Float.min !remaining bottleneck in
                  List.iter
                    (fun eid ->
                      com_flow.(j).(eid) <- com_flow.(j).(eid) +. f;
                      length.(eid) <-
                        length.(eid)
                        *. (1.0 +. (epsilon *. f /. usable_cap.(eid))))
                    path;
                  routed_raw.(j) <- routed_raw.(j) +. f;
                  remaining := !remaining -. f
            done)
          commodities
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
end
