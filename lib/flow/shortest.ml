type path = Graph.edge_id list

let path_cost g p =
  List.fold_left (fun acc e -> acc +. (Graph.edge g e).Graph.cost) 0.0 p

let path_capacity g p =
  List.fold_left
    (fun acc e -> Float.min acc (Graph.edge g e).Graph.capacity)
    infinity p

(* One reusable search state per graph.  Out-adjacency is in CSR form
   (the edges leaving v are adj.(adj_start.(v)) .. adj.(adj_start.(v+1)
   - 1), in insertion order).  [dist]/[prev] hold a value only where
   [seen] carries the current epoch and a vertex is settled only where
   [settled] does, so starting a search is one increment instead of
   three n-sized fills.  The heap is a binary min-heap kept as parallel
   priority/vertex arrays; every search pushes at most once per relaxed
   edge plus the source, so m + 1 slots never overflow. *)
type workspace = {
  adj_start : int array;
  adj : int array;
  edge_src : int array;
  edge_dst : int array;
  dist : float array;
  prev : int array;
  seen : int array;
  settled : int array;
  mutable epoch : int;
  heap_prio : float array;
  heap_vert : int array;
  mutable heap_size : int;
  path : int array;
}

let workspace g =
  let n = Graph.n_vertices g and m = Graph.n_edges g in
  let adj_start = Array.make (n + 1) 0 in
  let edge_src = Array.make m 0 and edge_dst = Array.make m 0 in
  Graph.iter_edges
    (fun e ->
      edge_src.(e.Graph.id) <- e.Graph.src;
      edge_dst.(e.Graph.id) <- e.Graph.dst;
      adj_start.(e.Graph.src + 1) <- adj_start.(e.Graph.src + 1) + 1)
    g;
  for v = 1 to n do
    adj_start.(v) <- adj_start.(v) + adj_start.(v - 1)
  done;
  let fill = Array.sub adj_start 0 (max n 1) in
  let adj = Array.make m 0 in
  for eid = 0 to m - 1 do
    let v = edge_src.(eid) in
    adj.(fill.(v)) <- eid;
    fill.(v) <- fill.(v) + 1
  done;
  let nv = max n 1 in
  {
    adj_start;
    adj;
    edge_src;
    edge_dst;
    dist = Array.make nv infinity;
    prev = Array.make nv (-1);
    seen = Array.make nv 0;
    settled = Array.make nv 0;
    epoch = 0;
    heap_prio = Array.make (m + 1) 0.0;
    heap_vert = Array.make (m + 1) 0;
    heap_size = 0;
    path = Array.make nv 0;
  }

let path ws = ws.path

let heap_swap ws a b =
  let p = ws.heap_prio.(a) and v = ws.heap_vert.(a) in
  ws.heap_prio.(a) <- ws.heap_prio.(b);
  ws.heap_vert.(a) <- ws.heap_vert.(b);
  ws.heap_prio.(b) <- p;
  ws.heap_vert.(b) <- v

(* Pushes [v] keyed by its current distance (passing the key as a float
   argument would box it). *)
let heap_push ws v =
  let prios = ws.heap_prio in
  prios.(ws.heap_size) <- ws.dist.(v);
  ws.heap_vert.(ws.heap_size) <- v;
  ws.heap_size <- ws.heap_size + 1;
  let i = ref (ws.heap_size - 1) in
  while !i > 0 && prios.((!i - 1) / 2) > prios.(!i) do
    let p = (!i - 1) / 2 in
    heap_swap ws p !i;
    i := p
  done

(* Drops the minimum; the caller has read it from slot 0. *)
let heap_pop ws =
  let prios = ws.heap_prio in
  ws.heap_size <- ws.heap_size - 1;
  let size = ws.heap_size in
  prios.(0) <- prios.(size);
  ws.heap_vert.(0) <- ws.heap_vert.(size);
  let i = ref 0 and looping = ref true in
  while !looping do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < size && prios.(l) < prios.(!s) then s := l;
    if r < size && prios.(r) < prios.(!s) then s := r;
    if !s = !i then looping := false
    else begin
      heap_swap ws !i !s;
      i := !s
    end
  done

let search ws ~cost ~src ~dst =
  ws.epoch <- ws.epoch + 1;
  let epoch = ws.epoch in
  let dist = ws.dist and seen = ws.seen and settled = ws.settled in
  dist.(src) <- 0.0;
  seen.(src) <- epoch;
  ws.heap_size <- 0;
  heap_push ws src;
  while ws.heap_size > 0 && settled.(dst) <> epoch do
    let d = ws.heap_prio.(0) and v = ws.heap_vert.(0) in
    heap_pop ws;
    if settled.(v) <> epoch && d <= dist.(v) +. 1e-12 then begin
      settled.(v) <- epoch;
      if v <> dst then
        for k = ws.adj_start.(v) to ws.adj_start.(v + 1) - 1 do
          let eid = ws.adj.(k) in
          let c = cost.(eid) in
          assert (c >= 0.0);
          let nd = dist.(v) +. c in
          let w = ws.edge_dst.(eid) in
          let dw = if seen.(w) = epoch then dist.(w) else infinity in
          if nd < dw -. 1e-12 then begin
            dist.(w) <- nd;
            seen.(w) <- epoch;
            ws.prev.(w) <- eid;
            heap_push ws w
          end
        done
    end
  done;
  if seen.(dst) <> epoch then -1
  else begin
    (* Walk back from dst, then reverse in place. *)
    let len = ref 0 and v = ref dst in
    while !v <> src do
      let eid = ws.prev.(!v) in
      ws.path.(!len) <- eid;
      incr len;
      v := ws.edge_src.(eid)
    done;
    let len = !len in
    for k = 0 to (len / 2) - 1 do
      let t = ws.path.(k) in
      ws.path.(k) <- ws.path.(len - 1 - k);
      ws.path.(len - 1 - k) <- t
    done;
    len
  end

let path_of ws len =
  if len < 0 then None else Some (List.init len (fun k -> ws.path.(k)))

let dijkstra ?(usable = fun _ -> true) ?cost g ~src ~dst =
  let edge_cost =
    match cost with
    | Some f -> f
    | None -> fun eid -> (Graph.edge g eid).Graph.cost
  in
  let ws = workspace g in
  let cost =
    Array.init (Graph.n_edges g) (fun eid ->
        if usable eid then edge_cost eid else infinity)
  in
  path_of ws (search ws ~cost ~src ~dst)

let bellman_ford g ~src =
  let n = Graph.n_vertices g in
  let dist = Array.make n infinity in
  dist.(src) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    if !rounds > n then
      invalid_arg "Shortest.bellman_ford: negative-cost cycle";
    Graph.iter_edges
      (fun e ->
        if Float.is_finite dist.(e.Graph.src) then begin
          let nd = dist.(e.Graph.src) +. e.Graph.cost in
          if nd < dist.(e.Graph.dst) -. 1e-12 then begin
            dist.(e.Graph.dst) <- nd;
            changed := true
          end
        end)
      g
  done;
  dist

(* Yen's k-shortest loopless paths.  Every search runs on one
   workspace: a spur search masks its removed edges by setting their
   cost to infinity, and restores them afterwards. *)
let k_shortest g ~src ~dst ~k =
  assert (k >= 0);
  let ws = workspace g in
  let base = Array.init (Graph.n_edges g) (fun eid -> (Graph.edge g eid).Graph.cost) in
  let cost = Array.copy base in
  match path_of ws (search ws ~cost ~src ~dst) with
  | None -> []
  | Some first ->
      let vertices_of p =
        src :: List.map (fun eid -> (Graph.edge g eid).Graph.dst) p
      in
      let accepted = ref [ first ] in
      let candidates = ref [] in
      (* Candidate paths, deduplicated by edge-id list. *)
      let add_candidate p =
        let cost = path_cost g p in
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
          let masked =
            banned_edges
            @ List.concat_map
                (fun v -> Graph.out_edges g v @ Graph.in_edges g v)
                root_interior
          in
          List.iter (fun eid -> cost.(eid) <- infinity) masked;
          let spur_path = path_of ws (search ws ~cost ~src:spur ~dst) in
          List.iter (fun eid -> cost.(eid) <- base.(eid)) masked;
          match spur_path with
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
        List.sort (fun a b -> compare (path_cost g a) (path_cost g b)) !accepted
      in
      take_prefix sorted k
