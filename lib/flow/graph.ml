type edge_id = int

type 'tag edge = {
  id : edge_id;
  src : int;
  dst : int;
  capacity : float;
  cost : float;
  tag : 'tag;
}

(* Edges are consed newest first; the id-indexed edge array and the
   insertion-order adjacency lists are built from them on first use and
   dropped by the next [add_edge].  Building a graph stays a cons per
   edge, and reading a built one allocates nothing. *)
type 'tag t = {
  n : int;
  mutable edges_rev : 'tag edge list;
  mutable count : int;
  mutable cache : 'tag edge array option;
  mutable adj : (edge_id list array * edge_id list array) option;
}

let create ~n =
  assert (n >= 0);
  { n; edges_rev = []; count = 0; cache = None; adj = None }

let add_edge t ~src ~dst ~capacity ~cost tag =
  assert (src >= 0 && src < t.n && dst >= 0 && dst < t.n);
  assert (capacity >= 0.0 && Float.is_finite capacity);
  assert (Float.is_finite cost);
  let id = t.count in
  t.edges_rev <- { id; src; dst; capacity; cost; tag } :: t.edges_rev;
  t.count <- id + 1;
  t.cache <- None;
  t.adj <- None;
  id

let n_vertices t = t.n
let n_edges t = t.count

let build_edge_array t =
  match t.edges_rev with
  | [] -> [||]
  | last :: _ ->
      let a = Array.make t.count last in
      List.iter (fun e -> a.(e.id) <- e) t.edges_rev;
      t.cache <- Some a;
      a

let edge_array t = match t.cache with Some a -> a | None -> build_edge_array t

let edge t id =
  assert (id >= 0 && id < t.count);
  (edge_array t).(id)

(* Out- and in-edge id lists per vertex, in insertion order. *)
let adjacency t =
  match t.adj with
  | Some adj -> adj
  | None ->
      let out_adj = Array.make (max t.n 1) [] in
      let in_adj = Array.make (max t.n 1) [] in
      let es = edge_array t in
      for id = Array.length es - 1 downto 0 do
        let e = es.(id) in
        out_adj.(e.src) <- id :: out_adj.(e.src);
        in_adj.(e.dst) <- id :: in_adj.(e.dst)
      done;
      t.adj <- Some (out_adj, in_adj);
      (out_adj, in_adj)

let out_edges t v = (fst (adjacency t)).(v)
let in_edges t v = (snd (adjacency t)).(v)
let edges t = Array.to_list (edge_array t)

let iter_edges f t =
  let a = edge_array t in
  for id = 0 to Array.length a - 1 do
    f a.(id)
  done

let fold_edges f acc t =
  let a = edge_array t in
  let acc = ref acc in
  for id = 0 to Array.length a - 1 do
    acc := f !acc a.(id)
  done;
  !acc

let filter t pred =
  let g = create ~n:t.n in
  iter_edges
    (fun e ->
      if pred e then
        ignore
          (add_edge g ~src:e.src ~dst:e.dst ~capacity:e.capacity ~cost:e.cost
             e.tag))
    t;
  g

let map_edges t f =
  let g = create ~n:t.n in
  iter_edges
    (fun e ->
      let capacity, cost, tag = f e in
      ignore (add_edge g ~src:e.src ~dst:e.dst ~capacity ~cost tag))
    t;
  g

let pp pp_tag fmt t =
  Format.fprintf fmt "graph n=%d m=%d@." t.n t.count;
  iter_edges
    (fun e ->
      Format.fprintf fmt "  #%d %d->%d cap=%.2f cost=%.2f tag=%a@." e.id e.src
        e.dst e.capacity e.cost pp_tag e.tag)
    t
