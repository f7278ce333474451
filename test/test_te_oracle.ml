(* Bit-equality oracle for the TE solver's hot loop.  The incremental
   dual and the search workspace must not change a single result bit:
   Multicommodity.solve is compared with the reference solver of
   ref_te.ml (lambda, per-edge flow and per-commodity routed amount, by
   their IEEE bits), and Shortest.dijkstra with the reference list-based
   search (the exact edge-id path).  The random multigraphs carry
   parallel edges, zero-capacity edges, equal-cost ties and unreachable
   pairs. *)

open Rwc_flow
module Mc = Multicommodity

type edge_spec = { s : int; d : int; cap : float; cost : float }
type spec = { n : int; edges : edge_spec list }

(* Few distinct capacities and small integer costs, so bottlenecks and
   path costs tie often; capacity 0 appears about one edge in six. *)
let gen_spec =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    let endpoint = int_bound (n - 1) in
    let edge =
      map4
        (fun s d cap cost -> { s; d; cap; cost })
        endpoint endpoint
        (oneofl [ 0.0; 1.0; 2.5; 4.0; 10.0; 0.3 ])
        (oneofl [ 0.0; 1.0; 1.0; 2.0; 3.0 ])
    in
    list_size (int_range 0 (3 * n)) edge >>= fun edges ->
    (* Copy a few edges verbatim: parallel edges with equal cost. *)
    list_size (int_bound 3) (int_bound 1000) >|= fun picks ->
    let edges = List.filter (fun e -> e.s <> e.d) edges in
    let dups =
      match edges with
      | [] -> []
      | _ -> List.map (fun i -> List.nth edges (i mod List.length edges)) picks
    in
    { n; edges = edges @ dups })

let build spec =
  let g = Graph.create ~n:spec.n in
  List.iter
    (fun e -> ignore (Graph.add_edge g ~src:e.s ~dst:e.d ~capacity:e.cap ~cost:e.cost ()))
    spec.edges;
  g

let print_spec spec =
  Printf.sprintf "n=%d edges=[%s]" spec.n
    (String.concat "; "
       (List.map (fun e -> Printf.sprintf "%d->%d cap=%g cost=%g" e.s e.d e.cap e.cost) spec.edges))

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

let same_array a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

(* Commodities over arbitrary ordered pairs, so some are unreachable. *)
let gen_case =
  QCheck.Gen.(
    gen_spec >>= fun spec ->
    let endpoint = int_bound (spec.n - 1) in
    let com =
      map3
        (fun s d demand -> (s, d, demand))
        endpoint endpoint
        (oneofl [ 0.5; 1.0; 3.0; 7.5 ])
    in
    list_size (int_range 1 6) com >|= fun coms ->
    let coms = List.filter (fun (s, d, _) -> s <> d) coms in
    let coms = if coms = [] then [ (0, 1, 1.0) ] else coms in
    (spec, coms))

let arbitrary_case =
  QCheck.make gen_case ~print:(fun (spec, coms) ->
      Printf.sprintf "%s coms=[%s]" (print_spec spec)
        (String.concat "; "
           (List.map (fun (s, d, x) -> Printf.sprintf "%d->%d:%g" s d x) coms)))

let prop_solve_bit_equal epsilon =
  QCheck.Test.make
    ~name:(Printf.sprintf "mcf bit-equal to the reference solver (eps %g)" epsilon)
    ~count:150 arbitrary_case (fun (spec, coms) ->
      let g = build spec in
      let commodities =
        Array.of_list (List.map (fun (src, dst, demand) -> { Mc.src; dst; demand }) coms)
      in
      let a = Mc.solve ~epsilon g commodities in
      let b = Ref_te.Multicommodity_ref.solve ~epsilon g commodities in
      same_bits a.Mc.lambda b.Mc.lambda
      && same_array a.Mc.flow b.Mc.flow
      && same_array a.Mc.routed b.Mc.routed)

(* Every ordered pair: Dijkstra under the graph's own costs and under a
   cost override with ties plus a usable filter dropping zero-capacity
   edges, as the solver searches, and Yen's four shortest paths. *)
let prop_dijkstra_equal =
  QCheck.Test.make ~name:"dijkstra and yen paths equal the reference search" ~count:300
    (QCheck.make gen_spec ~print:print_spec) (fun spec ->
      let g = build spec in
      let usable eid = (Graph.edge g eid).Graph.capacity > 0.0 in
      let cost eid = float_of_int ((eid * 7) mod 3) in
      let ok = ref true in
      for src = 0 to spec.n - 1 do
        for dst = 0 to spec.n - 1 do
          if src <> dst then begin
            let same a b = if a <> b then ok := false in
            same (Shortest.dijkstra g ~src ~dst) (Ref_te.Shortest_ref.dijkstra g ~src ~dst);
            same
              (Shortest.dijkstra ~usable ~cost g ~src ~dst)
              (Ref_te.Shortest_ref.dijkstra ~usable ~cost g ~src ~dst);
            if
              Shortest.k_shortest g ~src ~dst ~k:4
              <> Ref_te.Shortest_ref.k_shortest g ~src ~dst ~k:4
            then ok := false
          end
        done
      done;
      !ok)

(* The paper's backbone as TE sees it: the north_america graph of a
   fresh Netstate (physical edges plus their fake twins) and the
   runner's top gravity demands at its default demand fraction. *)
let na_input () =
  let config = Rwc_sim.Runner.default_config in
  let backbone = Rwc_topology.Backbone.north_america in
  let net =
    Rwc_sim.Netstate.make ~wavelengths:config.Rwc_sim.Runner.wavelengths
      ~seed:config.Rwc_sim.Runner.seed backbone
  in
  let static_total =
    float_of_int
      (Array.length net.Rwc_sim.Netstate.ducts * config.Rwc_sim.Runner.wavelengths
     * Rwc_optical.Modulation.default_gbps)
  in
  let demands =
    Rwc_topology.Traffic.gravity_top_k backbone ~total_gbps:1.0
      ~k:config.Rwc_sim.Runner.top_demands
  in
  let kept = List.fold_left (fun acc d -> acc +. d.Rwc_topology.Traffic.gbps) 0.0 demands in
  let scale = config.Rwc_sim.Runner.demand_fraction *. static_total /. kept in
  let demands =
    List.map
      (fun d -> { d with Rwc_topology.Traffic.gbps = d.Rwc_topology.Traffic.gbps *. scale })
      demands
  in
  (Rwc_sim.Netstate.graph net, Rwc_topology.Traffic.to_commodities demands)

let test_na_bit_equal () =
  let g, commodities = na_input () in
  List.iter
    (fun epsilon ->
      let a = Mc.solve ~epsilon g commodities in
      let b = Ref_te.Multicommodity_ref.solve ~epsilon g commodities in
      Alcotest.(check bool)
        (Printf.sprintf "eps %g bit-equal" epsilon)
        true
        (same_bits a.Mc.lambda b.Mc.lambda
        && same_array a.Mc.flow b.Mc.flow
        && same_array a.Mc.routed b.Mc.routed))
    [ 0.12; 0.3 ]

(* After warm-up a workspace search allocates nothing: 1000 searches
   over the north_america TE input's demand pairs, under MCF-style
   lengths (infinity on zero-capacity edges), add no minor-heap word. *)
let test_search_no_alloc () =
  let g, commodities = na_input () in
  let ws = Shortest.workspace g in
  let cost =
    Array.init (Graph.n_edges g) (fun e ->
        let c = (Graph.edge g e).Graph.capacity in
        if c > 0.0 then 1.0 /. c else infinity)
  in
  let n_com = Array.length commodities in
  let found = ref 0 in
  let run k =
    let c = commodities.(k mod n_com) in
    if Shortest.search ws ~cost ~src:c.Mc.src ~dst:c.Mc.dst > 0 then incr found
  in
  for k = 0 to 99 do
    run k
  done;
  let w0 = Gc.minor_words () in
  for k = 0 to 999 do
    run k
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "paths found" true (!found >= 1000);
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

let suite =
  Alcotest.test_case "north america bit-equal" `Quick test_na_bit_equal
  :: Alcotest.test_case "workspace search allocates nothing" `Quick test_search_no_alloc
  :: List.map QCheck_alcotest.to_alcotest
       (prop_dijkstra_equal :: List.map prop_solve_bit_equal [ 0.05; 0.1; 0.3; 0.5 ])
