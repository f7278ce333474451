(* Deterministic fleet-size perf sweep behind `rwc bench`.

   Each sweep point runs the full adaptive pipeline on a synthetic
   backbone of the requested duct count — armed journal, periodic
   checkpoints, a restore pass — plus two side workloads for the
   phases the runner does not exercise directly (the collector ingest
   path and the min-cost solver), then snapshots the phase profiler
   into one trajectory point.  Everything is seeded, so two sweeps on
   the same build produce identical counts (timings differ, which is
   what the diff tolerances are for). *)

module Metrics = Rwc_obs.Metrics
module Trajectory = Rwc_perf.Trajectory

type opts = {
  sizes : int list;
  days : float;
  seed : int;
  label : string;
  progress : bool;
  domains : int;
  te_interval_h : float;
  top_demands : int;
  epsilon : float;
}

let quick =
  { sizes = [ 50; 200 ]; days = 1.0; seed = 7; label = "quick";
    progress = false; domains = 1; te_interval_h = 12.0; top_demands = 20;
    epsilon = 0.3 }

(* A quarter sim-day keeps the 2000-duct point's TE-solve bill near
   two minutes instead of eight; cross-label comparisons are not a
   diff use case, so [full] and [quick] need not share a horizon. *)
let full =
  { quick with sizes = [ 50; 200; 1000; 2000 ]; days = 0.25; label = "full" }

(* 50k ducts — a fleet serving millions of users.  The TE solver is
   sequential and superlinear in fleet size, so the workload knobs are
   chosen to keep it a bounded slice of the point (few demands, coarse
   epsilon, one scheduled recompute) while the parallel phases —
   trace generation and the per-duct observe pass — carry the bulk of
   the work and scale with [domains]. *)
let hyperscale =
  { quick with sizes = [ 50_000 ]; days = 0.05; label = "hyperscale";
    te_interval_h = 24.0; top_demands = 4; epsilon = 0.5 }

(* Scratch directory for the journal + checkpoints of one point. *)
let with_temp_dir f =
  let base = Filename.get_temp_dir_name () in
  let rec fresh i =
    let dir =
      Filename.concat base
        (Printf.sprintf "rwc_bench_%d_%d" (Unix.getpid ()) i)
    in
    if Sys.file_exists dir then fresh (i + 1)
    else begin
      Unix.mkdir dir 0o700;
      dir
    end
  in
  let dir = fresh 0 in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

(* Collector ingest over an n-link-wide trace vector: the runner owns
   its own per-duct sampling loop, so the fleet-wide poll path is
   exercised here, at sweep width. *)
let collector_workload ~n_links ~seed =
  let rng = Rwc_stats.Rng.create (0xc011 lxor seed) in
  let trace =
    Array.init n_links (fun i -> 15.0 +. 3.0 *. sin (float_of_int i))
  in
  for _ = 1 to 64 do
    ignore (Rwc_telemetry.Collector.poll rng trace ~loss_prob:0.02)
  done

(* Min-cost max-flow across the synthetic graph: the TE path uses the
   multicommodity solver, so [Mincost] gets its own workload. *)
let mincost_workload backbone =
  let g =
    Rwc_topology.Backbone.to_graph backbone
      ~capacity_of:(fun _ -> 400.0)
      ~cost_of:(fun d -> d.Rwc_topology.Backbone.route_km)
  in
  let n = Rwc_topology.Backbone.n_cities backbone in
  for k = 1 to 4 do
    ignore (Rwc_flow.Mincost.solve g ~src:0 ~dst:(n - 1 - (k mod 2)))
  done

let run_point ~opts ~n_links =
  with_temp_dir (fun dir ->
      Rwc_perf.reset ();
      let backbone = Rwc_topology.Backbone.synthetic ~ducts:n_links ~seed:opts.seed in
      let m_events = Metrics.counter "des/events_dispatched" in
      let ev0 = Metrics.value m_events in
      let journal_path = Filename.concat dir "bench.jsonl" in
      let (), wall_s =
        Metrics.timed (fun () ->
            let ctx, _, jnl =
              match
                Rwc_recover.open_run ~dir ~every:24
                  ~journal_path:(Some journal_path) ~slo:Rwc_journal.Slo.none
                  ~faults:Rwc_fault.none ~resume:false ~seed:opts.seed
                  ~days:opts.days
              with
              | Ok v -> v
              | Error e -> failwith ("bench: " ^ e)
            in
            (* A bench point must stay tractable at 2000 (and 50k)
               ducts, where the default TE knobs would spend hours in
               the solver: coarser epsilon and a truncated demand set
               keep each solve bounded while the solver-vs-fleet-size
               signal (and every other phase) is fully preserved.
               These are part of the workload definition — changing
               them resets the baseline. *)
            let config =
              {
                Runner.default_config with
                Runner.days = opts.days;
                te_interval_h = opts.te_interval_h;
                seed = opts.seed;
                top_demands = opts.top_demands;
                epsilon = opts.epsilon;
                journal = jnl;
                progress = opts.progress;
                domains = opts.domains;
              }
            in
            ignore
              (Runner.run_recoverable ~config ~backbone ~ctx ~resume_from:None
                 ~policies:[ Runner.Adaptive Runner.Efficient ] ());
            (match Rwc_recover.load_latest dir with
            | Ok _ -> ()
            | Error e -> failwith ("bench: restore: " ^ e));
            collector_workload ~n_links ~seed:opts.seed;
            mincost_workload backbone)
      in
      let events = Metrics.value m_events - ev0 in
      let phases =
        List.map
          (fun (p, (s : Rwc_perf.phase_stats)) ->
            ( Rwc_perf.phase_name p,
              {
                Trajectory.ph_count = s.Rwc_perf.count;
                ph_total_s = s.Rwc_perf.total_s;
                ph_p50_s = s.Rwc_perf.p50_s;
                ph_p95_s = s.Rwc_perf.p95_s;
                ph_max_s = s.Rwc_perf.max_s;
                ph_alloc_words = s.Rwc_perf.alloc_words;
                ph_par_busy_s = s.Rwc_perf.par_busy_s;
                ph_par_wall_s = s.Rwc_perf.par_wall_s;
              } ))
          (Rwc_perf.snapshot ())
      in
      {
        Trajectory.n_links = Array.length backbone.Rwc_topology.Backbone.ducts;
        wall_s;
        events;
        events_per_s =
          (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0);
        peak_heap_words = Rwc_perf.peak_heap_words ();
        phases;
      })

let run opts =
  (* The sweep owns the process-global profiler and metrics registry;
     both are restored so `bench` composes with whatever the caller
     armed. *)
  let perf_was = Rwc_perf.enabled () in
  let metrics_was = Metrics.enabled () in
  Rwc_perf.enable ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not perf_was then Rwc_perf.disable ();
      if not metrics_was then Metrics.disable ())
    (fun () ->
      let points = List.map (fun n -> run_point ~opts ~n_links:n) opts.sizes in
      Trajectory.make ~label:opts.label ~domains:opts.domains points)
