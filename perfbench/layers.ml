(* Per-layer measurement: the traced pass (Rwc_perf profiler, Rwc_obs
   metrics and trace armed together), the counters it reads back, and
   the layer replays the benchmark times from outside the program. *)

open Measure
module Perf = Rwc_perf
module Metrics = Rwc_obs.Metrics
module Trace = Rwc_obs.Trace
module Runner = Rwc_sim.Runner

(* ---------------------------------------------------------------- *)
(* Arming                                                             *)
(* ---------------------------------------------------------------- *)

let arm () =
  Perf.reset ();
  Perf.enable ();
  Metrics.reset ();
  Metrics.enable ();
  Trace.enable ()

let disarm () =
  Perf.disable ();
  Metrics.disable ();
  Trace.disable ()

(* The benchmark's own spans, around each call it makes into a layer.
   They record only while tracing is armed. *)
let span name f = Trace.with_span ("bench/" ^ name) f

(* Run [f] with only the trace armed: the replays of the traced run. *)
let with_spans f =
  Trace.enable ();
  Fun.protect ~finally:Trace.disable f

let counter name = Metrics.value (Metrics.counter name)

(* Allocation and collections over a pass. *)
type gc_delta = { alloc_mwords : float; minor : int; major : int }

let gc_delta (a : gc_mark) (b : gc_mark) =
  { alloc_mwords = (b.words -. a.words) /. 1e6; minor = b.minor - a.minor; major = b.major - a.major }

(* An untraced pass, timed and with its GC deltas.  Allocation is read
   here rather than from a traced pass: the profiler boxes a float each
   time a phase sees a new fastest or slowest call, so traced
   allocation moves with timing by a few words. *)
let untraced f =
  let a = gc_mark () in
  let v, wall_s = timed f in
  let b = gc_mark () in
  (v, wall_s, gc_delta a b)

(* Result of one traced pass: the profiler and registry readings plus
   the GC and wall-clock deltas the benchmark took around it. *)
type pass = {
  wall_s : float;
  phases : (Perf.phase * Perf.phase_stats) list;
  mcf_phases : int;
  mcf_paths : int;
  des_events : int;
  te_ms : float list;  (* every [te/mcf] span, exact to the microsecond *)
  gc : gc_delta;
}

type started = { g0 : gc_mark; t0 : float }

let start () =
  arm ();
  let g0 = gc_mark () in
  { g0; t0 = now_s () }

let finish s =
  let wall_s = now_s () -. s.t0 in
  let gc1 = gc_mark () in
  let p =
    {
      wall_s;
      phases = Perf.snapshot ();
      mcf_phases = counter "mcf/phases";
      mcf_paths = counter "mcf/augmenting_paths";
      des_events = counter "des/events_dispatched";
      te_ms =
        List.filter_map
          (fun sp -> if sp.Trace.name = "te/mcf" then Some (sp.Trace.dur *. 1e3) else None)
          (Trace.spans ());
      gc = gc_delta s.g0 gc1;
    }
  in
  disarm ();
  p

let traced f =
  let s = start () in
  let v = f () in
  (v, finish s)

let phase p ph =
  match List.assoc_opt ph p.phases with
  | Some s -> s
  | None ->
      {
        Perf.count = 0;
        total_s = 0.0;
        p50_s = 0.0;
        p95_s = 0.0;
        max_s = 0.0;
        alloc_words = 0.0;
        par_busy_s = 0.0;
        par_wall_s = 0.0;
      }

(* The counts the exact-repeat check holds fixed at one seed: from a
   traced pass, and allocation from an untraced one. *)
let repeat_counts p (gc : gc_delta) =
  [
    ("te.solves", float_of_int (phase p Perf.Te_solve).Perf.count);
    ("te.augmenting_paths", float_of_int p.mcf_paths);
    ("journal.events", float_of_int (phase p Perf.Journal_emit).Perf.count);
    ("loop.des_events", float_of_int p.des_events);
    ("gc.alloc_mwords", gc.alloc_mwords);
  ]

(* Layer metrics every workload reports from its traced pass.  Rwc_perf
   phases are inclusive (adapt_step contains journal_emit, des_drain
   contains te_solve); the notes say so and nothing sums them.  Solve
   percentiles come from the [te/mcf] trace spans: Rwc_perf's own are
   log-bucket midpoints, which read the same from run to run. *)
let common_metrics ?gc p =
  let gc, gc_note = match gc with Some g -> (g, "untraced pass") | None -> (p.gc, "traced pass") in
  let te = phase p Perf.Te_solve in
  let adapt = phase p Perf.Adapt_step in
  let gen = phase p Perf.Telemetry_gen in
  let emit = phase p Perf.Journal_emit in
  [
    metric "te.solves" "count" (float_of_int te.Perf.count);
    metric "te.solve_p50_ms" "ms" (median p.te_ms) ~note:"te/mcf spans, inclusive";
    (let t = tail ~want:0.95 p.te_ms in
     metric "te.solve_p95_ms" "ms" t.value
       ~note:(Printf.sprintf "te/mcf spans, inclusive, p%.3g of n=%d" (100.0 *. t.level) t.samples));
    metric "te.phases" "count" (float_of_int p.mcf_phases);
    metric "te.augmenting_paths" "count" (float_of_int p.mcf_paths);
    metric "te.alloc_mwords" "Mword" (te.Perf.alloc_words /. 1e6);
    metric "te.share" "1" (te.Perf.total_s /. p.wall_s) ~note:"te_solve time / traced wall";
    metric "loop.adapt_step_s" "s" adapt.Perf.total_s
      ~note:"inclusive of guard, rollout and journal work";
    metric "loop.des_events" "count" (float_of_int p.des_events);
    metric "telemetry.gen_s" "s" gen.Perf.total_s;
    metric "journal.events" "count" (float_of_int emit.Perf.count);
    metric "journal.emit_s" "s" emit.Perf.total_s;
    metric "gc.alloc_mwords" "Mword" gc.alloc_mwords ~note:("minor-heap words, " ^ gc_note);
    metric "gc.minor_collections" "count" (float_of_int gc.minor) ~note:gc_note;
    metric "gc.major_collections" "count" (float_of_int gc.major) ~note:gc_note;
  ]

let recover_metrics p =
  let w = phase p Perf.Checkpoint_write in
  [
    metric "recover.checkpoints" "count" (float_of_int w.Perf.count);
    metric "recover.write_p50_ms" "ms" (w.Perf.p50_s *. 1e3) ~note:"Rwc_perf log-bucket midpoint";
  ]

let report_metrics (r : Runner.report) =
  [
    metric "loop.reconfigs" "count" (float_of_int r.Runner.reconfigurations);
    metric "loop.flaps" "count" (float_of_int r.Runner.flaps);
  ]

let guard_rollout_metrics (r : Runner.report) =
  let g =
    match r.Runner.guard_stats with
    | None -> []
    | Some g ->
        [
          metric "guard.suppressed_upshifts" "count"
            (float_of_int g.Rwc_guard.suppressed_upshifts);
          metric "guard.quarantines" "count" (float_of_int g.Rwc_guard.quarantines);
          metric "guard.admission_deferred" "count"
            (float_of_int g.Rwc_guard.admission_deferred);
          metric "guard.stale_freezes" "count" (float_of_int g.Rwc_guard.stale_freezes);
          metric "guard.watchdog_trips" "count" (float_of_int g.Rwc_guard.watchdog_trips);
        ]
  in
  let ro =
    match r.Runner.rollout_stats with
    | None -> []
    | Some s ->
        let adm = s.Rwc_rollout.links_admitted
        and def = s.Rwc_rollout.links_deferred in
        [
          metric "rollout.started" "count" (float_of_int s.Rwc_rollout.rollouts_started);
          metric "rollout.waves" "count" (float_of_int s.Rwc_rollout.waves_committed);
          metric "rollout.gates_failed" "count" (float_of_int s.Rwc_rollout.gates_failed);
          metric "rollout.admitted" "count" (float_of_int adm);
          metric "rollout.deferred" "count" (float_of_int def);
          metric "rollout.rolled_back" "count"
            (float_of_int s.Rwc_rollout.links_rolled_back);
          metric "rollout.admit_ratio" "1"
            (if adm + def = 0 then 0.0 else float_of_int adm /. float_of_int (adm + def))
            ~note:"admitted / (admitted + deferred)";
        ]
  in
  g @ ro

(* ---------------------------------------------------------------- *)
(* Replays timed from outside                                         *)
(* ---------------------------------------------------------------- *)

(* The day-one TE input of a run, rebuilt the way [Runner] builds it:
   every duct at its initial denomination, the gravity matrix cut to
   the top demands and rescaled so the offered load is the configured
   fraction of the static-100G fleet capacity. *)
let te_input (config : Runner.config) backbone =
  let net =
    Rwc_sim.Netstate.make ~wavelengths:config.Runner.wavelengths
      ~seed:config.Runner.seed backbone
  in
  let static_total =
    float_of_int
      (Array.length net.Rwc_sim.Netstate.ducts * config.Runner.wavelengths
     * Rwc_optical.Modulation.default_gbps)
  in
  let demands =
    Rwc_topology.Traffic.gravity_top_k backbone ~total_gbps:1.0
      ~k:config.Runner.top_demands
  in
  let kept =
    List.fold_left (fun acc d -> acc +. d.Rwc_topology.Traffic.gbps) 0.0 demands
  in
  let scale = config.Runner.demand_fraction *. static_total /. kept in
  let demands =
    List.map
      (fun d -> { d with Rwc_topology.Traffic.gbps = d.Rwc_topology.Traffic.gbps *. scale })
      demands
  in
  (Rwc_sim.Netstate.graph net, Rwc_topology.Traffic.to_commodities demands)

(* Feasibility of a TE result: per-edge flow within capacity, per
   commodity routed within demand, and a positive concurrent fraction
   lambda = min routed/demand.  Returns lambda and the violations
   found. *)
let te_check g commodities (r : Rwc_core.Te.result) =
  let tol x = (x *. 1e-9) +. 1e-9 in
  let bad = ref [] in
  Rwc_flow.Graph.iter_edges
    (fun e ->
      let f = r.Rwc_core.Te.flow.(e.Rwc_flow.Graph.id) in
      let c = e.Rwc_flow.Graph.capacity in
      if f > c +. tol c then
        bad := Printf.sprintf "edge %d: flow %g > capacity %g" e.Rwc_flow.Graph.id f c :: !bad)
    g;
  let lambda = ref infinity in
  Array.iteri
    (fun j (c : Rwc_flow.Multicommodity.commodity) ->
      let routed = r.Rwc_core.Te.routed.(j) in
      let d = c.Rwc_flow.Multicommodity.demand in
      if routed > d +. tol d then
        bad := Printf.sprintf "commodity %d: routed %g > demand %g" j routed d :: !bad;
      lambda := Float.min !lambda (routed /. d))
    commodities;
  if not (!lambda > 0.0) then bad := Printf.sprintf "lambda %g <= 0" !lambda :: !bad;
  (!lambda, List.rev !bad)

type replay = { replay_ms : float; lambda : float; violations : string list }

(* [Te.mcf] on the day-one input, [times] times: the median solve time
   in ms, the concurrent fraction, and every result's violations. *)
let te_replay ?(times = 5) config backbone =
  let g, commodities = te_input config backbone in
  let epsilon = config.Runner.epsilon in
  let runs =
    List.init times (fun _ ->
        let r, dt =
          timed (fun () -> span "te.replay" (fun () -> Rwc_core.Te.mcf ~epsilon g commodities))
        in
        (dt *. 1e3, te_check g commodities r))
  in
  {
    replay_ms = median (List.map fst runs);
    lambda = (match runs with (_, (l, _)) :: _ -> l | [] -> nan);
    violations = List.concat_map (fun (_, (_, v)) -> v) runs;
  }

let replay_metrics r =
  [
    metric "te.replay_ms" "ms" r.replay_ms ~note:"Te.mcf on the day-one input, median of 5";
    metric "te.replay_lambda" "1" r.lambda ~note:"min routed/demand of the replay";
  ]

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
