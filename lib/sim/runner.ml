module Backbone = Rwc_topology.Backbone
module Modulation = Rwc_optical.Modulation
module Adapt = Rwc_core.Adapt
module Snr_model = Rwc_telemetry.Snr_model
module Detect = Rwc_telemetry.Detect

type procedure = Stock | Efficient

type policy = Static_100 | Static_max | Adaptive of procedure

let policy_name = function
  | Static_100 -> "static-100G"
  | Static_max -> "static-max"
  | Adaptive Stock -> "adaptive-stock-bvt"
  | Adaptive Efficient -> "adaptive-efficient-bvt"

(* A read-only (plus one explicitly-reverting what-if) window onto a
   running — or just-finished — policy run, handed to [hooks.on_run_start].
   The serve daemon is the intended consumer: the closures stay valid
   after [run_policy] returns, so RPCs keep answering from the final
   state while the daemon lingers. *)
type duct_view = {
  dv_link : int;
  dv_gbps : int;  (* per-wavelength denomination; 0 = dark *)
  dv_up : bool;
  dv_snr_db : float;
  dv_reconfiguring : bool;
}

type live = {
  lv_policy : string;
  lv_n_ducts : int;
  lv_rollout : Rwc_rollout.t option;
      (* the run's staged-commit engine; None on a static policy, where
         there are no discretionary upgrades to stage *)
  lv_now : unit -> float;  (* simulation seconds *)
  lv_duct : int -> duct_view;  (* Invalid_argument out of range *)
  lv_peek : link:int -> snr_db:float -> Rwc_core.Adapt.action option;
      (* pure controller preview; None on a static policy *)
  lv_routed_gbps : unit -> float;
  lv_capacity_gbps : unit -> float;
  lv_whatif : link:int -> gbps:int -> float * float;
      (* (routed now, routed if the link ran at [gbps]); reverts *)
}

type hooks = {
  on_run_start : (live -> unit) option;
  on_sweep : (k:int -> now_s:float -> events:int -> unit) option;
      (* every SNR sample boundary, before the sweep's mutations *)
  progress_extra : (unit -> string) option;
      (* extra segment for the --progress heartbeat line *)
}

let no_hooks = { on_run_start = None; on_sweep = None; progress_extra = None }

type config = {
  days : float;
  te_interval_h : float;
  seed : int;
  wavelengths : int;
  demand_fraction : float;
  top_demands : int;
  epsilon : float;
  faults : Rwc_fault.plan;
  retry : Orchestrator.retry_policy;
  guard : Rwc_guard.plan;
  rollout : Rwc_rollout.plan;
  journal : Rwc_journal.t;
  progress : bool;  (* stderr heartbeat for long runs *)
  domains : int;  (* Rwc_par pool width; 1 = plain sequential loop *)
  hooks : hooks;  (* all None (the default) = byte-identical run *)
}

let default_config =
  {
    days = 60.0;
    te_interval_h = 6.0;
    seed = 7;
    wavelengths = 4;
    demand_fraction = 0.75;
    top_demands = 40;
    epsilon = 0.12;
    faults = Rwc_fault.none;
    retry = Orchestrator.default_retry_policy;
    guard = Rwc_guard.none;
    rollout = Rwc_rollout.none;
    journal = Rwc_journal.disarmed;
    progress = false;
    domains = 1;
    hooks = no_hooks;
  }

type fault_stats = {
  injected : int;
  bvt_failures : int;
  retries : int;
  fallbacks : int;
  stuck_transitions : int;
  te_delays : int;
}

type report = {
  policy : policy;
  delivered_pbit : float;
  offered_pbit : float;
  avg_throughput_gbps : float;
  avg_capacity_gbps : float;
  duct_availability : float;
  failures : int;
  flaps : int;
  reconfigurations : int;
  reconfig_downtime_s : float;
  fault_stats : fault_stats option;
  guard_stats : Rwc_guard.stats option;
  rollout_stats : Rwc_rollout.stats option;
  slo : Rwc_journal.Slo.summary option;
}

(* Per-duct bookkeeping private to a run. *)
type duct_run = {
  state : Netstate.duct_state;
  trace : float array;
  controller : Adapt.state option;  (* Some for adaptive policies *)
  mutable reconfiguring : bool;
}

module Metrics = Rwc_obs.Metrics
module Trace = Rwc_obs.Trace

let m_te_recompute = Metrics.histogram "te/recompute"
let m_te_count = Metrics.counter "te/recomputes"
let m_snr_sweep = Metrics.histogram "sim/snr_sweep"
let m_failures = Metrics.counter "sim/failures"
let m_flaps = Metrics.counter "sim/flaps"
let m_reconfigs = Metrics.counter "sim/reconfigurations"
let m_downtime = Metrics.fcounter "sim/reconfig_downtime_s"

(* The in-run reconfiguration accounting is the runner playing
   orchestrator: the traffic the last TE round routed over a duct is
   disrupted for the duration of the capacity change.  The standalone
   {!Orchestrator} feeds the same metrics, retry and fallback counters
   included. *)
let m_disrupted = Metrics.fcounter "orchestrator/disrupted_gbit"
let m_retries = Metrics.counter "orchestrator/retries"
let m_fallbacks = Metrics.counter "orchestrator/fallbacks"
let m_te_delayed = Metrics.counter "te/recomputes_delayed"
let m_slo_met = Metrics.counter "slo/links_met"
let m_slo_violated = Metrics.counter "slo/links_violated"

let downtime_mean_s = function
  | Stock ->
      let l = Rwc_optical.Bvt.default_latency in
      l.Rwc_optical.Bvt.laser_off_mean_s +. l.Rwc_optical.Bvt.reprogram_mean_s
      +. l.Rwc_optical.Bvt.laser_on_relock_mean_s
  | Efficient -> Rwc_optical.Bvt.default_latency.Rwc_optical.Bvt.dsp_reconfig_mean_s

(* What the controller wants to do, in the guard's vocabulary; [None]
   for actions that need no screening. *)
let intent_of = function
  | Adapt.No_change | Adapt.Stuck _ -> None
  | Adapt.Step_up _ -> Some Rwc_guard.Up_shift
  | Adapt.Step_down _ -> Some Rwc_guard.Down_shift
  | Adapt.Go_dark _ -> Some Rwc_guard.Dark
  | Adapt.Come_back _ -> Some Rwc_guard.Recover

(* The same decision in the journal's vocabulary, with the capacity
   move spelled out; [None] for the cases that start no chain. *)
let journal_intent_of = function
  | Adapt.No_change | Adapt.Stuck _ -> None
  | Adapt.Step_up { from_gbps; to_gbps } ->
      Some (Rwc_journal.Step_up, from_gbps, to_gbps)
  | Adapt.Step_down { from_gbps; to_gbps } ->
      Some (Rwc_journal.Step_down, from_gbps, to_gbps)
  | Adapt.Go_dark { from_gbps } -> Some (Rwc_journal.Go_dark, from_gbps, 0)
  | Adapt.Come_back { to_gbps } -> Some (Rwc_journal.Come_back, 0, to_gbps)

let journal_verdict_of = function
  | Rwc_guard.Allow -> Rwc_journal.Admitted
  | Rwc_guard.Suppress Rwc_guard.Quarantined -> Rwc_journal.Damped
  | Rwc_guard.Suppress Rwc_guard.Admission -> Rwc_journal.Deferred
  | Rwc_guard.Suppress Rwc_guard.Stale -> Rwc_journal.Stale_data
  | Rwc_guard.Suppress Rwc_guard.Global_hold -> Rwc_journal.Held

(* [recover] arms crash-safe checkpointing: the context carries the
   stop flag, checkpoint cadence and crash oracle, and the callback
   persists a captured {!Rwc_recover.run_state} together with the
   journal's high-water mark.  [restore] starts the run from a
   checkpoint instead of from scratch.  Both default to [None], and
   every recovery hook below is gated so the disarmed path stays
   byte-identical to a build without the recover layer. *)
(* The control loop splits into two kinds of state, and the split is
   what makes [--domains N] byte-identical to the sequential run:

   - {e shard-local} (safe to touch from any domain, owned by one
     duct): the duct's SNR trace and its RNG substream, its controller
     and detectors, its slot in the per-duct scratch arrays.  The
     parallel phases below — trace generation at init, the per-sweep
     observe pass — touch only this.
   - {e fleet-global} (domain 0 only): the TE state, the DES queue,
     the journal, the guard, every counter and float accumulator
     (float addition does not reassociate), and the shared fault /
     reconfig RNG streams whose draw order is part of the byte
     contract.  Decisions always commit through this path in
     duct-index order. *)
let run_policy ~config ~backbone ?recover ?restore policy =
  assert (config.days > 0.0 && config.te_interval_h > 0.0);
  assert (config.domains >= 1);
  let pool = Rwc_par.create ~domains:config.domains in
  Fun.protect ~finally:(fun () -> Rwc_par.shutdown pool) @@ fun () ->
  (* One injector per policy run, compiled from the plan seed: every
     policy sees the same fault pattern, and a plan with no rules is a
     disarmed injector that draws nothing — keeping the fault-free run
     bit-identical to the pre-fault-layer simulator. *)
  let inj =
    if Rwc_fault.is_none config.faults then Rwc_fault.disarmed
    else Rwc_fault.compile config.faults
  in
  let retries = ref 0
  and fallbacks = ref 0 in
  let net = Netstate.make ~wavelengths:config.wavelengths ~seed:config.seed backbone in
  (* The guard's shared-risk groups: every duct fanning out of the
     same city rides shared conduit near that city, so its endpoint-a
     index stands in for the fiber/cable group of Section 2.  With the
     plan [none] this is the disarmed guard, which holds no state and
     answers without branching on any of it. *)
  let guard =
    Rwc_guard.create config.guard
      ~n_links:(Array.length net.Netstate.ducts)
      ~group_of:(fun i ->
        net.Netstate.ducts.(i).Netstate.duct.Backbone.a)
  in
  (* Telemetry imperfections only enter the control loop through the
     guard's staleness tracking, so the collector fault channels are
     queried exactly when the guard is armed for an adaptive policy:
     with the guard off, the run is bit-identical to a build without
     the guard layer even under an armed fault plan. *)
  let guard_telemetry =
    Rwc_guard.armed guard
    && (match policy with Adaptive _ -> true | Static_100 | Static_max -> false)
  in
  (* The decision journal.  Disarmed (the default) every emit below is
     a flag check and nothing else, and the run is byte-identical to a
     build without the journal layer. *)
  let jnl = config.journal in
  let jarmed = Rwc_journal.armed jnl in
  (* The staged-rollout engine sits between the controller's decision
     and the BVT commit: guard-allowed capacity {e upgrades} are
     screened through [admit] below, and the engine's [sweep] runs at
     every sample boundary to close waves, evaluate health gates and
     direct rollbacks.  With the plan [none] (and no RPC-installed
     proposal) every call is a flag check and the run stays
     byte-identical to a build without this layer. *)
  let rollout =
    Rwc_rollout.create config.rollout
      ~n_links:(Array.length net.Netstate.ducts)
      ~group_of:(fun i -> net.Netstate.ducts.(i).Netstate.duct.Backbone.a)
      ~seed:config.seed
      ~horizon_s:(config.days *. 86_400.0)
      ~journal:jnl ~guard
  in
  (* Online anomaly detection rides the journal: one EWMA and one
     CUSUM detector per duct, tuned to the duct's own baseline and
     stationary wander, firing first-class [Anomaly] events.  Only
     instantiated for an armed journal, so the disarmed path allocates
     nothing. *)
  let detectors =
    if not jarmed then None
    else
      Some
        (Array.map
           (fun (d : Netstate.duct_state) ->
             let baseline_db = d.Netstate.snr_params.Snr_model.baseline_db in
             let sigma_db =
               Rwc_stats.Timeseries.ar1_stationary_sigma
                 d.Netstate.snr_params.Snr_model.wander
             in
             ( Detect.Ewma.create ~baseline_db ~sigma_db (),
               Detect.Cusum.create ~baseline_db ~sigma_db () ))
           net.Netstate.ducts)
  in
  (* Edge-triggered journal events need last-seen state: freeze and
     quarantine are episodes, recorded once at entry (and, for
     quarantine, once at release). *)
  let n_ducts = Array.length net.Netstate.ducts in
  let freeze_seen = Array.make n_ducts false in
  let quar_seen = Array.make n_ducts false in
  (* EWMA alarms persist while the level shift lasts; journal the
     onset, not every alarming sample (CUSUM already self-resets). *)
  let ewma_alarming = Array.make n_ducts false in
  (* Per-sweep scratch filled by the (possibly parallel) observe pass
     — each duct writes only its own slot — and consumed by the
     sequential commit pass in duct-index order.  Dead between sweeps,
     so checkpoints never carry it. *)
  let obs_ewma = Array.make n_ducts false in
  let obs_cusum = Array.make n_ducts false in
  let obs_now_up = Array.make n_ducts false in
  let years = config.days /. 365.25 in
  let trace_root = Rwc_stats.Rng.create (config.seed + 1) in
  let reconfig_rng = Rwc_stats.Rng.create (config.seed + 2) in
  (* Fleet SNR/telemetry generation, fanned out over the pool: each
     duct's trace comes from its own [Rng.substream] (a pure hash of
     the root state and the duct index, no draw from the shared
     stream), so the result is independent of which domain generates
     which duct.  Everything mutated here is the duct's own state. *)
  let ducts =
    let busy0, wall0 = Rwc_par.totals pool in
    let ducts =
      Rwc_par.parallel_init pool n_ducts (fun i ->
          let d = net.Netstate.ducts.(i) in
          let rng = Rwc_stats.Rng.substream trace_root d.Netstate.duct_index in
          let trace, _ = Snr_model.generate rng d.Netstate.snr_params ~years in
          (* Policy-specific initialisation. *)
          let controller =
            match policy with
            | Static_100 ->
                d.Netstate.per_lambda_gbps <- Modulation.default_gbps;
                None
            | Static_max ->
                (* Fix at the day-one feasible denomination, never adapt. *)
                d.Netstate.per_lambda_gbps <-
                  max Modulation.default_gbps
                    (Modulation.feasible_gbps
                       d.Netstate.snr_params.Snr_model.baseline_db);
                None
            | Adaptive _ ->
                Some (Adapt.create ~initial_gbps:Modulation.default_gbps ())
          in
          { state = d; trace; controller; reconfiguring = false })
    in
    let busy1, wall1 = Rwc_par.totals pool in
    Rwc_perf.par_add Rwc_perf.Telemetry_gen ~busy_s:(busy1 -. busy0)
      ~wall_s:(wall1 -. wall0);
    ducts
  in
  (* On restore the segment header and opening commits are already in
     the journal's retained prefix; re-emitting them would duplicate
     the segment. *)
  if Option.is_none restore then begin
    Rwc_journal.start_run jnl ~policy:(policy_name policy) ~seed:config.seed
      ~horizon_s:(config.days *. 86_400.0) ~n_links:n_ducts;
    (* Opening commits: every link's timeline starts from its day-one
       denomination, so a per-link `rwc explain` view is never empty. *)
    if jarmed then
      Array.iter
        (fun dr ->
          Rwc_journal.commit jnl ~link:dr.state.Netstate.duct_index ~now:0.0
            ~gbps:dr.state.Netstate.per_lambda_gbps ~up:dr.state.Netstate.up)
        ducts
  end;
  (* Offered traffic: gravity matrix scaled to a fraction of the
     static-100G fleet capacity. *)
  let static_total =
    float_of_int
      (Array.length net.Netstate.ducts * config.wavelengths
     * Modulation.default_gbps)
  in
  (* Gravity matrix truncated to the biggest pairs for TE speed, then
     rescaled so the OFFERED load (not the pre-truncation total) is the
     requested fraction of the static network's capacity. *)
  let demands =
    Rwc_topology.Traffic.gravity_top_k backbone ~total_gbps:1.0
      ~k:config.top_demands
  in
  let kept = List.fold_left (fun acc d -> acc +. d.Rwc_topology.Traffic.gbps) 0.0 demands in
  let scale = config.demand_fraction *. static_total /. kept in
  let demands =
    List.map
      (fun d -> { d with Rwc_topology.Traffic.gbps = d.Rwc_topology.Traffic.gbps *. scale })
      demands
  in
  let commodities = Rwc_topology.Traffic.to_commodities demands in
  let offered_gbps =
    Array.fold_left
      (fun acc c -> acc +. c.Rwc_flow.Multicommodity.demand)
      0.0 commodities
  in
  (* Counters. *)
  let failures = ref 0
  and flaps = ref 0
  and reconfigs = ref 0
  and downtime = ref 0.0 in
  let delivered_gbit = ref 0.0 in
  let capacity_acc = ref 0.0
  in
  let up_acc = ref 0.0
  and duct_obs = ref 0 in
  (* Flow currently routed over each duct (both directions), from the
     last TE computation: a reconfiguring duct loses this much traffic
     for the duration of the change. *)
  let duct_flow = Array.make (Array.length net.Netstate.ducts) 0.0 in
  (* Fraction of the current sample interval each duct spent usable;
     1.0 unless a reconfiguration started in this sample. *)
  let sample_up_fraction = Array.make (Array.length net.Netstate.ducts) 1.0 in
  let engine = Des.create () in
  let horizon_s = config.days *. 86_400.0 in
  let sample_s = Snr_model.sample_interval_s in
  let n_samples = int_of_float (horizon_s /. sample_s) in
  (* DES handlers are closures and cannot be serialized, so an armed
     recovery context shadows the event queue with reconstructible
     descriptors, kept in scheduling order: the restore path re-arms
     them in the same order, so same-time ties break exactly as the
     Event_queue's insertion-sequence tie-break broke them in the
     uninterrupted run.  Disarmed, both hooks are a flag check. *)
  let rec_armed = Option.is_some recover in
  let pending : (int * Rwc_recover.pending) list ref = ref [] in
  let pending_seq = ref 0 in
  let note_pending (p : Rwc_recover.pending) =
    if not rec_armed then 0
    else begin
      incr pending_seq;
      pending := !pending @ [ (!pending_seq, p) ];
      !pending_seq
    end
  in
  let drop_pending id =
    if rec_armed then pending := List.filter (fun (i, _) -> i <> id) !pending
  in
  (* Event-driven TE with time-integral accounting: the current
     routed total earns credit until the next recomputation, and any
     topology change (failure, recovery, reconfiguration) marks the
     state dirty so TE reacts at the next sweep, as a production
     controller would. *)
  let last_te_time = ref 0.0 in
  let current_total = ref 0.0 in
  let current_capacity = ref 0.0 in
  let te_dirty = ref true in
  let flush_te now =
    let dt = now -. !last_te_time in
    if dt > 0.0 then begin
      delivered_gbit := !delivered_gbit +. (!current_total *. dt);
      capacity_acc := !capacity_acc +. (!current_capacity *. dt);
      last_te_time := now
    end
  in
  let recompute_te now =
    Trace.with_span "te/recompute" (fun () ->
        Metrics.time m_te_recompute (fun () ->
            Metrics.incr m_te_count;
            flush_te now;
            let g = Netstate.graph net in
            let te = Rwc_core.Te.mcf ~epsilon:config.epsilon g commodities in
            current_total := te.Rwc_core.Te.total_gbps;
            (* Edges 2i and 2i+1 are duct i's two directions, in
               construction order. *)
            Array.iteri
              (fun i _ ->
                duct_flow.(i) <-
                  te.Rwc_core.Te.flow.(2 * i)
                  +. te.Rwc_core.Te.flow.((2 * i) + 1))
              duct_flow;
            current_capacity :=
              Array.fold_left
                (fun acc (d : Netstate.duct_state) ->
                  acc +. Netstate.capacity_gbps d)
                0.0 net.Netstate.ducts;
            te_dirty := false))
  in
  (* The reconfiguration machinery lives at run scope (not inside the
     per-sample closure) so the restore path can rebuild in-flight
     attempt chains from pending-event descriptors.  [begin_attempt]
     starts attempt [n] (drawing its duration), [finish_attempt] is
     the completion handler with the fault/retry/fallback outcome
     logic — together they are the old nested [attempt] loop. *)
  let attempt_mean =
    match policy with
    | Adaptive p -> downtime_mean_s p
    | Static_100 | Static_max -> 0.0
  in
  (* Time a duct spends unusable — attempt durations, injected stalls
     and retry backoffs alike — costs the traffic TE had routed over
     it. *)
  let charge_duct (d : Netstate.duct_state) dt =
    downtime := !downtime +. dt;
    Metrics.addf m_downtime dt;
    delivered_gbit :=
      !delivered_gbit -. (duct_flow.(d.Netstate.duct_index) *. dt);
    Metrics.addf m_disrupted (duct_flow.(d.Netstate.duct_index) *. dt)
  in
  let finish_duct dr gbps =
    dr.reconfiguring <- false;
    dr.state.Netstate.per_lambda_gbps <- gbps;
    dr.state.Netstate.up <- true;
    Rwc_guard.release guard ~link:dr.state.Netstate.duct_index;
    te_dirty := true
  in
  let rec begin_attempt dr ctl ~new_gbps ~prev_gbps n =
    let d = dr.state in
    let dt =
      Float.min sample_s
        (Rwc_stats.Rng.lognormal_of_mean reconfig_rng ~mean:attempt_mean
           ~cv:0.35)
    in
    charge_duct d dt;
    if n = 1 then
      sample_up_fraction.(d.Netstate.duct_index) <- 1.0 -. (dt /. sample_s);
    let id =
      note_pending
        {
          Rwc_recover.p_kind = Rwc_recover.Finish_attempt;
          p_link = d.Netstate.duct_index;
          p_new_gbps = new_gbps;
          p_prev_gbps = prev_gbps;
          p_attempt = n;
          p_at = Des.now engine +. dt;
        }
    in
    Des.schedule_in engine ~after:dt (fun _ ->
        drop_pending id;
        finish_attempt dr ctl ~new_gbps ~prev_gbps n)
  and finish_attempt dr ctl ~new_gbps ~prev_gbps n =
    let d = dr.state in
    let i = d.Netstate.duct_index in
    let now = Des.now engine in
    let timed_out = Rwc_fault.fires inj Rwc_fault.Bvt_timeout ~now in
    let failed =
      timed_out || Rwc_fault.fires inj Rwc_fault.Bvt_reconfig ~now
    in
    if not failed then begin
      Rwc_journal.fault jnl ~link:i ~now Rwc_journal.Committed ~attempt:n;
      (* A rollback directive may have hit this link mid-attempt; the
         DES has no cancel, so the attempt completes and then lands on
         the pre-rollout rate — but only downward: an override never
         raises capacity over an in-flight down-shift. *)
      let final =
        match Rwc_rollout.take_override rollout ~link:i with
        | Some pre when pre < new_gbps -> pre
        | Some _ | None -> new_gbps
      in
      if final <> new_gbps then Adapt.force ctl ~gbps:final;
      finish_duct dr final;
      Rwc_journal.commit jnl ~link:i ~now ~gbps:final ~up:true
    end
    else begin
      if timed_out then charge_duct d (Rwc_fault.param inj Rwc_fault.Bvt_timeout);
      Rwc_journal.fault jnl ~link:i ~now
        (if timed_out then Rwc_journal.Timed_out else Rwc_journal.Failed)
        ~attempt:n;
      if n < config.retry.Orchestrator.max_attempts then begin
        incr retries;
        Metrics.incr m_retries;
        Rwc_journal.fault jnl ~link:i ~now Rwc_journal.Retried ~attempt:n;
        let delay = Orchestrator.backoff_delay config.retry ~attempt:n in
        charge_duct d delay;
        let id =
          note_pending
            {
              Rwc_recover.p_kind = Rwc_recover.Begin_attempt;
              p_link = i;
              p_new_gbps = new_gbps;
              p_prev_gbps = prev_gbps;
              p_attempt = n + 1;
              p_at = now +. delay;
            }
        in
        Des.schedule_in engine ~after:delay (fun _ ->
            drop_pending id;
            begin_attempt dr ctl ~new_gbps ~prev_gbps (n + 1))
      end
      else begin
        (* Retries exhausted: graceful degradation.  The change never
           committed, so the duct stays at its pre-upgrade modulation;
           the controller is resynced to the device so it can
           requalify honestly.  A flap, not a failure. *)
        incr fallbacks;
        Metrics.incr m_fallbacks;
        incr flaps;
        Metrics.incr m_flaps;
        Rwc_rollout.note_flap rollout ~now;
        (* The chain died at its pre-upgrade rate, which is where any
           pending rollback override wanted it anyway. *)
        ignore (Rwc_rollout.take_override rollout ~link:i);
        Rwc_journal.fault jnl ~link:i ~now Rwc_journal.Fell_back ~attempt:n;
        Adapt.force ctl ~gbps:prev_gbps;
        finish_duct dr prev_gbps;
        Rwc_journal.commit jnl ~link:i ~now ~gbps:prev_gbps ~up:true
      end
    end
  in
  (* Apply one rollback directive from a failed gate (or abort).  The
     revert is modeled as an administrative re-program at the sweep
     boundary — no RNG draw, no DES event — so an armed rollout stays
     deterministic and checkpoint-exact.  Links already at or below
     their pre-rollout rate (the controller down-shifted meanwhile) and
     dark links are left alone; a link mid-reconfiguration gets an
     override consumed when its attempt chain completes. *)
  let apply_rollback now (link, pre) =
    let dr = ducts.(link) in
    let d = dr.state in
    match dr.controller with
    | None -> ()
    | Some ctl ->
        if dr.reconfiguring then begin
          Rwc_rollout.set_override rollout ~link ~gbps:pre;
          Rwc_rollout.note_rolled_back rollout ~link ~now ~gbps:pre
        end
        else if d.Netstate.up && d.Netstate.per_lambda_gbps > pre then begin
          incr flaps;
          Metrics.incr m_flaps;
          Adapt.force ctl ~gbps:pre;
          d.Netstate.per_lambda_gbps <- pre;
          te_dirty := true;
          Rwc_rollout.note_rolled_back rollout ~link ~now ~gbps:pre;
          Rwc_journal.commit jnl ~link ~now ~gbps:pre ~up:true
        end
  in
  (* Shard-local half of a sweep: advance the duct's own detectors and
     evaluate its static threshold.  No shared RNG, no journal, no
     counters — safe on any domain; results land in the duct's scratch
     slots.  Per-duct detector state makes the outcome independent of
     cross-duct evaluation order, so observe-all-then-commit-all
     produces the same values the old interleaved loop did. *)
  let observe_duct dr k =
    let d = dr.state in
    (match detectors with
    | None -> ()
    | Some arr ->
        let i = d.Netstate.duct_index in
        let v = dr.trace.(k) in
        let ew, cu = arr.(i) in
        obs_ewma.(i) <- Detect.Ewma.observe ew v;
        obs_cusum.(i) <- Detect.Cusum.observe cu v);
    match policy with
    | Static_100 | Static_max ->
        (* Static denominations never change after init, so the
           threshold compare is pure per-duct work. *)
        let threshold =
          match Modulation.of_gbps d.Netstate.per_lambda_gbps with
          | Some m -> m.Modulation.min_snr_db
          | None -> Modulation.threshold_100g
        in
        obs_now_up.(d.Netstate.duct_index) <- dr.trace.(k) >= threshold
    | Adaptive _ -> ()
  in
  (* Fleet-global half: commit duct [dr]'s sample in duct-index order
     through the sequential journal/guard/TE/DES path. *)
  let apply_sample dr k sweep_lost =
    let d = dr.state in
    let now = float_of_int k *. sample_s in
    (* Detector firings are journaled before the sample's decision
       chain, so an explain timeline shows the alarm ahead of whatever
       the controller did about the same sample. *)
    (match detectors with
    | None -> ()
    | Some _ ->
        let i = d.Netstate.duct_index in
        let v = dr.trace.(k) in
        let ew_alarm = obs_ewma.(i) in
        if ew_alarm && not ewma_alarming.(i) then
          Rwc_journal.anomaly jnl ~link:i ~now Rwc_journal.Ewma ~snr_db:v;
        ewma_alarming.(i) <- ew_alarm;
        if obs_cusum.(i) then
          Rwc_journal.anomaly jnl ~link:i ~now Rwc_journal.Cusum ~snr_db:v);
    match policy with
    | Static_100 | Static_max ->
        d.Netstate.current_snr_db <- dr.trace.(k);
        let now_up = obs_now_up.(d.Netstate.duct_index) in
        if d.Netstate.up && not now_up then begin
          incr failures;
          Metrics.incr m_failures
        end;
        if d.Netstate.up <> now_up then begin
          te_dirty := true;
          Rwc_journal.observe jnl ~link:d.Netstate.duct_index ~now
            ~snr_db:dr.trace.(k) ~fresh:true;
          Rwc_journal.outage jnl ~link:d.Netstate.duct_index ~now ~up:now_up
        end;
        d.Netstate.up <- now_up
    | Adaptive _ -> (
        (* Without the guard the telemetry path is perfect, exactly as
           before the guard layer existed; the guarded path below owns
           the assignment so a lost sweep leaves the last-known value
           in place. *)
        if not (Rwc_guard.armed guard) then
          d.Netstate.current_snr_db <- dr.trace.(k);
        if not dr.reconfiguring then
          match dr.controller with
          | None -> assert false
          | Some ctl -> (
              let i = d.Netstate.duct_index in
              (* Quarantine is guard state that decays with time, so
                 its boundaries are found by polling (the query draws
                 no randomness and mutates nothing). *)
              (if (jarmed || Rwc_rollout.armed rollout) && Rwc_guard.armed guard
               then
                 let q = Rwc_guard.quarantined guard ~link:i ~now in
                 if q <> quar_seen.(i) then begin
                   quar_seen.(i) <- q;
                   Rwc_journal.guard jnl ~link:i ~now
                     (if q then Rwc_journal.Quarantined
                      else Rwc_journal.Released);
                   if q then Rwc_rollout.note_quarantine rollout ~now
                 end);
              let start_reconfig new_gbps =
                let prev_gbps = d.Netstate.per_lambda_gbps in
                incr reconfigs;
                Metrics.incr m_reconfigs;
                Rwc_guard.record_commit guard ~link:i ~now
                  (if prev_gbps = 0 then Rwc_guard.Recover
                   else if new_gbps > prev_gbps then Rwc_guard.Up_shift
                   else Rwc_guard.Down_shift);
                dr.reconfiguring <- true;
                d.Netstate.up <- false;
                begin_attempt dr ctl ~new_gbps ~prev_gbps 1
              in
              (* Telemetry layer.  With the guard armed the collector
                 fault channels come into play: a lost sweep or a
                 corrupted duct leaves [current_snr_db] at its
                 last-known value (LOCF) until the freeze horizon,
                 then the guard freezes the link, then forces it back
                 to the static baseline.  A stale sample never feeds an
                 up-shift — [screen] refuses them below. *)
              let snr =
                if not (Rwc_guard.armed guard) then Some (dr.trace.(k), true)
                else begin
                  let ok =
                    (not sweep_lost)
                    && not (Rwc_fault.fires inj Rwc_fault.Collector_corrupt ~now)
                  in
                  match Rwc_guard.note_telemetry guard ~link:i ~now ~ok with
                  | Rwc_guard.Feed ->
                      if jarmed then freeze_seen.(i) <- false;
                      d.Netstate.current_snr_db <- dr.trace.(k);
                      Some (dr.trace.(k), true)
                  | Rwc_guard.Feed_stale ->
                      (* Adapt on the held-over value; only down-shifts
                         can result (screen blocks stale up-shifts). *)
                      if jarmed then freeze_seen.(i) <- false;
                      Some (d.Netstate.current_snr_db, false)
                  | Rwc_guard.Freeze ->
                      (* An episode, not an event: journaled once at
                         entry, cleared when data comes back. *)
                      if jarmed && not freeze_seen.(i) then begin
                        freeze_seen.(i) <- true;
                        Rwc_journal.guard jnl ~link:i ~now Rwc_journal.Frozen
                      end;
                      None
                  | Rwc_guard.Force_static ->
                      (* Past the fallback horizon: park the link at
                         the static baseline.  Only ever a ratchet
                         DOWN — a dark link stays dark and a link at or
                         below 100G keeps its rate — because raising
                         capacity on no data would be flying blind. *)
                      if jarmed then freeze_seen.(i) <- false;
                      if d.Netstate.per_lambda_gbps > Modulation.default_gbps
                      then begin
                        (* The chain is journaled like any other
                           decision, with a stale observation (the
                           guard is acting on the absence of data). *)
                        if jarmed then begin
                          Rwc_journal.observe jnl ~link:i ~now
                            ~snr_db:d.Netstate.current_snr_db ~fresh:false;
                          Rwc_journal.intent jnl ~link:i ~now
                            Rwc_journal.Force_static
                            ~from_gbps:d.Netstate.per_lambda_gbps
                            ~to_gbps:Modulation.default_gbps;
                          Rwc_journal.guard jnl ~link:i ~now
                            Rwc_journal.Admitted
                        end;
                        Adapt.force ctl ~gbps:Modulation.default_gbps;
                        incr flaps;
                        Metrics.incr m_flaps;
                        Rwc_rollout.note_flap rollout ~now;
                        start_reconfig Modulation.default_gbps
                      end
                      else
                        Adapt.force ctl ~gbps:d.Netstate.per_lambda_gbps;
                      None
                end
              in
              match snr with
              | None -> ()
              | Some (snr_db, fresh) -> (
                  (* Screen the pending decision before [step] commits
                     it.  A suppressed decision leaves the controller's
                     qualification streak intact, so the change is
                     re-validated against fresh SNR when the guard
                     clears — the "queued changes re-validate"
                     semantics without an actual queue.  [peek] is pure
                     (no randomness, no state), so consulting it for
                     the journal alone changes nothing. *)
                  let decision =
                    if jarmed || Rwc_guard.armed guard
                       || Rwc_rollout.armed rollout
                    then Some (Adapt.peek ctl ~snr_db)
                    else None
                  in
                  let verdict =
                    match decision with
                    | None -> None
                    | Some a -> (
                        match intent_of a with
                        | None -> None
                        | Some intent ->
                            if Rwc_guard.armed guard then
                              Some (Rwc_guard.screen guard ~link:i ~now intent)
                            else Some Rwc_guard.Allow)
                  in
                  (if jarmed then
                     match decision with
                     | None -> ()
                     | Some a -> (
                         match (journal_intent_of a, verdict) with
                         | Some (act, from_gbps, to_gbps), Some v ->
                             Rwc_journal.observe jnl ~link:i ~now ~snr_db
                               ~fresh;
                             Rwc_journal.intent jnl ~link:i ~now act
                               ~from_gbps ~to_gbps;
                             Rwc_journal.guard jnl ~link:i ~now
                               (journal_verdict_of v)
                         | _ -> ()));
                  let allowed =
                    match verdict with
                    | Some (Rwc_guard.Suppress _) -> false
                    | Some Rwc_guard.Allow | None -> true
                  in
                  (* Change management screens last: of everything the
                     controller can want, only a guard-allowed upgrade
                     is discretionary, and the rollout engine may defer
                     it (over budget, baking, frozen, in maintenance).
                     A deferred decision is dropped exactly like a
                     guard suppression — the streak survives and the
                     controller re-decides against fresh SNR. *)
                  let admitted =
                    match decision with
                    | Some (Adapt.Step_up { from_gbps; to_gbps } as a)
                      when allowed && Adapt.is_upgrade a -> (
                        match
                          Rwc_rollout.admit rollout ~link:i ~now ~from_gbps
                            ~to_gbps
                        with
                        | Rwc_rollout.Admit -> true
                        | Rwc_rollout.Defer -> false)
                    | _ -> true
                  in
                  if allowed && admitted then
                    match Adapt.step ~faults:inj ~now ctl ~snr_db with
                    | Adapt.No_change -> ()
                    | Adapt.Stuck _ ->
                        (* Injected: the transition command was lost.  The
                           device keeps its rate; nothing to recompute. *)
                        Rwc_journal.fault jnl ~link:i ~now Rwc_journal.Stuck
                          ~attempt:1
                    | Adapt.Go_dark _ ->
                        incr failures;
                        Metrics.incr m_failures;
                        (* The outage feeds the oscillation watchdog (a
                           down event) but accrues no flap penalty and
                           takes no admission token: going dark is the
                           medium failing, not a BVT commit. *)
                        Rwc_guard.record_commit guard ~link:i ~now
                          Rwc_guard.Dark;
                        d.Netstate.per_lambda_gbps <- 0;
                        d.Netstate.up <- false;
                        te_dirty := true;
                        Rwc_journal.commit jnl ~link:i ~now ~gbps:0 ~up:false
                    | Adapt.Step_down { to_gbps; _ } ->
                        incr flaps;
                        Metrics.incr m_flaps;
                        Rwc_rollout.note_flap rollout ~now;
                        start_reconfig to_gbps
                    | Adapt.Step_up { to_gbps; _ } -> start_reconfig to_gbps
                    | Adapt.Come_back { to_gbps } -> start_reconfig to_gbps)))
  in
  (* Freeze the full run state as plain data.  Called at the entry of
     sweep [k], before any of the sweep's mutations, so the cut point
     is exactly "about to process sample k" — a state the restore path
     can re-enter by scheduling [snr_tick k] last. *)
  let capture k : Rwc_recover.run_state =
    {
      Rwc_recover.r_policy = policy_name policy;
      r_next_sample = k;
      r_failures = !failures;
      r_flaps = !flaps;
      r_reconfigs = !reconfigs;
      r_downtime_s = !downtime;
      r_delivered_gbit = !delivered_gbit;
      r_capacity_acc = !capacity_acc;
      r_up_acc = !up_acc;
      r_duct_obs = !duct_obs;
      r_retries = !retries;
      r_fallbacks = !fallbacks;
      r_last_te_time = !last_te_time;
      r_current_total = !current_total;
      r_current_capacity = !current_capacity;
      r_te_dirty = !te_dirty;
      r_duct_flow = Array.to_list duct_flow;
      r_reconfig_rng = Rwc_stats.Rng.raw_state reconfig_rng;
      r_ducts =
        Array.to_list
          (Array.mapi
             (fun i dr ->
               {
                 Rwc_recover.d_gbps = dr.state.Netstate.per_lambda_gbps;
                 d_up = dr.state.Netstate.up;
                 d_snr_db = dr.state.Netstate.current_snr_db;
                 d_reconfiguring = dr.reconfiguring;
                 d_ctl =
                   Option.map
                     (fun c -> (Adapt.capacity_gbps c, Adapt.qualify_streak c))
                     dr.controller;
                 d_det =
                   Option.map
                     (fun arr ->
                       let ew, cu = arr.(i) in
                       (Detect.Ewma.level ew, Detect.Cusum.statistic cu))
                     detectors;
                 d_freeze_seen = freeze_seen.(i);
                 d_quar_seen = quar_seen.(i);
                 d_ewma_alarming = ewma_alarming.(i);
               })
             ducts);
      r_pending = List.map snd !pending;
      r_faults =
        (if Rwc_fault.is_none config.faults then None
         else Some (Rwc_fault.snapshot_to_list (Rwc_fault.snapshot inj)));
      r_guard = Rwc_guard.snapshot guard;
      r_rollout = Rwc_rollout.snapshot rollout;
    }
  in
  (* The live window the hooks consumer (the serve daemon) sees.  Pure
     reads except [lv_whatif], which previews a capacity change by
     mutating the duct, rerunning TE on the hypothetical graph and
     reverting — guaranteed even on exceptions, so a hooked run stays
     byte-identical to an unhooked one. *)
  let live =
    let check link =
      if link < 0 || link >= Array.length ducts then
        invalid_arg (Printf.sprintf "Runner.live: link %d out of range" link)
    in
    {
      lv_policy = policy_name policy;
      lv_n_ducts = Array.length ducts;
      lv_rollout =
        (match policy with
        | Adaptive _ -> Some rollout
        | Static_100 | Static_max -> None);
      lv_now = (fun () -> Des.now engine);
      lv_duct =
        (fun link ->
          check link;
          let dr = ducts.(link) in
          {
            dv_link = link;
            dv_gbps = dr.state.Netstate.per_lambda_gbps;
            dv_up = dr.state.Netstate.up;
            dv_snr_db = dr.state.Netstate.current_snr_db;
            dv_reconfiguring = dr.reconfiguring;
          });
      lv_peek =
        (fun ~link ~snr_db ->
          check link;
          Option.map (fun ctl -> Adapt.peek ctl ~snr_db) ducts.(link).controller);
      lv_routed_gbps = (fun () -> !current_total);
      lv_capacity_gbps = (fun () -> !current_capacity);
      lv_whatif =
        (fun ~link ~gbps ->
          check link;
          let d = ducts.(link).state in
          let saved_gbps = d.Netstate.per_lambda_gbps in
          let saved_up = d.Netstate.up in
          let before = !current_total in
          Fun.protect
            ~finally:(fun () ->
              d.Netstate.per_lambda_gbps <- saved_gbps;
              d.Netstate.up <- saved_up)
            (fun () ->
              d.Netstate.per_lambda_gbps <- gbps;
              d.Netstate.up <- gbps > 0;
              let te =
                Rwc_core.Te.mcf ~epsilon:config.epsilon (Netstate.graph net)
                  commodities
              in
              (before, te.Rwc_core.Te.total_gbps)));
    }
  in
  (match config.hooks.on_run_start with Some f -> f live | None -> ());
  let heartbeat =
    if config.progress then
      Some
        (Rwc_perf.Progress.create ?extra:config.hooks.progress_extra
           ~label:(policy_name policy) ~total_days:config.days ())
    else None
  in
  let rec snr_tick k engine =
    (match heartbeat with
    | Some hb ->
        Rwc_perf.Progress.tick hb
          ~day:(float_of_int k *. sample_s /. 86400.0)
          ~events:(Des.dispatched engine)
    | None -> ());
    (* The sweep hook runs before any of this sample's mutations (and
       before the recovery cut), so a server pumping its clients here
       sees a consistent state, and a stop it requests via the recovery
       context is honored at this very boundary. *)
    (match config.hooks.on_sweep with
    | Some f ->
        f ~k ~now_s:(float_of_int k *. sample_s) ~events:(Des.dispatched engine)
    | None -> ());
    (match recover with
    | None -> ()
    | Some (ctx, save) ->
        (* Sample boundaries are the recovery points: the stop flag
           (SIGINT/SIGTERM) cuts a final checkpoint and unwinds, the
           periodic cadence cuts one every [every] sweeps, and the
           crash oracle kills the run for the restart loop to revive.
           Crash is drawn from the context's own injector — never
           [inj] — so fault_stats and the report stay byte-identical
           to a crash-free run. *)
        let marks_save k =
          let journal_events = Rwc_journal.events_emitted jnl in
          let journal_bytes = Rwc_journal.byte_offset jnl in
          save (capture k) ~journal_events ~journal_bytes
        in
        if ctx.Rwc_recover.stop then begin
          marks_save k;
          raise Rwc_recover.Interrupted
        end;
        if k > 0 && k mod ctx.Rwc_recover.every = 0 then marks_save k;
        let now = float_of_int k *. sample_s in
        if Rwc_fault.fires ctx.Rwc_recover.crash Rwc_fault.Crash ~now then
          raise (Rwc_recover.Crashed now));
    (* Staged-rollout boundary, after the recovery cut (so a resumed
       run re-enters here and repeats exactly this sweep's rollout
       work): apply queued mutating-RPC commands, close and bake
       waves, evaluate health gates, and physically revert whatever a
       failed gate or abort directed back.  Returns [] — without even
       allocating — while the engine is untouched. *)
    (match Rwc_rollout.sweep rollout ~now:(float_of_int k *. sample_s) with
    | [] -> ()
    | directives ->
        List.iter
          (apply_rollback (float_of_int k *. sample_s))
          directives);
    if k < n_samples then begin
      Trace.with_span "sim/snr_sweep" (fun () ->
          Metrics.time m_snr_sweep (fun () ->
              Array.fill sample_up_fraction 0
                (Array.length sample_up_fraction)
                1.0;
              (* A duct still mid-reconfiguration at sweep time is in a
                 retry chain (fault injection only: fault-free changes
                 always finish within their own sample) and spends this
                 whole sample down. *)
              Array.iter
                (fun dr ->
                  if dr.reconfiguring then
                    sample_up_fraction.(dr.state.Netstate.duct_index) <- 0.0)
                ducts;
              (* One collector outage loses the entire sweep (the
                 poller died); corruption is per-duct and drawn inside
                 [apply_sample].  Queried only when the guard cares —
                 see [guard_telemetry]. *)
              let sweep_lost =
                guard_telemetry
                && Rwc_fault.fires inj Rwc_fault.Collector_outage
                     ~now:(float_of_int k *. sample_s)
              in
              Rwc_perf.record Rwc_perf.Adapt_step (fun () ->
                  (* Observe in parallel (shard-local state only),
                     then commit sequentially in duct-index order. *)
                  let busy0, wall0 = Rwc_par.totals pool in
                  Rwc_par.iter_ranges pool ~n:n_ducts (fun ~lo ~hi ->
                      for i = lo to hi - 1 do
                        observe_duct ducts.(i) k
                      done);
                  let busy1, wall1 = Rwc_par.totals pool in
                  Rwc_perf.par_add Rwc_perf.Adapt_step
                    ~busy_s:(busy1 -. busy0) ~wall_s:(wall1 -. wall0);
                  Array.iter (fun dr -> apply_sample dr k sweep_lost) ducts);
              Array.iter
                (fun dr ->
                  let i = dr.state.Netstate.duct_index in
                  duct_obs := !duct_obs + 1;
                  up_acc :=
                    !up_acc
                    +.
                    if dr.reconfiguring then sample_up_fraction.(i)
                    else if dr.state.Netstate.up then 1.0
                    else 0.0)
                ducts));
      (if !te_dirty then
         if Rwc_fault.fires inj Rwc_fault.Te_delay ~now:(Des.now engine) then begin
           (* The TE controller reacts late: routing stays stale for
              the injected delay (the periodic te_tick cron is not
              affected).  The recomputation is re-checked on arrival —
              a te_tick may have cleaned the state meanwhile. *)
           Metrics.incr m_te_delayed;
           let after = Rwc_fault.param inj Rwc_fault.Te_delay in
           let id =
             note_pending
               {
                 Rwc_recover.p_kind = Rwc_recover.Te_recheck;
                 p_link = -1;
                 p_new_gbps = 0;
                 p_prev_gbps = 0;
                 p_attempt = 0;
                 p_at = Des.now engine +. after;
               }
           in
           Des.schedule_in engine ~after (fun engine ->
               drop_pending id;
               if !te_dirty then recompute_te (Des.now engine))
         end
         else recompute_te (Des.now engine));
      Des.schedule_in engine ~after:sample_s (snr_tick (k + 1))
    end
  in
  let te_interval_s = config.te_interval_h *. 3600.0 in
  let rec te_tick_at at =
    let id =
      note_pending
        {
          Rwc_recover.p_kind = Rwc_recover.Te_tick;
          p_link = -1;
          p_new_gbps = 0;
          p_prev_gbps = 0;
          p_attempt = 0;
          p_at = at;
        }
    in
    Des.schedule engine ~at (fun engine ->
        drop_pending id;
        recompute_te (Des.now engine);
        if Des.now engine +. te_interval_s <= horizon_s then
          te_tick_at (Des.now engine +. te_interval_s))
  in
  (* Rebuild a checkpointed run: overwrite every piece of state the
     fresh construction above got wrong, re-arm the pending events in
     their recorded order, and enter the event loop at the captured
     sweep.  The SNR traces, topology and demands are regenerated
     deterministically from the seeds, so only positions and
     accumulators travel through the checkpoint. *)
  let restore_from (rs : Rwc_recover.run_state) =
    if rs.Rwc_recover.r_policy <> policy_name policy then
      invalid_arg "Runner: checkpoint was cut under a different policy";
    if List.length rs.Rwc_recover.r_ducts <> Array.length ducts then
      invalid_arg "Runner: checkpoint fleet size mismatch";
    failures := rs.Rwc_recover.r_failures;
    flaps := rs.Rwc_recover.r_flaps;
    reconfigs := rs.Rwc_recover.r_reconfigs;
    downtime := rs.Rwc_recover.r_downtime_s;
    delivered_gbit := rs.Rwc_recover.r_delivered_gbit;
    capacity_acc := rs.Rwc_recover.r_capacity_acc;
    up_acc := rs.Rwc_recover.r_up_acc;
    duct_obs := rs.Rwc_recover.r_duct_obs;
    retries := rs.Rwc_recover.r_retries;
    fallbacks := rs.Rwc_recover.r_fallbacks;
    last_te_time := rs.Rwc_recover.r_last_te_time;
    current_total := rs.Rwc_recover.r_current_total;
    current_capacity := rs.Rwc_recover.r_current_capacity;
    te_dirty := rs.Rwc_recover.r_te_dirty;
    List.iteri (fun i f -> duct_flow.(i) <- f) rs.Rwc_recover.r_duct_flow;
    Rwc_stats.Rng.set_raw_state reconfig_rng rs.Rwc_recover.r_reconfig_rng;
    (match rs.Rwc_recover.r_faults with
    | None -> ()
    | Some snap -> Rwc_fault.restore inj (Rwc_fault.snapshot_of_list snap));
    (match rs.Rwc_recover.r_guard with
    | None -> ()
    | Some snap -> Rwc_guard.restore guard snap);
    (match rs.Rwc_recover.r_rollout with
    | None -> ()
    | Some snap -> Rwc_rollout.restore rollout snap);
    List.iteri
      (fun i (dd : Rwc_recover.duct) ->
        let dr = ducts.(i) in
        dr.state.Netstate.per_lambda_gbps <- dd.Rwc_recover.d_gbps;
        dr.state.Netstate.up <- dd.Rwc_recover.d_up;
        dr.state.Netstate.current_snr_db <- dd.Rwc_recover.d_snr_db;
        dr.reconfiguring <- dd.Rwc_recover.d_reconfiguring;
        (match (dr.controller, dd.Rwc_recover.d_ctl) with
        | Some ctl, Some (gbps, streak) -> Adapt.restore ctl ~gbps ~streak
        | None, None -> ()
        | _ -> invalid_arg "Runner: checkpoint controller shape mismatch");
        (match (detectors, dd.Rwc_recover.d_det) with
        | Some arr, Some (level, stat) ->
            let ew, cu = arr.(i) in
            Detect.Ewma.set_level ew level;
            Detect.Cusum.set_statistic cu stat
        | _ -> ());
        freeze_seen.(i) <- dd.Rwc_recover.d_freeze_seen;
        quar_seen.(i) <- dd.Rwc_recover.d_quar_seen;
        ewma_alarming.(i) <- dd.Rwc_recover.d_ewma_alarming)
      rs.Rwc_recover.r_ducts;
    let ctl_of dr =
      match dr.controller with
      | Some c -> c
      | None -> invalid_arg "Runner: pending attempt on a static policy"
    in
    List.iter
      (fun (p : Rwc_recover.pending) ->
        match p.Rwc_recover.p_kind with
        | Rwc_recover.Te_tick -> te_tick_at p.Rwc_recover.p_at
        | Rwc_recover.Te_recheck ->
            let id = note_pending p in
            Des.schedule engine ~at:p.Rwc_recover.p_at (fun engine ->
                drop_pending id;
                if !te_dirty then recompute_te (Des.now engine))
        | Rwc_recover.Begin_attempt ->
            let dr = ducts.(p.Rwc_recover.p_link) in
            let ctl = ctl_of dr in
            let id = note_pending p in
            Des.schedule engine ~at:p.Rwc_recover.p_at (fun _ ->
                drop_pending id;
                begin_attempt dr ctl ~new_gbps:p.Rwc_recover.p_new_gbps
                  ~prev_gbps:p.Rwc_recover.p_prev_gbps p.Rwc_recover.p_attempt)
        | Rwc_recover.Finish_attempt ->
            let dr = ducts.(p.Rwc_recover.p_link) in
            let ctl = ctl_of dr in
            let id = note_pending p in
            Des.schedule engine ~at:p.Rwc_recover.p_at (fun _ ->
                drop_pending id;
                finish_attempt dr ctl ~new_gbps:p.Rwc_recover.p_new_gbps
                  ~prev_gbps:p.Rwc_recover.p_prev_gbps p.Rwc_recover.p_attempt))
      rs.Rwc_recover.r_pending;
    (* The sweep tick was the youngest same-time event at the cut, so
       it is scheduled after every restored descriptor. *)
    Des.schedule engine
      ~at:(float_of_int rs.Rwc_recover.r_next_sample *. sample_s)
      (snr_tick rs.Rwc_recover.r_next_sample)
  in
  (match restore with
  | Some rs -> restore_from rs
  | None ->
      Des.schedule engine ~at:0.0 (snr_tick 0);
      te_tick_at 0.0);
  Des.run engine ~until:horizon_s;
  (match heartbeat with
  | Some hb -> Rwc_perf.Progress.finish hb
  | None -> ());
  flush_te horizon_s;
  let fault_stats =
    if Rwc_fault.is_none config.faults then None
    else
      Some
        {
          injected = Rwc_fault.injected inj;
          bvt_failures =
            Rwc_fault.injected_for inj Rwc_fault.Bvt_reconfig
            + Rwc_fault.injected_for inj Rwc_fault.Bvt_timeout;
          retries = !retries;
          fallbacks = !fallbacks;
          stuck_transitions = Rwc_fault.injected_for inj Rwc_fault.Adapt_stuck;
          te_delays = Rwc_fault.injected_for inj Rwc_fault.Te_delay;
        }
  in
  let guard_stats =
    if Rwc_guard.is_none config.guard then None
    else Some (Rwc_guard.stats guard)
  in
  (* Present exactly when the engine was ever touched — a CLI plan, or
     a mutating RPC arriving mid-run — so a rollout-free report stays
     byte-identical to a pre-rollout one. *)
  let rollout_stats =
    if Option.is_some (Rwc_rollout.snapshot rollout) then
      Some (Rwc_rollout.stats rollout)
    else None
  in
  (* Close the journal segment.  [Some] only when the sink carries an
     armed SLO plan — the report then grows an slo block and the
     scorecard counts land in the slo/* metrics. *)
  let slo = Rwc_journal.finish_run jnl in
  (match slo with
  | None -> ()
  | Some s ->
      Metrics.add m_slo_met s.Rwc_journal.Slo.met;
      Metrics.add m_slo_violated s.Rwc_journal.Slo.violated);
  {
    policy;
    delivered_pbit = !delivered_gbit /. 1e6;
    offered_pbit = offered_gbps *. horizon_s /. 1e6;
    avg_throughput_gbps = !delivered_gbit /. horizon_s;
    avg_capacity_gbps = !capacity_acc /. horizon_s;
    duct_availability =
      (if !duct_obs = 0 then 1.0 else !up_acc /. float_of_int !duct_obs);
    failures = !failures;
    flaps = !flaps;
    reconfigurations = !reconfigs;
    reconfig_downtime_s = !downtime;
    fault_stats;
    guard_stats;
    rollout_stats;
    slo;
  }

let run ?(config = default_config) ?(backbone = Backbone.north_america) policy =
  Trace.with_span
    ("sim/run/" ^ policy_name policy)
    (fun () -> run_policy ~config ~backbone policy)

let all_policies = [ Static_100; Static_max; Adaptive Stock; Adaptive Efficient ]

let compare_policies ?config ?backbone () =
  List.map (run ?config ?backbone) all_policies

type outcome =
  | Replayed of { policy : policy; pp : string; json : string }
  | Ran of report

let json_of_report r =
  (* The fault block is present exactly when the run had a fault plan:
     a --faults none report serializes byte-identically to one from
     before the fault layer existed. *)
  let fault_fields =
    match r.fault_stats with
    | None -> []
    | Some f ->
        [
          ( "faults",
            Rwc_obs.Json.Assoc
              [
                ("injected", Rwc_obs.Json.Int f.injected);
                ("bvt_failures", Rwc_obs.Json.Int f.bvt_failures);
                ("retries", Rwc_obs.Json.Int f.retries);
                ("fallbacks", Rwc_obs.Json.Int f.fallbacks);
                ("stuck_transitions", Rwc_obs.Json.Int f.stuck_transitions);
                ("te_delays", Rwc_obs.Json.Int f.te_delays);
              ] );
        ]
  in
  (* Same contract for the guard block: present exactly when the run
     had a guard plan, so --guard none stays byte-identical to a
     pre-guard report. *)
  let guard_fields =
    match r.guard_stats with
    | None -> []
    | Some g ->
        [
          ( "guard",
            Rwc_obs.Json.Assoc
              [
                ( "suppressed_upshifts",
                  Rwc_obs.Json.Int g.Rwc_guard.suppressed_upshifts );
                ("quarantines", Rwc_obs.Json.Int g.Rwc_guard.quarantines);
                ( "admission_deferred",
                  Rwc_obs.Json.Int g.Rwc_guard.admission_deferred );
                ("stale_freezes", Rwc_obs.Json.Int g.Rwc_guard.stale_freezes);
                ( "static_fallbacks",
                  Rwc_obs.Json.Int g.Rwc_guard.static_fallbacks );
                ("watchdog_trips", Rwc_obs.Json.Int g.Rwc_guard.watchdog_trips);
              ] );
        ]
  in
  (* The rollout block follows the same present-iff-touched contract:
     a run that never staged anything serializes byte-identically to a
     pre-rollout report. *)
  let rollout_fields =
    match r.rollout_stats with
    | None -> []
    | Some s -> [ ("rollout", Rwc_rollout.stats_to_json s) ]
  in
  (* And again for the SLO scorecard: present exactly when the run
     evaluated a plan, absent otherwise, so journal-off reports stay
     byte-identical to pre-journal output. *)
  let slo_fields =
    match r.slo with
    | None -> []
    | Some s -> [ ("slo", Rwc_journal.Slo.summary_to_json s) ]
  in
  Rwc_obs.Json.Assoc
    ([
       ("policy", Rwc_obs.Json.String (policy_name r.policy));
       ("delivered_pbit", Rwc_obs.Json.Float r.delivered_pbit);
       ("offered_pbit", Rwc_obs.Json.Float r.offered_pbit);
       ("avg_throughput_gbps", Rwc_obs.Json.Float r.avg_throughput_gbps);
       ("avg_capacity_gbps", Rwc_obs.Json.Float r.avg_capacity_gbps);
       ("duct_availability", Rwc_obs.Json.Float r.duct_availability);
       ("failures", Rwc_obs.Json.Int r.failures);
       ("flaps", Rwc_obs.Json.Int r.flaps);
       ("reconfigurations", Rwc_obs.Json.Int r.reconfigurations);
       ("reconfig_downtime_s", Rwc_obs.Json.Float r.reconfig_downtime_s);
     ]
    @ fault_fields @ guard_fields @ rollout_fields @ slo_fields)

let pp_report fmt r =
  Format.fprintf fmt
    "%-22s delivered=%8.2f Pbit  avg-tput=%7.1f Gbps  avg-cap=%7.1f Gbps  \
     avail=%.5f  fail=%4d  flap=%4d  reconf=%4d  downtime=%8.1fs"
    (policy_name r.policy) r.delivered_pbit r.avg_throughput_gbps
    r.avg_capacity_gbps r.duct_availability r.failures r.flaps
    r.reconfigurations r.reconfig_downtime_s;
  (match r.fault_stats with
  | None -> ()
  | Some f ->
      Format.fprintf fmt "  inj=%4d  retry=%4d  fallback=%3d"
        f.injected f.retries f.fallbacks);
  (match r.guard_stats with
  | None -> ()
  | Some g ->
      Format.fprintf fmt "  supp=%3d  quar=%3d  defer=%3d  stale=%3d  \
                          static=%2d  wdog=%2d"
        g.Rwc_guard.suppressed_upshifts g.Rwc_guard.quarantines
        g.Rwc_guard.admission_deferred g.Rwc_guard.stale_freezes
        g.Rwc_guard.static_fallbacks g.Rwc_guard.watchdog_trips);
  (match r.rollout_stats with
  | None -> ()
  | Some s ->
      Format.fprintf fmt
        "  rollout: waves=%2d gate-fail=%d admit=%3d defer=%3d rolled-back=%3d"
        s.Rwc_rollout.waves_committed s.Rwc_rollout.gates_failed
        s.Rwc_rollout.links_admitted s.Rwc_rollout.links_deferred
        s.Rwc_rollout.links_rolled_back);
  match r.slo with
  | None -> ()
  | Some s ->
      Format.fprintf fmt "  slo: met=%3d viol=%3d" s.Rwc_journal.Slo.met
        s.Rwc_journal.Slo.violated

let row_of_outcome = function
  | Ran r ->
      (policy_name r.policy, Format.asprintf "%a" pp_report r, json_of_report r)
  | Replayed { policy; pp; json } ->
      ( policy_name policy,
        pp,
        match Rwc_obs.Json.parse json with
        | Ok j -> j
        | Error _ -> Rwc_obs.Json.Null )

(* Crash-restart driver for one policy under an armed recovery context:
   an already-completed policy is replayed from its stored rendering,
   the in-progress one is restored from its checkpoint, and
   {!Rwc_recover.Crashed} reloads the newest valid checkpoint, rewinds
   the journal to its high-water mark and goes again.  Because the
   restored state is exactly the uninterrupted run's state at the cut
   and every downstream draw is deterministic, the final reports and
   journal are byte-identical to a run that never crashed. *)
let recoverable ~config ~backbone ~ctx ~resume_from jnl =
  let completed =
    ref
      (match resume_from with
      | Some c -> c.Rwc_recover.ck_completed
      | None -> [])
  in
  let pending_run =
    ref (match resume_from with Some c -> c.Rwc_recover.ck_run | None -> None)
  in
  let save_mid rs ~journal_events ~journal_bytes =
    Rwc_recover.save ctx ~seed:config.seed ~days:config.days ~journal_events
      ~journal_bytes ~completed:!completed ~run:(Some rs)
  in
  let save_boundary () =
    Rwc_recover.save ctx ~seed:config.seed ~days:config.days
      ~journal_events:(Rwc_journal.events_emitted !jnl)
      ~journal_bytes:(Rwc_journal.byte_offset !jnl)
      ~completed:!completed ~run:None
  in
  let reopen ~events ~bytes =
    if Rwc_journal.armed !jnl then begin
      Rwc_journal.close !jnl;
      match Rwc_recover.reopen_journal ctx ~events ~bytes with
      | Ok j ->
          (* A live-stream tee attached to the replaced sink must
             survive the swap, or subscribers silently stop hearing
             decisions after the first crash restart. *)
          Rwc_journal.adopt_tee j ~from:!jnl;
          jnl := j
      | Error e -> failwith ("Runner: cannot reopen journal: " ^ e)
    end;
    Rwc_recover.record_resume ~dir:ctx.Rwc_recover.dir ~journal_events:events
      ~journal_bytes:bytes
  in
  let run_one p =
    let name = policy_name p in
    match List.find_opt (fun (n, _, _) -> n = name) !completed with
    | Some (_, pp, json) -> Replayed { policy = p; pp; json }
    | None ->
        let start_events = Rwc_journal.events_emitted !jnl in
        let start_bytes = Rwc_journal.byte_offset !jnl in
        let restore0 =
          match !pending_run with
          | Some rs when rs.Rwc_recover.r_policy = name -> Some rs
          | _ -> None
        in
        pending_run := None;
        let rec go restore =
          let cfg = { config with journal = !jnl } in
          match
            Trace.with_span ("sim/run/" ^ name) (fun () ->
                run_policy ~config:cfg ~backbone
                  ~recover:(ctx, save_mid) ?restore p)
          with
          | r -> r
          | exception Rwc_recover.Crashed now ->
              ctx.Rwc_recover.restarts <- ctx.Rwc_recover.restarts + 1;
              Printf.eprintf
                "rwc: crash fault at t=%.0fs; restarting %s from last \
                 checkpoint (restart %d)\n%!"
                now name ctx.Rwc_recover.restarts;
              (match Rwc_recover.load_latest ctx.Rwc_recover.dir with
              | Ok (Some c) -> (
                  reopen ~events:c.Rwc_recover.ck_journal_events
                    ~bytes:c.Rwc_recover.ck_journal_bytes;
                  match c.Rwc_recover.ck_run with
                  | Some rs when rs.Rwc_recover.r_policy = name -> go (Some rs)
                  | _ -> go None)
              | Ok None | Error _ ->
                  (* Crashed before the first checkpoint: rewind the
                     journal to the policy boundary and start over. *)
                  reopen ~events:start_events ~bytes:start_bytes;
                  go None)
        in
        let r = go restore0 in
        let pp = Format.asprintf "%a" pp_report r in
        let json = Rwc_obs.Json.to_string (json_of_report r) in
        completed := !completed @ [ (name, pp, json) ];
        save_boundary ();
        Ran r
  in
  run_one

let run_policies ~config ~backbone ~recovery ~on_outcome policies =
  let jnl = ref config.journal in
  let run_one =
    match recovery with
    | None -> fun p -> Ran (run ~config ~backbone p)
    | Some (ctx, resume_from) ->
        recoverable ~config ~backbone ~ctx ~resume_from jnl
  in
  match
    List.map
      (fun p ->
        let o = run_one p in
        on_outcome o;
        o)
      policies
  with
  | outcomes ->
      Rwc_journal.close !jnl;
      outcomes
  | exception e ->
      (* A stop (and anything else) still flushes the journal; a
         checkpointed run cut its final checkpoint before unwinding. *)
      Rwc_journal.close !jnl;
      raise e

let run_recoverable ?(config = default_config)
    ?(backbone = Backbone.north_america) ~ctx ~resume_from ~policies () =
  run_policies ~config ~backbone ~recovery:(Some (ctx, resume_from))
    ~on_outcome:ignore policies
