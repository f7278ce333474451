(* The two batch workloads, paper_na and fleet_ops: seeded inputs, a
   control-loop clock on the runner's sweep hook, the output checks, and
   the traced pass that yields their per-layer numbers. *)

open Measure
module Runner = Rwc_sim.Runner
module Backbone = Rwc_topology.Backbone
module J = Rwc_journal

type outcome = {
  e2e : metric list;
  layer : metric list;
  checks : int;
  failures : string list;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Independent per-repetition seeds derived from the workload seed. *)
let sub_seed seed i = Hashtbl.hash (seed, i, "perfbench") land 0x3fff_ffff

(* ---------------------------------------------------------------- *)
(* Sweep clock                                                        *)
(* ---------------------------------------------------------------- *)

(* Records the wall time of every [on_sweep] call: the first call ends
   set-up, consecutive calls bound one control-loop interval. *)
type clock = {
  started : float;
  mutable first : float;
  mutable last : float;
  mutable intervals_ms : float list;
}

let clock () = { started = now_s (); first = nan; last = nan; intervals_ms = [] }

let tick c =
  let t = now_s () in
  if Float.is_nan c.first then c.first <- t
  else c.intervals_ms <- ((t -. c.last) *. 1e3) :: c.intervals_ms;
  c.last <- t

(* Raised from the sweep hook to end a set-up probe at its first sweep. *)
exception Probe_done

let hooks ?(extra = fun ~k:_ -> ()) c =
  {
    Runner.no_hooks with
    Runner.on_sweep =
      Some
        (fun ~k ~now_s:_ ~events:_ ->
          tick c;
          Calib.tick ();
          extra ~k);
  }

(* One measured repetition. *)
type rep = {
  setup_s : float;
  wall_s : float;
  sweeps : int;  (* sample sweeps the horizon holds *)
  intervals_ms : float list;
  resume_s : float option;
  report : Runner.report;
  cal : Calib.reading;  (* the calibration samples taken during it *)
}

let sweeps_of_days days = int_of_float (days *. 86_400.0 /. Rwc_telemetry.Snr_model.sample_interval_s)

let probe_hooks c = hooks ~extra:(fun ~k:_ -> raise Probe_done) c

(* [reps] repetitions with [probes] set-up probes spread evenly after
   them, so set-up is sampled across the whole run, as the repetitions
   are, not at one moment of the machine's drifting speed.  Returns the
   probes' set-up times and the repetitions' results. *)
let with_probes ~reps ~probes ~rep ~probe =
  let per = (probes + reps - 1) / reps in
  let ps = ref [] in
  let rs =
    List.init reps (fun i ->
        let r = rep i in
        for j = i * per to min probes ((i + 1) * per) - 1 do
          ps := probe j :: !ps
        done;
        r)
  in
  (List.rev !ps, rs)

(* A time metric scaled to the reference machine's speed by [k]
   ({!Calib.scale}), with the wall-clock value in its note. *)
let scaled k name unit_ v ~note =
  metric name unit_ (v *. k) ~note:(Printf.sprintf "%s; wall %.6g" note v)

(* End-to-end metrics of an untraced run.  Set-up is short next to a
   run, so besides each repetition's own set-up the workload makes
   probes that stop at the first sweep ({!with_probes}); [setup_s] is
   the median of all of them.  Every time is scaled by the machine
   speed the run's calibration samples [cal] measured, and each
   repetition's rate by the speed its own samples measured, since the
   machine's speed can change within a run. *)
let e2e_of_reps ?resume ~cal ~probes reps ~peak_rss_mb =
  let k = Calib.scale cal in
  let rate r = float_of_int r.sweeps /. r.wall_s in
  let rep_k r = if r.cal.Calib.n > 0 then Calib.scale r.cal else k in
  let setups = probes @ List.map (fun r -> r.setup_s) reps in
  let wall = List.fold_left (fun a r -> a +. r.wall_s) 0.0 reps in
  let sweeps = List.fold_left (fun a r -> a + r.sweeps) 0 reps in
  let ivals = List.concat_map (fun r -> r.intervals_ms) reps in
  let t95 = tail ~want:0.95 ivals in
  [
    scaled k "setup_s" "s" (median setups)
      ~note:(Printf.sprintf "median of %d set-ups" (List.length setups));
    metric "sweeps_per_s" "1/s"
      (median (List.map (fun r -> rate r /. rep_k r) reps))
      ~note:
        (Printf.sprintf "median of %d repetitions; %d sweeps in %.2f s; wall %.6g"
           (List.length reps) sweeps wall
           (median (List.map rate reps)));
    scaled k "sweep_p50_ms" "ms" (median ivals)
      ~note:(Printf.sprintf "n=%d" (List.length ivals));
    scaled k "sweep_p95_ms" "ms" t95.value
      ~note:(Printf.sprintf "p%g of n=%d" (100.0 *. t95.level) t95.samples);
    metric "peak_rss_mb" "MB" peak_rss_mb ~note:"VmHWM less the calibration block";
  ]
  @ (match resume with
    | None -> []
    | Some rs ->
        [
          scaled k "resume_s" "s" (median rs)
            ~note:(Printf.sprintf "median of %d" (List.length rs));
        ])
  @ [ Calib.metric cal ]

(* Report sanity common to every simulation check. *)
let report_violations (r : Runner.report) =
  List.filter_map Fun.id
    [
      (if r.Runner.delivered_pbit <= r.Runner.offered_pbit *. (1.0 +. 1e-12) then None
       else
         Some
           (Printf.sprintf "delivered %g Pbit > offered %g Pbit" r.Runner.delivered_pbit
              r.Runner.offered_pbit));
      (if r.Runner.duct_availability >= 0.0 && r.Runner.duct_availability <= 1.0 then None
       else Some (Printf.sprintf "availability %g outside [0, 1]" r.Runner.duct_availability));
    ]

(* Checks are counted one per assertion; a failure carries its text. *)
type tally = { mutable n : int; mutable bad : string list }

let tally () = { n = 0; bad = [] }

let check t ~what errs =
  t.n <- t.n + 1;
  match errs with
  | [] -> ()
  | e :: _ -> t.bad <- (what ^ ": " ^ e) :: t.bad

(* [n] operations that succeeded. *)
let passed t n = t.n <- t.n + max 0 n

let overhead_metric ~untraced_s ~traced_s =
  metric "obs.traced_overhead" "x" (traced_s /. untraced_s)
    ~note:(Printf.sprintf "traced %.3f s / untraced %.3f s" traced_s untraced_s)

(* The exact-repeat check: a second pass at the same seed must
   reproduce every named count. *)
let check_repeat t (p1, g1) (p2, g2) =
  let a = Layers.repeat_counts p1 g1 and b = Layers.repeat_counts p2 g2 in
  check t ~what:"exact-repeat counts"
    (List.filter_map
       (fun ((name, x), (_, y)) ->
         if x = y then None else Some (Printf.sprintf "%s %.17g then %.17g" name x y))
       (List.combine a b))

(* The traced-mode protocol of the batch workloads.  Every traced pass
   runs under the same spans (span paths are allocated strings, so
   counts only repeat if the nesting does).  A first traced pass warms
   the tracing layers' lazily grown state; two untraced passes give the
   baseline wall time and the allocation counts; two more traced passes
   give the reported readings and their repeat. *)
type 'a protocol = {
  runs : 'a list;  (* every pass's result, for the output checks *)
  reported : 'a * Layers.pass;
  gc : Layers.gc_delta;
  overhead : metric;
}

let traced_protocol t ~span ~run =
  let traced i = Layers.traced (fun () -> Layers.span span (fun () -> run i)) in
  let r0, _ = traced 0 in
  let u1, w1, g1 = Layers.untraced (fun () -> run 1) in
  let u2, w2, g2 = Layers.untraced (fun () -> run 2) in
  let r1, p1 = traced 3 in
  let r2, p2 = traced 4 in
  check_repeat t (p1, g1) (p2, g2);
  let mean a b = (a +. b) /. 2.0 in
  {
    runs = [ r0; u1; u2; r1; r2 ];
    reported = (r1, p1);
    gc = g1;
    overhead =
      overhead_metric ~untraced_s:(mean w1 w2)
        ~traced_s:(mean p1.Layers.wall_s p2.Layers.wall_s);
  }

(* ---------------------------------------------------------------- *)
(* paper_na                                                           *)
(* ---------------------------------------------------------------- *)

(* The paper's Section 1 simulation: embedded 24-city/43-duct North
   America backbone, efficient-BVT adaptive policy, the runner's default
   TE settings, every optional layer disarmed. *)
module Paper = struct
  type shape = { days : float; reps : int; probes : int }

  (* 21 sim-days take 2.3-4 s on a 2-core x86 machine; a set-up probe
     about 6 ms.  Repetitions differ by their seeds' TE work (IQR/median
     0.13 of the scaled time per rep over 24 seeds), so a run makes as
     many as its time allows. *)
  let full ~seconds =
    { days = 21.0; reps = max 1 (int_of_float (Float.round (seconds /. 2.5))); probes = 80 }

  let tiny = { days = 1.0; reps = 1; probes = 1 }
  let backbone = Backbone.north_america
  let policy = Runner.Adaptive Runner.Efficient
  let config ~seed ~days hooks = { Runner.default_config with Runner.days; seed; hooks }

  let run_rep ~seed ~days =
    let cal0 = Calib.reading () in
    let c = clock () in
    let config = config ~seed ~days (hooks c) in
    let report, wall_s =
      timed (fun () -> Layers.span "runner.run" (fun () -> Runner.run ~config ~backbone policy))
    in
    {
      setup_s = c.first -. c.started;
      wall_s;
      sweeps = sweeps_of_days days;
      intervals_ms = c.intervals_ms;
      resume_s = None;
      report;
      cal = Calib.since cal0;
    }

  let probe ~seed ~days =
    let c = clock () in
    (try ignore (Runner.run ~config:(config ~seed ~days (probe_hooks c)) ~backbone policy)
     with Probe_done -> ());
    c.first -. c.started

  let reference_report ~seed ~days =
    Runner.run ~config:(config ~seed ~days Runner.no_hooks) ~backbone policy

  let te_check t ~seed ~days =
    let r = Layers.te_replay (config ~seed ~days Runner.no_hooks) backbone in
    check t ~what:"te.replay feasibility" r.Layers.violations;
    r

  let check_report t r = check t ~what:"paper_na report" (report_violations r.report)

  let run sh ~seed ~trace =
    let t = tally () in
    let days = sh.days in
    if not trace then begin
      (* Warm-up, untimed: heap growth and lazy set-up. *)
      ignore (run_rep ~seed:(sub_seed seed (-1)) ~days:1.0);
      Calib.start ();
      let probes, reps =
        with_probes ~reps:sh.reps ~probes:sh.probes
          ~rep:(fun i -> run_rep ~seed:(sub_seed seed i) ~days)
          ~probe:(fun j -> probe ~seed:(sub_seed seed (j + sh.reps)) ~days)
      in
      let cal = Calib.stop () in
      let peak_rss_mb = Calib.program_rss_mb () in
      List.iter (check_report t) reps;
      ignore (te_check t ~seed ~days);
      {
        e2e = e2e_of_reps ~cal ~probes reps ~peak_rss_mb;
        layer = [];
        checks = t.n;
        failures = t.bad;
      }
    end
    else begin
      let pr = traced_protocol t ~span:"paper_na.run" ~run:(fun _ -> run_rep ~seed ~days) in
      List.iter (check_report t) pr.runs;
      let replay = Layers.with_spans (fun () -> te_check t ~seed ~days) in
      let r1, p1 = pr.reported in
      let layer =
        Layers.common_metrics ~gc:pr.gc p1
        @ Layers.replay_metrics replay
        @ Layers.report_metrics r1.report
        @ [ pr.overhead ]
      in
      { e2e = []; layer; checks = t.n; failures = t.bad }
    end
end

(* ---------------------------------------------------------------- *)
(* fleet_ops                                                          *)
(* ---------------------------------------------------------------- *)

(* A ~1500-duct synthetic fleet with every optional layer armed: an
   SLO-carrying journal, the default guard and rollout plans, periodic
   checkpoints, and a stop at a fixed sweep followed by a resume to the
   end through the same calls [rwc simulate --resume] makes. *)
module Fleet = struct
  type shape = {
    ducts : int;
    days : float;
    stop_at : int;  (* sweep at which each run is stopped and resumed *)
    every : int;  (* sweeps between periodic checkpoints *)
    reps : int;
    probes : int;
  }

  (* Half a sim-day at 1500 ducts takes about 4.5 s, resume included.
     Set-up probes are cheap (~20 ms), and the median of many is
     steadier across runs than the median of a few. *)
  let full ~seconds =
    {
      ducts = 1500;
      days = 0.5;
      stop_at = 24;
      every = 12;
      reps = max 1 (int_of_float (Float.round (seconds /. 4.5)));
      probes = 60;
    }

  let tiny = { ducts = 60; days = 0.25; stop_at = 12; every = 6; reps = 1; probes = 1 }
  (* The fleet is the runner's default one (seed 7), as serve_live's:
     an operator runs one fleet, and the seed drives its telemetry.  A
     fleet per seed let the fleets' TE cost, which differs up to 5
     times between them, swamp the run-to-run spread (IQR/median 0.29
     of sweeps_per_s over five seeds of four repetitions each). *)
  let fleet sh = Backbone.synthetic ~ducts:sh.ducts ~seed:Runner.default_config.Runner.seed

  let slo = J.Slo.default  (* armed with [J.Slo.default_config] *)
  let policy = Runner.Adaptive Runner.Efficient

  let config ~seed ~days =
    {
      Runner.default_config with
      Runner.days;
      seed;
      top_demands = 2;
      (* Offered load near what the fleet can carry between the two
         pairs (the day-one replay's lambda is 0.12-0.51 over 40 seeds,
         paper_na's 0.27).  At the runner's default 0.75 each demand is
         over a third of the whole fleet's capacity, and
         [Multicommodity.solve], which does not prescale demands, spends
         its dual budget on the first and routes nothing of the second
         (lambda = 0 on every seed). *)
      demand_fraction = 0.02;
      epsilon = 0.5;
      guard = Rwc_guard.default;
      rollout = Rwc_rollout.default;
    }

  let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

  type artifacts = { dir : string; journal : string; ckpt : string }

  let artifacts work i =
    let dir = Filename.concat work (Printf.sprintf "fleet-%d" i) in
    rm_rf dir;
    Sys.mkdir dir 0o755;
    { dir; journal = Filename.concat dir "journal.jsonl"; ckpt = Filename.concat dir "ckpt" }

  let recover_ctx sh a ~resume =
    ok_or "checkpoint dir"
      (Rwc_recover.create ~dir:a.ckpt ~every:sh.every ~journal_path:a.journal ~slo
         ~faults:Rwc_fault.none ~resume ())

  (* Set-up to the first sweep with every layer armed, then abandon. *)
  let probe sh ~work ~i ~seed =
    let backbone = fleet sh in
    let a = artifacts work i in
    let c = clock () in
    let jnl = J.create ~path:a.journal ~slo () in
    let ctx, _ = recover_ctx sh a ~resume:false in
    (try
       ignore
         (Runner.run_recoverable
            ~config:{ (config ~seed ~days:sh.days) with Runner.journal = jnl; hooks = probe_hooks c }
            ~backbone ~ctx ~resume_from:None ~policies:[ policy ] ())
     with Probe_done -> ());
    J.close jnl;
    rm_rf a.dir;
    c.first -. c.started

  let run_rep sh ~work ~i ~seed =
    let backbone = fleet sh in
    let a = artifacts work i in
    let base = config ~seed ~days:sh.days in
    let cal0 = Calib.reading () in
    (* First leg: fresh run, stopped at [stop_at]. *)
    let c1 = clock () in
    let jnl = Layers.span "journal.create" (fun () -> J.create ~path:a.journal ~slo ()) in
    let ctx, _ = Layers.span "recover.create" (fun () -> recover_ctx sh a ~resume:false) in
    let stop ~k = if k = sh.stop_at then Rwc_recover.request_stop ctx in
    (match
       Layers.span "runner.run_recoverable" (fun () ->
           Runner.run_recoverable
             ~config:{ base with Runner.journal = jnl; hooks = hooks ~extra:stop c1 }
             ~backbone ~ctx ~resume_from:None ~policies:[ policy ] ())
     with
    | _ -> failwith "fleet_ops: the run was not stopped"
    | exception Rwc_recover.Interrupted -> ());
    (* Second leg: resume from the newest checkpoint to the end. *)
    let c2 = clock () in
    let ctx2, ck = Layers.span "recover.resume" (fun () -> recover_ctx sh a ~resume:true) in
    let ck = match ck with Some ck -> ck | None -> failwith "fleet_ops: no checkpoint to resume" in
    let jnl2 =
      Layers.span "journal.resume" (fun () ->
          ok_or "journal resume"
            (J.resume ~path:a.journal ~slo ~at:ck.Rwc_recover.ck_journal_bytes
               ~events:ck.Rwc_recover.ck_journal_events ()))
    in
    let report =
      match
        Layers.span "runner.run_recoverable" (fun () ->
            Runner.run_recoverable
              ~config:{ base with Runner.journal = jnl2; hooks = hooks c2 }
              ~backbone ~ctx:ctx2 ~resume_from:(Some ck) ~policies:[ policy ] ())
      with
      | [ Runner.Ran r ] -> r
      | _ -> failwith "fleet_ops: resumed run did not produce one report"
    in
    let wall_s = now_s () -. c1.started in
    ( a,
      {
        setup_s = c1.first -. c1.started;
        wall_s;
        sweeps = sweeps_of_days sh.days;
        intervals_ms = c1.intervals_ms @ c2.intervals_ms;
        resume_s = Some (c2.first -. c2.started);
        report;
        cal = Calib.since cal0;
      } )

  (* The online scorecard against the offline one.  The offline path
     reads floats back through the journal's %.12g, so measures agree to
     serialization precision (the bound the repository's own
     online/offline test uses); counts and verdicts agree exactly. *)
  let slo_mismatches ~(on : J.Slo.summary) ~(off : J.Slo.summary) =
    let close a b = Float.abs (a -. b) <= 1e-6 in
    if on.J.Slo.met <> off.J.Slo.met || on.J.Slo.violated <> off.J.Slo.violated then
      [ Printf.sprintf "met/violated %d/%d online, %d/%d offline" on.J.Slo.met
          on.J.Slo.violated off.J.Slo.met off.J.Slo.violated ]
    else if Array.length on.J.Slo.links <> Array.length off.J.Slo.links then [ "link counts differ" ]
    else
      List.concat
        (List.mapi
           (fun i (a : J.Slo.link_verdict) ->
             let b = off.J.Slo.links.(i) in
             let m1 = a.J.Slo.measure and m2 = b.J.Slo.measure in
             if
               close m1.J.Slo.availability_pct m2.J.Slo.availability_pct
               && close m1.J.Slo.class_time_pct m2.J.Slo.class_time_pct
               && close m1.J.Slo.flaps_per_day m2.J.Slo.flaps_per_day
               && close m1.J.Slo.quarantine_pct m2.J.Slo.quarantine_pct
               && a.J.Slo.violations = b.J.Slo.violations
             then []
             else [ Printf.sprintf "link %d differs" a.J.Slo.link ])
           (Array.to_list on.J.Slo.links))

  (* Journal read-back and the online/offline SLO agreement. *)
  let journal_checks t a (r : Runner.report) =
    let read, read_s = timed (fun () -> Layers.span "journal.read" (fun () -> J.read_file a.journal)) in
    match read with
    | Error e ->
        check t ~what:"journal read" [ e ];
        (0.0, 0.0)
    | Ok (records, bad) ->
        check t ~what:"journal bad lines"
          (if bad = 0 then [] else [ Printf.sprintf "%d bad lines" bad ]);
        let seg = match List.rev (J.segments records) with s :: _ -> s | [] -> [] in
        let offline, slo_s =
          timed (fun () ->
              Layers.span "slo.offline" (fun () -> J.Slo.of_records J.Slo.default_config seg))
        in
        (match (offline, r.Runner.slo) with
        | Ok off, Some on -> check t ~what:"online vs offline SLO" (slo_mismatches ~on ~off)
        | Error e, _ -> check t ~what:"offline SLO" [ e ]
        | Ok _, None -> check t ~what:"online SLO" [ "report carries no SLO scorecard" ]);
        (read_s *. 1e3, slo_s *. 1e3)

  let newest_checkpoint dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Rwc_recover.file_seq f <> None)
    |> List.sort compare |> List.rev
    |> function
    | f :: _ -> Layers.file_size (Filename.concat dir f)
    | [] -> 0

  let check_report t r = check t ~what:"fleet_ops report" (report_violations r.report)

  (* Checks on a repetition's journal and checkpoints; returns the
     read-back timings. *)
  let artifact_checks t a r =
    let times = journal_checks t a r.report in
    let load, load_s = timed (fun () -> Layers.span "recover.load" (fun () -> Rwc_recover.load_latest a.ckpt)) in
    check t ~what:"checkpoint load"
      (match load with
      | Ok (Some _) -> []
      | Ok None -> [ "no checkpoint" ]
      | Error e -> [ e ]);
    (times, load_s *. 1e3)

  let te_check sh t ~seed =
    let r =
      Layers.te_replay (config ~seed ~days:sh.days) (fleet sh)
    in
    check t ~what:"te.replay feasibility" r.Layers.violations;
    r

  let run sh ~work ~seed ~trace =
    let t = tally () in
    if not trace then begin
      (* Warm-up on a small fleet, untimed. *)
      rm_rf (fst (run_rep tiny ~work ~i:(-1) ~seed)).dir;
      Calib.start ();
      let probes, reps =
        with_probes ~reps:sh.reps ~probes:sh.probes
          ~rep:(fun i -> run_rep sh ~work ~i ~seed:(sub_seed seed i))
          ~probe:(fun j -> probe sh ~work ~i:(j + sh.reps) ~seed:(sub_seed seed (j + sh.reps)))
      in
      let cal = Calib.stop () in
      let peak_rss_mb = Calib.program_rss_mb () in
      List.iter
        (fun (a, r) ->
          check_report t r;
          ignore (artifact_checks t a r);
          rm_rf a.dir)
        reps;
      ignore (te_check sh t ~seed);
      let reps = List.map snd reps in
      {
        e2e =
          e2e_of_reps ~cal ~probes reps ~peak_rss_mb
            ~resume:(List.filter_map (fun r -> r.resume_s) reps);
        layer = [];
        checks = t.n;
        failures = t.bad;
      }
    end
    else begin
      let pr =
        traced_protocol t ~span:"fleet_ops.run" ~run:(fun i -> run_rep sh ~work ~i ~seed)
      in
      let a1, r1 = fst pr.reported and p1 = snd pr.reported in
      List.iter
        (fun (a, r) ->
          check_report t r;
          if a != a1 then rm_rf a.dir)
        pr.runs;
      let (read_ms, slo_ms), load_ms, replay =
        Layers.with_spans (fun () ->
            let times, load_ms = artifact_checks t a1 r1 in
            (times, load_ms, te_check sh t ~seed))
      in
      let layer =
        Layers.common_metrics ~gc:pr.gc p1
        @ Layers.replay_metrics replay
        @ Layers.report_metrics r1.report
        @ [
            metric "journal.bytes" "B" (float_of_int (Layers.file_size a1.journal));
            metric "journal.read_ms" "ms" read_ms ~note:"Rwc_journal.read_file, from outside";
            metric "journal.slo_offline_ms" "ms" slo_ms ~note:"Slo.of_records, from outside";
          ]
        @ Layers.guard_rollout_metrics r1.report
        @ Layers.recover_metrics p1
        @ [
            metric "recover.bytes" "B" (float_of_int (newest_checkpoint a1.ckpt))
              ~note:"newest checkpoint file";
            metric "recover.load_ms" "ms" load_ms ~note:"Rwc_recover.load_latest, from outside";
            pr.overhead;
          ]
      in
      rm_rf a1.dir;
      { e2e = []; layer; checks = t.n; failures = t.bad }
    end
end
