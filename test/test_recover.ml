(* Tests for crash-safe checkpoints and resumable runs: codec
   round-trips, CRC/truncation rejection with fallback to older
   checkpoints, pruning, resume-mark provenance, and the headline
   property — a run crashed at arbitrary sample boundaries and
   restarted from its checkpoints produces a report (and journal)
   byte-identical to an uninterrupted run. *)

module R = Rwc_recover
module Runner = Rwc_sim.Runner

let with_temp_dir f =
  let dir = Filename.temp_file "rwc_test_recover" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun n ->
            try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ()
      end)
    (fun () -> f dir)

(* --- codec ------------------------------------------------------------- *)

(* A checkpoint exercising every corner of the codec: both pending
   shapes, float values with no short decimal rendering, escapes in
   the stored report strings, present and absent option fields. *)
let sample_checkpoint () =
  let pending k at =
    {
      R.p_kind = k;
      p_link = 3;
      p_new_gbps = 150;
      p_prev_gbps = 100;
      p_attempt = 2;
      p_at = at;
    }
  in
  let duct =
    {
      R.d_gbps = 200;
      d_up = true;
      d_snr_db = 0.1 +. 0.2;
      d_reconfiguring = true;
      d_ctl = Some (150, 3);
      d_det = Some (17.25, 1.0 /. 3.0);
      d_freeze_seen = true;
      d_quar_seen = false;
      d_ewma_alarming = true;
    }
  in
  let run =
    {
      R.r_policy = "adaptive-efficient-bvt";
      r_next_sample = 42;
      r_failures = 1;
      r_flaps = 2;
      r_reconfigs = 3;
      r_downtime_s = 68.25;
      r_delivered_gbit = 1e15 +. (1.0 /. 3.0);
      r_capacity_acc = 123456.789;
      r_up_acc = 41.5;
      r_duct_obs = 4200;
      r_retries = 5;
      r_fallbacks = 1;
      r_last_te_time = 21600.0;
      r_current_total = 3100.25;
      r_current_capacity = 4000.0;
      r_te_dirty = true;
      r_duct_flow = [ 0.0; 1.5; 2.0 /. 7.0 ];
      r_reconfig_rng = Int64.min_int;
      r_ducts = [ duct; { duct with R.d_ctl = None; d_det = None } ];
      r_pending =
        [
          pending R.Te_tick 21600.0;
          pending R.Begin_attempt 1000.5;
          pending R.Finish_attempt 1068.25;
          pending R.Te_recheck 1800.0;
        ];
      r_faults = Some (5, [ Some (123456789L, 2); None; Some (-1L, 0) ]);
      r_guard = None;
      r_rollout = None;
    }
  in
  {
    R.ck_seq = 7;
    ck_seed = 11;
    ck_days = 3.5;
    ck_journal_events = 100;
    ck_journal_bytes = 12345;
    ck_completed =
      [ ("static-100", "delivered=8.25 \"Pbit\"", "{\"policy\":\"static-100\"}") ];
    ck_run = Some run;
  }

let test_codec_roundtrip () =
  let c = sample_checkpoint () in
  match R.checkpoint_of_string (R.checkpoint_to_string c) with
  | Ok c' -> Alcotest.(check bool) "round-trips structurally" true (c = c')
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_codec_roundtrip_boundary () =
  (* A policy-boundary checkpoint has no run state at all. *)
  let c =
    { (sample_checkpoint ()) with R.ck_run = None; ck_completed = [] }
  in
  match R.checkpoint_of_string (R.checkpoint_to_string c) with
  | Ok c' -> Alcotest.(check bool) "boundary round-trips" true (c = c')
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_codec_rejects_corruption () =
  let s = R.checkpoint_to_string (sample_checkpoint ()) in
  (* Flip one byte in the middle of the body: the CRC must catch it. *)
  let b = Bytes.of_string s in
  let i = String.length s / 3 in
  Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
  (match R.checkpoint_of_string (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "corrupted checkpoint accepted"
  | Error _ -> ());
  (* Truncation (a torn write) must also be rejected, at any cut. *)
  List.iter
    (fun keep ->
      match R.checkpoint_of_string (String.sub s 0 keep) with
      | Ok _ -> Alcotest.failf "truncated checkpoint (%d bytes) accepted" keep
      | Error _ -> ())
    [ 0; 1; String.length s / 2; String.length s - 1 ]

let test_crc_reference () =
  (* Pin the CRC-32 implementation to the standard test vector. *)
  Alcotest.(check int32) "crc32(\"123456789\")" 0xCBF43926l (R.crc32 "123456789")

(* --- store ------------------------------------------------------------- *)

let make_ctx ?(faults = Rwc_fault.none) ?(resume = false) ?journal_path dir =
  match R.create ~dir ~every:16 ?journal_path ~faults ~resume () with
  | Ok pair -> pair
  | Error e -> Alcotest.failf "create: %s" e

let test_save_load_and_prune () =
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      for i = 0 to 4 do
        R.save ctx ~seed:7 ~days:2.0 ~journal_events:i ~journal_bytes:(10 * i)
          ~completed:[] ~run:None
      done;
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".json")
        |> List.sort compare
      in
      Alcotest.(check (list string))
        "pruned to the newest three"
        [ "ckpt-000002.json"; "ckpt-000003.json"; "ckpt-000004.json" ]
        files;
      match R.load_latest dir with
      | Ok (Some c) ->
          Alcotest.(check int) "newest wins" 4 c.R.ck_journal_events
      | Ok None -> Alcotest.fail "no checkpoint found"
      | Error e -> Alcotest.failf "load_latest: %s" e)

let test_load_latest_falls_back () =
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      R.save ctx ~seed:7 ~days:2.0 ~journal_events:1 ~journal_bytes:10
        ~completed:[] ~run:None;
      R.save ctx ~seed:7 ~days:2.0 ~journal_events:2 ~journal_bytes:20
        ~completed:[] ~run:None;
      (* Corrupt the newest file on disk (torn write simulation). *)
      let newest = Filename.concat dir "ckpt-000001.json" in
      let s = In_channel.with_open_bin newest In_channel.input_all in
      Out_channel.with_open_bin newest (fun oc ->
          Out_channel.output_string oc (String.sub s 0 (String.length s / 2)));
      (match R.load_latest dir with
      | Ok (Some c) ->
          Alcotest.(check int) "falls back to previous valid" 1
            c.R.ck_journal_events
      | Ok None -> Alcotest.fail "no checkpoint found"
      | Error e -> Alcotest.failf "load_latest: %s" e);
      (* With every file corrupted there is nothing to resume from. *)
      let oldest = Filename.concat dir "ckpt-000000.json" in
      Out_channel.with_open_bin oldest (fun oc ->
          Out_channel.output_string oc "garbage");
      match R.load_latest dir with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "accepted a corrupt checkpoint"
      | Error e -> Alcotest.failf "load_latest: %s" e)

let test_resume_marks () =
  with_temp_dir (fun dir ->
      Alcotest.(check bool) "no marks initially" true (R.resume_marks dir = []);
      R.record_resume ~dir ~journal_events:42 ~journal_bytes:4200;
      R.record_resume ~dir ~journal_events:99 ~journal_bytes:9900;
      Alcotest.(check bool)
        "marks accumulate in order" true
        (R.resume_marks dir = [ (42, 4200); (99, 9900) ]);
      (* A fresh (non-resume) context clears stale marks. *)
      let _ = make_ctx dir in
      Alcotest.(check bool) "fresh run clears marks" true
        (R.resume_marks dir = []))

(* --- crash + resume byte-identity -------------------------------------- *)

let small_config ?(journal = Rwc_journal.disarmed) ~seed ~faults () =
  {
    Runner.default_config with
    Runner.days = 0.75;
    seed;
    faults;
    journal;
  }

let crash_plan ~rate ~seed =
  match
    Rwc_fault.of_string (Printf.sprintf "crash=%g,seed=%d" rate seed)
  with
  | Ok p -> p
  | Error e -> failwith e

(* The headline golden: a run killed repeatedly by the crash oracle and
   restarted from its checkpoints must produce the same report and the
   same journal file, byte for byte, as an uninterrupted run. *)
let test_crash_resume_golden () =
  let policy = Runner.Adaptive Runner.Efficient in
  with_temp_dir (fun dir ->
      let ref_journal = Filename.concat dir "ref.jsonl" in
      let crash_journal = Filename.concat dir "crash.jsonl" in
      let faults = crash_plan ~rate:0.08 ~seed:99 in
      let reference =
        let jnl = Rwc_journal.create ~path:ref_journal () in
        let r =
          Runner.run ~config:(small_config ~seed:11 ~faults ~journal:jnl ()) policy
        in
        Rwc_journal.close jnl;
        r
      in
      let ckdir = Filename.concat dir "ck" in
      let ctx, _ =
        make_ctx ~faults ~journal_path:crash_journal ckdir
      in
      let jnl = Rwc_journal.create ~path:crash_journal () in
      let outcomes =
        Runner.run_recoverable
          ~config:(small_config ~seed:11 ~faults ~journal:jnl ())
          ~ctx ~resume_from:None ~policies:[ policy ] ()
      in
      Alcotest.(check bool) "the crash oracle actually fired" true
        (ctx.R.restarts > 0);
      (match outcomes with
      | [ Runner.Ran r ] ->
          Alcotest.(check string) "report byte-identical"
            (Format.asprintf "%a" Runner.pp_report reference)
            (Format.asprintf "%a" Runner.pp_report r);
          Alcotest.(check bool) "report structurally identical" true
            (r = reference)
      | _ -> Alcotest.fail "expected one Ran outcome");
      let slurp p = In_channel.with_open_bin p In_channel.input_all in
      Alcotest.(check string) "journal byte-identical" (slurp ref_journal)
        (slurp crash_journal);
      Array.iter
        (fun n -> try Sys.remove (Filename.concat ckdir n) with Sys_error _ -> ())
        (Sys.readdir ckdir);
      Sys.rmdir ckdir)

(* A stop request cuts a final checkpoint, raises Interrupted, and a
   second context resumes to the uninterrupted result. *)
let test_interrupt_then_resume () =
  let policy = Runner.Adaptive Runner.Stock in
  let reference =
    Runner.run ~config:(small_config ~seed:13 ~faults:Rwc_fault.none ()) policy
  in
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      R.request_stop ctx;
      (match
         Runner.run_recoverable
           ~config:(small_config ~seed:13 ~faults:Rwc_fault.none ())
           ~ctx ~resume_from:None ~policies:[ policy ] ()
       with
      | _ -> Alcotest.fail "stop request did not interrupt"
      | exception R.Interrupted -> ());
      let ctx2, resume_from = make_ctx ~resume:true dir in
      (match resume_from with
      | Some c ->
          Alcotest.(check int) "checkpoint carries the run seed" 13 c.R.ck_seed
      | None -> Alcotest.fail "no checkpoint after interrupt");
      match
        Runner.run_recoverable
          ~config:(small_config ~seed:13 ~faults:Rwc_fault.none ())
          ~ctx:ctx2 ~resume_from ~policies:[ policy ] ()
      with
      | [ Runner.Ran r ] ->
          Alcotest.(check bool) "resumed report identical" true (r = reference)
      | _ -> Alcotest.fail "expected one Ran outcome")

(* A completed policy is replayed verbatim from the checkpoint, not
   re-executed. *)
let test_completed_policy_replays () =
  let policy = Runner.Static_100 in
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      let cfg () = small_config ~seed:17 ~faults:Rwc_fault.none () in
      let first =
        match
          Runner.run_recoverable ~config:(cfg ()) ~ctx ~resume_from:None
            ~policies:[ policy ] ()
        with
        | [ Runner.Ran r ] -> r
        | _ -> Alcotest.fail "expected one Ran outcome"
      in
      let ctx2, resume_from = make_ctx ~resume:true dir in
      match
        Runner.run_recoverable ~config:(cfg ()) ~ctx:ctx2 ~resume_from
          ~policies:[ policy ] ()
      with
      | [ Runner.Replayed { pp; _ } ] ->
          Alcotest.(check string) "stored rendering matches"
            (Format.asprintf "%a" Runner.pp_report first)
            pp
      | _ -> Alcotest.fail "expected a Replayed outcome")

(* Property: whatever boundaries the crash oracle picks, recovery
   converges to the uninterrupted run's exact report. *)
let prop_crash_anywhere_resumes_identically =
  QCheck.Test.make ~name:"recover: crash at any boundary, identical report"
    ~count:4
    QCheck.(pair (int_range 1 1000) (int_range 5 25))
    (fun (seed, rate_pct) ->
      let rate = float_of_int rate_pct /. 100.0 in
      let policy = Runner.Adaptive Runner.Efficient in
      let faults = crash_plan ~rate ~seed:(seed + 1000) in
      let reference =
        Runner.run ~config:(small_config ~seed ~faults ()) policy
      in
      with_temp_dir (fun dir ->
          let ctx, _ = make_ctx ~faults dir in
          match
            Runner.run_recoverable ~config:(small_config ~seed ~faults ())
              ~ctx ~resume_from:None ~policies:[ policy ] ()
          with
          | [ Runner.Ran r ] -> r = reference
          | _ -> false))

(* --- opening a run: flag rules, resume refusal, journal rewind ----------- *)

let test_check_flags () =
  let ok ?(checkpoint = Some "ck") ?(every = 96) ?(resume = false)
      ?(faults = Rwc_fault.none) ?(slo = Rwc_journal.Slo.none) ?journal_path
      () =
    Result.is_ok
      (R.check_flags ~checkpoint ~every ~resume ~faults ~slo ~journal_path)
  in
  let crash = crash_plan ~rate:0.1 ~seed:1 in
  Alcotest.(check bool) "no checkpoint" true (ok ~checkpoint:None ());
  Alcotest.(check bool) "checkpoint" true (ok ());
  Alcotest.(check bool) "resume" true (ok ~resume:true ());
  Alcotest.(check bool) "crash with checkpoint" true (ok ~faults:crash ());
  Alcotest.(check bool)
    "--resume needs --checkpoint" false
    (ok ~checkpoint:None ~resume:true ());
  Alcotest.(check bool)
    "crash= needs --checkpoint" false
    (ok ~checkpoint:None ~faults:crash ());
  Alcotest.(check bool) "--checkpoint-every >= 1" false (ok ~every:0 ());
  Alcotest.(check bool)
    "armed --slo needs --journal" false
    (ok ~slo:Rwc_journal.Slo.default ());
  Alcotest.(check bool)
    "armed --slo with --journal" true
    (ok ~slo:Rwc_journal.Slo.default ~journal_path:"run.jsonl" ())

(* A checkpoint written for seed 7 over 2 days resumes only a run with
   that seed and horizon, and only an accepted resume is recorded. *)
let test_resume_refuses_other_seed_or_days () =
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      R.save ctx ~seed:7 ~days:2.0 ~journal_events:0 ~journal_bytes:0
        ~completed:[] ~run:None;
      let accepted ~seed ~days =
        match
          R.open_run ~dir ~every:16 ~journal_path:None
            ~slo:Rwc_journal.Slo.none ~faults:Rwc_fault.none ~resume:true
            ~seed ~days
        with
        | Ok (_, Some _, _) -> true
        | Ok (_, None, _) -> Alcotest.fail "checkpoint not found"
        | Error _ -> false
      in
      Alcotest.(check bool) "seed 8 refused" false (accepted ~seed:8 ~days:2.0);
      Alcotest.(check bool) "3 days refused" false (accepted ~seed:7 ~days:3.0);
      Alcotest.(check bool)
        "a refused resume leaves no mark" true
        (R.resume_marks dir = []);
      Alcotest.(check bool) "seed 7 over 2 days" true (accepted ~seed:7 ~days:2.0);
      Alcotest.(check bool)
        "the accepted resume is marked" true
        (R.resume_marks dir = [ (0, 0) ]);
      Alcotest.(check bool)
        "a scratch start has nothing to refuse" true
        (match
           R.open_run ~dir ~every:16 ~journal_path:None
             ~slo:Rwc_journal.Slo.none ~faults:Rwc_fault.none ~resume:false
             ~seed:8 ~days:3.0
         with
        | Ok (_, None, _) -> true
        | _ -> false))

(* Resuming reopens the journal at the checkpoint's marks: whatever the
   crashed attempt wrote past them is cut away and the event counter
   restarts at the mark. *)
let test_open_run_rewinds_journal () =
  with_temp_dir (fun dir ->
      let journal = Filename.concat dir "run.jsonl" in
      let ckdir = Filename.concat dir "ck" in
      let open_run ~resume =
        match
          R.open_run ~dir:ckdir ~every:16 ~journal_path:(Some journal)
            ~slo:Rwc_journal.Slo.none ~faults:Rwc_fault.none ~resume ~seed:19
            ~days:0.75
        with
        | Ok v -> v
        | Error e -> Alcotest.failf "open_run: %s" e
      in
      let slurp p = In_channel.with_open_bin p In_channel.input_all in
      let ctx, resume_from, jnl = open_run ~resume:false in
      ignore
        (Runner.run_recoverable
           ~config:(small_config ~seed:19 ~faults:Rwc_fault.none ~journal:jnl ())
           ~ctx ~resume_from ~policies:[ Runner.Static_100 ] ());
      let full = slurp journal in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 journal
        (fun oc -> Out_channel.output_string oc "{\"torn\":tr");
      let _, resume_from, jnl = open_run ~resume:true in
      (match resume_from with
      | Some c ->
          Alcotest.(check int)
            "mark covers the whole run" (String.length full)
            c.R.ck_journal_bytes;
          Alcotest.(check int)
            "event counter restarts at the mark" c.R.ck_journal_events
            (Rwc_journal.events_emitted jnl)
      | None -> Alcotest.fail "no checkpoint to resume from");
      Rwc_journal.close jnl;
      Alcotest.(check string) "journal cut back to the mark" full (slurp journal);
      Array.iter (fun n -> Sys.remove (Filename.concat ckdir n)) (Sys.readdir ckdir);
      Sys.rmdir ckdir)

let suite =
  [
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec round-trip (boundary)" `Quick
      test_codec_roundtrip_boundary;
    Alcotest.test_case "codec rejects corruption" `Quick
      test_codec_rejects_corruption;
    Alcotest.test_case "crc32 reference vector" `Quick test_crc_reference;
    Alcotest.test_case "save/load and prune" `Quick test_save_load_and_prune;
    Alcotest.test_case "load_latest falls back" `Quick
      test_load_latest_falls_back;
    Alcotest.test_case "resume marks" `Quick test_resume_marks;
    Alcotest.test_case "crash+resume golden (report & journal)" `Slow
      test_crash_resume_golden;
    Alcotest.test_case "interrupt then resume" `Slow test_interrupt_then_resume;
    Alcotest.test_case "completed policy replays" `Slow
      test_completed_policy_replays;
    Alcotest.test_case "recovery flag rules" `Quick test_check_flags;
    Alcotest.test_case "resume refuses other seed or days" `Quick
      test_resume_refuses_other_seed_or_days;
    Alcotest.test_case "open_run rewinds the journal" `Slow
      test_open_run_rewinds_journal;
    QCheck_alcotest.to_alcotest prop_crash_anywhere_resumes_identically;
  ]
