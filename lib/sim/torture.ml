(* Exhaustive crash-point torture: enumerate every storage boundary
   (non-empty flush, fsync, rename) a short seeded run crosses, then
   replay the run once per boundary with an armed kill there, recover
   with the ordinary checkpoint/journal machinery, and demand the
   recovered report and journal are byte-identical to the crash-free
   golden.  `rwc torture` is this module behind a CLI; test_storm.ml
   drives it directly.

   The harness owns the global Rwc_storm mode for its whole run (and
   resets it on the way out), so it must not run concurrently with
   other storm users. *)

module R = Rwc_recover
module J = Rwc_journal
module S = Rwc_storm

type case = {
  ordinal : int;  (** Boundary the kill was armed at. *)
  kind : string;  (** "write" / "sync" / "rename" — what died there. *)
  findings : int;  (** fsck findings on the damaged artifacts. *)
  residual : int;  (** fsck findings on re-run after repair; 0 to pass. *)
  ok : bool;
  detail : string;  (** Failure description when not [ok]. *)
}

type summary = {
  boundaries : int;  (** Boundaries the crash-free run crosses. *)
  cases : case list;
  passed : int;
  failed : int;
}

let mkdir_if_missing d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let slurp p = In_channel.with_open_bin p In_channel.input_all

(* Evenly-spaced sample of [0 .. total-1] including both ends — the
   bounded boundary set behind `rwc torture --quick`. *)
let sample_targets ~total = function
  | None -> List.init total Fun.id
  | Some n when n >= total -> List.init total Fun.id
  | Some n when n <= 1 -> [ 0 ]
  | Some n ->
      List.sort_uniq compare
        (List.init n (fun i -> i * (total - 1) / (n - 1)))

let run ?(days = 0.25) ?(ducts = 12) ?(seed = 7) ?(every = 8)
    ?(rollout = Rwc_rollout.none) ?sample ~root () =
  let policy = Runner.Adaptive Runner.Efficient in
  let backbone = Rwc_topology.Backbone.synthetic ~ducts ~seed in
  let config journal =
    {
      Runner.default_config with
      Runner.days;
      seed;
      faults = Rwc_fault.default;
      rollout;
      journal;
    }
  in
  let golden_journal = Filename.concat root "golden.jsonl" in
  (* One checkpointed attempt in [dir], fresh or resumed, opened through
     Rwc_recover.open_run like every other checkpointed run. *)
  let start dir ~resume =
    mkdir_if_missing dir;
    let jpath = Filename.concat dir "journal.jsonl" in
    R.open_run ~dir:(Filename.concat dir "ck") ~every ~journal_path:(Some jpath)
      ~slo:J.Slo.none ~faults:Rwc_fault.default ~resume ~seed ~days
    |> Result.map (fun (ctx, resume_from, jnl) ->
           ( Runner.run_recoverable ~config:(config jnl) ~backbone ~ctx
               ~resume_from ~policies:[ policy ] (),
             jpath ))
  in
  let outcome_pp = function
    | [ o ] ->
        let _, pp, _ = Runner.row_of_outcome o in
        Ok pp
    | outcomes ->
        Error (Printf.sprintf "expected 1 outcome, got %d" (List.length outcomes))
  in
  Fun.protect ~finally:S.reset (fun () ->
      (* The crash-free golden: a plain (checkpoint-less) run. *)
      S.reset ();
      mkdir_if_missing root;
      let jnl = J.create ~path:golden_journal () in
      let golden_pp =
        Format.asprintf "%a" Runner.pp_report
          (Runner.run ~config:(config jnl) ~backbone policy)
      in
      J.close jnl;
      let golden_bytes = slurp golden_journal in
      (* The boundary census: the same run under checkpoints, counting
         every storage boundary it crosses — and double-checking that
         the checkpointed run reproduces the golden bytes at all. *)
      S.reset ();
      match start (Filename.concat root "count") ~resume:false with
      | Error e -> Error ("census run: " ^ e)
      | exception e -> Error ("census run: " ^ Printexc.to_string e)
      | Ok (outcomes, jpath) -> (
          let boundaries = S.boundaries () in
          match outcome_pp outcomes with
          | Error e -> Error ("census run: " ^ e)
          | Ok pp when pp <> golden_pp ->
              Error "census run: checkpointed report differs from golden"
          | Ok _ when slurp jpath <> golden_bytes ->
              Error "census run: checkpointed journal differs from golden"
          | Ok _ ->
              let targets = sample_targets ~total:boundaries sample in
              let cases =
                List.map
                  (fun k ->
                    let dir =
                      Filename.concat root (Printf.sprintf "kill-%03d" k)
                    in
                    let ckdir = Filename.concat dir "ck" in
                    let jpath = Filename.concat dir "journal.jsonl" in
                    (* Phase 1: run until the armed boundary kills us. *)
                    S.reset ();
                    S.arm_kill k;
                    let kind =
                      match start dir ~resume:false with
                      | Ok _ -> "none"  (* deterministically unreachable *)
                      | Error e -> "setup-error: " ^ e
                      | exception S.Killed { kind; _ } -> S.boundary_name kind
                      | exception e -> "unexpected: " ^ Printexc.to_string e
                    in
                    (* Phase 2: offline repair, twice — the second pass
                       must find nothing. *)
                    S.reset ();
                    let scan () =
                      match
                        Rwc_fsck.scan ~repair:true ~journal:jpath
                          ~checkpoints:ckdir ()
                      with
                      | Ok r -> List.length r.Rwc_fsck.findings
                      | Error _ -> -1
                    in
                    let findings = scan () in
                    let residual = scan () in
                    (* Phase 3: resume and compare against the golden. *)
                    let verdict =
                      match start dir ~resume:true with
                      | Error e -> Error ("resume: " ^ e)
                      | exception e ->
                          Error ("resume: " ^ Printexc.to_string e)
                      | Ok (outcomes, jpath) -> (
                          match outcome_pp outcomes with
                          | Error e -> Error e
                          | Ok pp when pp <> golden_pp ->
                              Error "recovered report differs from golden"
                          | Ok _ when slurp jpath <> golden_bytes ->
                              Error "recovered journal differs from golden"
                          | Ok _ when residual <> 0 ->
                              Error
                                (Printf.sprintf
                                   "%d residual fsck finding(s) after repair"
                                   residual)
                          | Ok _ -> Ok ())
                    in
                    {
                      ordinal = k;
                      kind;
                      findings;
                      residual;
                      ok = verdict = Ok ();
                      detail =
                        (match verdict with Ok () -> "" | Error d -> d);
                    })
                  targets
              in
              let passed = List.length (List.filter (fun c -> c.ok) cases) in
              Ok
                {
                  boundaries;
                  cases;
                  passed;
                  failed = List.length cases - passed;
                }))

let summary_to_json s =
  let module Json = Rwc_obs.Json in
  Json.Assoc
    [
      ("schema", Json.String "rwc-torture/1");
      ("boundaries", Json.Int s.boundaries);
      ("passed", Json.Int s.passed);
      ("failed", Json.Int s.failed);
      ( "cases",
        Json.List
          (List.map
             (fun c ->
               Json.Assoc
                 [
                   ("ordinal", Json.Int c.ordinal);
                   ("kind", Json.String c.kind);
                   ("fsck_findings", Json.Int c.findings);
                   ("fsck_residual", Json.Int c.residual);
                   ("ok", Json.Bool c.ok);
                   ("detail", Json.String c.detail);
                 ])
             s.cases) );
    ]
