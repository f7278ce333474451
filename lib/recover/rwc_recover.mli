(** Crash-safe checkpoints and resumable runs.

    A 60-day control-loop simulation is long enough that the process
    hosting it dies: deploys, OOM kills, operators hitting Ctrl-C.  An
    operational controller survives these by checkpointing its state
    and replaying its decision journal; this module gives the
    reproduction the same property, and doubles as the harness for a
    new [crash=] fault that kills the controller mid-run on purpose.

    The design splits responsibility three ways:

    - {b this module} owns the durable artifact: a versioned
      {!checkpoint} of the full control-loop state as plain data,
      written atomically (temp file + rename) with a CRC32 trailer so
      a torn or truncated file is detected at load time and the
      previous checkpoint is used instead;
    - {b the runner} ({!Rwc_sim}) captures and restores the live
      state: DES clock and pending events (as reconstructible
      descriptors, since handlers are closures), per-duct SNR and
      controller state, guard and fault-injector positions, TE
      accumulators;
    - {b the journal} ({!Rwc_journal}) supplies the replay suffix: a
      checkpoint records the journal's high-water mark, and a resumed
      run truncates the file back to it and re-emits the suffix
      byte-identically, so an interrupted-and-resumed run produces the
      same journal and the same report as an uninterrupted one.

    The crash oracle deliberately lives {e outside} the checkpoint: if
    the [crash=] RNG stream were restored along with everything else,
    a deterministic replay would re-fire the same crash at the same
    boundary forever.  The restart loop owns a separate injector whose
    stream advances monotonically across restarts, so every re-executed
    boundary draws fresh.  Crash firings are never drawn from the
    run's own injector, so [fault_stats] — and therefore the report —
    stay byte-identical to a crash-free run. *)

exception Crashed of float
(** Raised by the runner when the crash fault fires at a sample
    boundary (payload: simulation time).  Caught by the restart
    loop. *)

exception Interrupted
(** Raised by the runner after cutting a final checkpoint in response
    to a stop request (SIGINT/SIGTERM). *)

(** {1 Checkpoint payload (plain data)} *)

type pending_kind =
  | Begin_attempt  (** A retry backoff expires: start attempt [p_attempt]. *)
  | Finish_attempt  (** A reconfiguration attempt completes. *)
  | Te_recheck  (** A fault-delayed TE recomputation arrives. *)
  | Te_tick  (** The periodic TE cron's next firing. *)

type pending = {
  p_kind : pending_kind;
  p_link : int;  (** Duct index; -1 for TE events. *)
  p_new_gbps : int;
  p_prev_gbps : int;
  p_attempt : int;
  p_at : float;  (** Absolute firing time, simulation seconds. *)
}
(** One in-flight DES event, as a descriptor the runner can turn back
    into a closure.  Descriptors are stored in scheduling order so the
    restored event queue breaks same-time ties exactly as the original
    did. *)

type duct = {
  d_gbps : int;
  d_up : bool;
  d_snr_db : float;
  d_reconfiguring : bool;
  d_ctl : (int * int) option;  (** Adapt (capacity_gbps, qualify_streak). *)
  d_det : (float * float) option;  (** (EWMA level, CUSUM statistic). *)
  d_freeze_seen : bool;
  d_quar_seen : bool;
  d_ewma_alarming : bool;
}

type run_state = {
  r_policy : string;
  r_next_sample : int;  (** The checkpoint was cut at this sweep's entry. *)
  r_failures : int;
  r_flaps : int;
  r_reconfigs : int;
  r_downtime_s : float;
  r_delivered_gbit : float;
  r_capacity_acc : float;
  r_up_acc : float;
  r_duct_obs : int;
  r_retries : int;
  r_fallbacks : int;
  r_last_te_time : float;
  r_current_total : float;
  r_current_capacity : float;
  r_te_dirty : bool;
  r_duct_flow : float list;
  r_reconfig_rng : int64;  (** Raw splitmix64 position. *)
  r_ducts : duct list;
  r_pending : pending list;
  r_faults : (int * (int64 * int) option list) option;
      (** {!Rwc_fault.snapshot_to_list} of the run's injector; [None]
          when the run had no fault plan. *)
  r_guard : Rwc_guard.snapshot option;
  r_rollout : Rwc_rollout.snapshot option;
      (** Staged-rollout engine state ({!Rwc_rollout.snapshot});
          [None] when the engine was never armed or touched, so
          rollout-free checkpoints carry no payload for it. *)
}

type checkpoint = {
  ck_seq : int;
  ck_seed : int;
  ck_days : float;
  ck_journal_events : int;
  ck_journal_bytes : int;  (** Journal high-water mark at the cut. *)
  ck_completed : (string * string * string) list;
      (** Finished policies as (name, rendered report, report JSON):
          a resumed comparison reprints them verbatim. *)
  ck_run : run_state option;  (** [None]: cut at a policy boundary. *)
}

(** {1 Recovery context} *)

type ctx = {
  dir : string;
  every : int;  (** Samples between periodic checkpoints. *)
  journal_path : string option;
  slo : Rwc_journal.Slo.plan;
  crash : Rwc_fault.injector;
      (** The crash oracle — deliberately never checkpointed. *)
  mutable stop : bool;
      (** Set by signal handlers; the runner checks it at every sample
          boundary, cuts a final checkpoint and raises
          {!Interrupted}. *)
  mutable next_seq : int;
  mutable restarts : int;  (** Crash restarts performed so far. *)
}

val plan_has_crash : Rwc_fault.plan -> bool

val create :
  dir:string ->
  every:int ->
  ?journal_path:string ->
  ?slo:Rwc_journal.Slo.plan ->
  faults:Rwc_fault.plan ->
  resume:bool ->
  unit ->
  (ctx * checkpoint option, string) result
(** Open (creating the directory if needed) a recovery context.
    Orphaned [*.tmp] files in the directory are swept on open (see
    {!clean_orphan_tmps}).  With [resume:true] the newest usable
    checkpoint is returned for the caller to restart from — usable
    meaning it passes CRC/version validation {e and}, when
    [journal_path] is given, its journal high-water mark does not
    exceed the current journal file length (a truncated or
    fsck-repaired journal falls back to an older checkpoint, or to a
    scratch start, and the resumed run re-emits byte-identically
    either way).  Otherwise any stale checkpoints are left alone and
    numbering continues past them.  The crash oracle is compiled from
    [faults] exactly when the plan carries a [crash] rule.

    [create] records no resume mark: {!open_run} does, once the
    checkpoint is accepted.  A caller that resumes through [create]
    by hand must call {!record_resume} itself to leave one. *)

val request_stop : ctx -> unit
(** Signal-handler entry point: flags the context so the runner exits
    through a final checkpoint at the next sample boundary. *)

(** {1 Opening a checkpointed run}

    The single entry point every front end ([rwc simulate], [rwc serve],
    {!Rwc_sim.Torture}) opens a checkpointed run through, and the single
    journal rewind the in-process crash restart shares with it.  Error
    texts name the [rwc] flags they concern. *)

val check_flags :
  checkpoint:string option ->
  every:int ->
  resume:bool ->
  faults:Rwc_fault.plan ->
  slo:Rwc_journal.Slo.plan ->
  journal_path:string option ->
  (unit, string) result
(** Recovery-flag coherence, decidable before anything is opened:
    [--resume] and a [crash=] fault rule need a checkpoint directory;
    with one, the interval must be positive and an armed SLO plan
    needs a journal file (the tracker is rebuilt from it on resume). *)

val reopen_journal : ctx -> events:int -> bytes:int -> (Rwc_journal.t, string) result
(** {!Rwc_journal.resume} of [ctx.journal_path] under [ctx.slo] at a
    high-water mark: the file is truncated back to [bytes] and the
    event counter restarts at [events]. *)

val open_run :
  dir:string ->
  every:int ->
  journal_path:string option ->
  slo:Rwc_journal.Slo.plan ->
  faults:Rwc_fault.plan ->
  resume:bool ->
  seed:int ->
  days:float ->
  (ctx * checkpoint option * Rwc_journal.t, string) result
(** {!create}, then the run's journal sink.  A checkpoint cut for
    another [seed] or [days] is refused (an [Error], with no file
    touched past what {!create} did).  With an accepted checkpoint the
    journal is reopened at its marks ({!reopen_journal}) and only then
    its resume mark recorded ({!record_resume}); otherwise the journal
    is created fresh (truncating any earlier file).  Hand the three to
    {!Rwc_sim.Runner.run_policies}. *)

(** {1 Resume provenance}

    Every resume ({!open_run}, once the checkpoint is accepted) and
    in-process crash restart appends the journal high-water mark it
    replayed from to [resumed.txt] in the checkpoint directory —
    advisory forensics for
    [rwc explain --recovered], never read by the recovery path
    itself.  {!create} with [resume:false] clears the file (a fresh
    run restarts the journal from byte zero). *)

val record_resume : dir:string -> journal_events:int -> journal_bytes:int -> unit
(** Best-effort append of one (events, bytes) mark; never raises. *)

val resume_marks : string -> (int * int) list
(** All recorded (events, bytes) marks, oldest first; [] when the run
    was never resumed.  Garbled lines are skipped. *)

(** {1 Codec}

    A checkpoint file is one compact JSON line followed by a
    [crc32=XXXXXXXX] trailer line.  Floats are serialized as their
    IEEE-754 bit patterns (decimal int64 strings) because the resumed
    run must restart from {e exactly} the accumulator values of the
    original — a shortest-round-trip decimal rendering is not part of
    the {!Rwc_obs.Json} printer's contract. *)

val crc32 : string -> int32
(** Standard reflected CRC-32 (polynomial 0xEDB88320). *)

val checkpoint_to_string : checkpoint -> string
(** Full file image, trailer included. *)

val checkpoint_of_string : string -> (checkpoint, string) result
(** Rejects version mismatches, CRC mismatches, missing trailers
    (truncation) and malformed JSON — never raises. *)

(** {1 Checkpoint store} *)

val save :
  ctx ->
  seed:int ->
  days:float ->
  journal_events:int ->
  journal_bytes:int ->
  completed:(string * string * string) list ->
  run:run_state option ->
  unit
(** Write the next [ckpt-<seq>.json] atomically (temp + rename) and
    prune all but the newest three — the fallback chain a corrupted
    newest file needs.  Raises [Sys_error] if the directory vanishes. *)

val load_latest : string -> (checkpoint option, string) result
(** Newest checkpoint in the directory that passes CRC and version
    validation; silently skips corrupt or truncated files in favor of
    older ones.  [Ok None] when the directory is missing or holds no
    valid checkpoint. *)

val load_resumable :
  ?journal_path:string -> string -> (checkpoint option, string) result
(** {!load_latest} restricted, when [journal_path] is given, to
    checkpoints whose journal high-water mark the current journal file
    still covers — the selection {!create} uses on resume. *)

val file_seq : string -> int option
(** [file_seq "ckpt-000042.json"] is [Some 42]; [None] for any name
    that is not a checkpoint file.  Exposed for [rwc fsck]. *)

(** {1 Directory hygiene} *)

val orphan_tmps : string -> string list
(** Basenames of [*.tmp] files in the directory (sorted) — debris of a
    crash between a checkpoint's temp write and its rename, or of a
    lost rename under [io_torn_rename].  [] if the directory is
    unreadable. *)

val clean_orphan_tmps : string -> string list
(** Remove and return them, counting each in the
    [recover/orphan_tmps_cleaned] metric.  Also performed by {!create}
    on directory open. *)
