(** The live control-plane daemon: an embedded simulation served over
    JSON-RPC.

    Layering (ROADMAP's dispatch/transport/stream split):

    - {!Engine} — socket-free core: the RPC method table, the
      {!Rwc_sim.Runner.hooks} that attach it to a running simulation,
      and the {!Rwc_journal} tee feeding the {!Stream} hub.  Fully
      unit-testable: [dispatch] maps a raw payload string to a
      response, no file descriptors involved.
    - the transport shell (private to {!serve}) — Unix-socket listener
      or stdio, per-client framing auto-detection ({!Transport}),
      non-blocking single-threaded pump driven from the simulation's
      sweep hook while running and from a [select] loop while
      lingering.
    - {!Stream} — topics, bounded per-subscriber queues, drop
      accounting.

    The daemon's observe/commit loop is byte-identical to
    [rwc simulate] for the same seed: hooks only read (the what-if RPC
    previews on a reverted copy of one mutable field pair), the tee
    fires after the journal write, and report rows print through the
    same renderer. *)

module Engine : sig
  type t

  val create :
    ?metrics_interval:int ->
    ?max_queue:int ->
    ?slo:Rwc_journal.Slo.plan ->
    journal:Rwc_journal.t ->
    journal_path:string ->
    unit ->
    t
  (** [metrics_interval] (default 96 sweeps = one sim-day) is the
      telemetry-stream cadence: every Nth sweep publishes a metrics
      delta ({!Rwc_obs.Metrics.snapshot_delta}) and an online SLO
      scorecard.  [max_queue] (default 256) is the default subscriber
      queue bound.  [slo] is the fallback plan for offline
      [slo.scorecard] evaluation.  [journal] must be an armed sink
      writing to [journal_path] — the journal {e is} the catch-up
      log. *)

  val install : t -> unit
  (** Attach the decision tee to the journal sink.  Raises
      [Invalid_argument] on a disarmed sink. *)

  val hooks : t -> Rwc_sim.Runner.hooks
  (** The hooks to place in the run's config: run-start captures the
      {!Rwc_sim.Runner.live} window, every sweep publishes due
      telemetry, pumps the transport and honors shutdown requests. *)

  val hub : t -> Stream.hub

  val on_policy_done : t -> string * string * Rwc_obs.Json.t -> unit
  (** Record a completed policy row [(name, rendered, json)] for
      [fleet.status] and publish a [run-finish] lifecycle event. *)

  val run :
    t ->
    config:Rwc_sim.Runner.config ->
    backbone:Rwc_topology.Backbone.t ->
    recovery:(Rwc_recover.ctx * Rwc_recover.checkpoint option) option ->
    Rwc_sim.Runner.policy list ->
    (string * string * Rwc_obs.Json.t) list option
  (** The daemon's one run body: {!Rwc_sim.Runner.run_policies} with
      the engine's {!hooks} in place of [config.hooks], plainly or
      under [recovery].  Each policy's row goes to {!on_policy_done}
      the moment it completes, in both modes.  Returns every row, or
      [None] when a stop request unwound the run — through a final
      checkpoint on a checkpointed run, through {!Shutdown} otherwise.
      The journal sink is closed either way. *)

  val seal : t -> unit
  (** All runs complete and the journal closed: queries switch to
      file-based fallbacks and a final lifecycle event announces the
      daemon is idle. *)

  val want_shutdown : t -> bool
  val request_shutdown : t -> unit

  val set_pump : t -> (unit -> unit) -> unit
  (** The transport pump the sweep hook invokes; a no-op by default so
      an engine without a shell (tests) still runs. *)

  val set_stop : t -> external_stop:(unit -> bool) -> unit
  (** [external_stop] is polled each sweep (the SIGTERM flag); a stop
      unwinds the run as {!run} describes. *)

  val dispatch :
    t ->
    ?on_subscribe:(Stream.subscriber -> unit) ->
    string ->
    Rwc_obs.Json.t option
  (** One raw JSON-RPC payload in, response out ([None] for satisfied
      notifications).  Methods: [server.ping], [server.shutdown],
      [fleet.status], [link.timeline], [slo.scorecard],
      [whatif.capacity], [stream.subscribe].  [on_subscribe] receives
      the subscriber created by [stream.subscribe] so the transport
      can bind it to the requesting connection. *)
end

exception Shutdown
(** Raised out of the sweep hook to stop an un-checkpointed run; the
    {!serve} driver catches it and shuts down cleanly. *)

type transport = Socket of string  (** Unix socket path. *) | Stdio

type run_mode =
  | Fresh  (** Plain {!Rwc_sim.Runner.run} per policy. *)
  | Checkpointed of (Rwc_recover.ctx * Rwc_recover.checkpoint option)
      (** A context and resume point from {!Rwc_recover.open_run}:
          SIGTERM cuts a final checkpoint; [--resume] continues an
          earlier daemon.  Both modes run through {!Engine.run}. *)

val serve :
  mode:transport ->
  ?metrics_interval:int ->
  ?max_queue:int ->
  config:Rwc_sim.Runner.config ->
  backbone:Rwc_topology.Backbone.t ->
  policies:Rwc_sim.Runner.policy list ->
  journal_path:string ->
  slo:Rwc_journal.Slo.plan ->
  run_mode:run_mode ->
  unit ->
  int
(** Run the daemon to completion; returns the process exit code (0 on
    clean shutdown, including SIGTERM).  [config.journal] must be the
    armed sink writing [journal_path]; [config.hooks] is overridden.
    In [Socket] mode the report rows print to stdout exactly as
    [rwc simulate] prints them; in [Stdio] mode stdout is the RPC
    channel, so reports are available via [fleet.status] only.  After
    the runs complete the daemon lingers — serving queries, what-ifs
    and streams from the final state — until SIGTERM/SIGINT, a
    [server.shutdown] RPC, or (stdio) EOF. *)

(** Minimal blocking client for [rwc watch] and tests: line-framed
    JSON-RPC over a Unix socket. *)
module Client : sig
  type t

  val connect : string -> t
  (** Raises [Unix.Unix_error] if the socket cannot be reached. *)

  val close : t -> unit

  val call :
    t -> meth:string -> ?params:Rwc_obs.Json.t -> unit ->
    (Rwc_obs.Json.t, string) result
  (** Send one request and block for its response, skipping any
      interleaved notifications. *)

  val recv : t -> (Rwc_obs.Json.t, string) result
  (** Block for the next message of any kind (stream events arrive as
      [stream.event] notifications). *)

  val send : t -> Rwc_obs.Json.t -> unit
end
