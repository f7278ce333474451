(* serve_live: an [rwc serve]-style daemon (Rwc_serve.Daemon.serve on a
   Unix socket) running paper_na's configuration with a journal, driven
   from this process by an open-loop client at a fixed rate over one
   connection, while a second connection holds a [stream.subscribe
   {from: 0}] subscriber.  The daemon answers only at sweep boundaries,
   so RPC latency includes waiting behind TE. *)

open Measure
module Json = Rwc_obs.Json
module Runner = Rwc_sim.Runner
module J = Rwc_journal
module Daemon = Rwc_serve.Daemon
module Transport = Rwc_serve.Transport
module Rpc = Rwc_serve.Rpc

type shape = {
  days : float;  (* paper_na's horizon *)
  sessions : int;  (* daemons run to completion under load *)
  probes : int;  (* extra spawn-to-first-sweep set-ups *)
  rate : float;  (* requests per second *)
  requests : int;  (* most requests one session issues *)
}

(* A 21-day session under load takes about 6.5 s on a 2-core x86
   machine; 50 requests/s sits under the knee.  The request cap (6 s
   of load) keeps the open loop from feeding on itself: uncapped, a
   slower daemon receives more requests, which slow it further, so a
   machine slowdown came out doubled in [sweeps_per_s]. *)
let full ~seconds =
  {
    days = 21.0;
    sessions = max 1 (int_of_float (Float.round (seconds /. 5.0)));
    probes = 60;
    rate = 50.0;
    requests = 300;
  }

let tiny = { days = 1.0; sessions = 1; probes = 1; rate = 50.0; requests = 50 }

(* The served fleet is the runner's default one (seed 7, as [rwc serve]
   runs without --seed): a deployed daemon serves one fleet whatever
   its clients ask, and the benchmark's seed drives the request mix.  A
   fleet per seed would let the fleet's TE work, which the open loop
   amplifies (a slower run receives more requests), swamp the
   run-to-run spread. *)
let fleet_seed = Runner.default_config.Runner.seed
let deadline_s = 150.0  (* a session that runs longer has failed *)
let grace_s = 5.0  (* for replies after the run has finished *)

let methods = [| "fleet.status"; "link.timeline"; "slo.scorecard"; "whatif.capacity" |]

(* The seeded request mix: ~60% fleet.status, 20% link.timeline, 10%
   slo.scorecard, 10% whatif.capacity with a target denomination. *)
let request_of rng ~n_links =
  let link () = Json.Int (Random.State.int rng n_links) in
  let r = Random.State.int rng 10 in
  if r < 6 then (0, None)
  else if r < 8 then (1, Some (Json.Assoc [ ("link", link ()) ]))
  else if r < 9 then (2, None)
  else
    let gbps = List.map (fun m -> m.Rwc_optical.Modulation.gbps) Rwc_optical.Modulation.all in
    let g = List.nth gbps (Random.State.int rng (List.length gbps)) in
    (3, Some (Json.Assoc [ ("link", link ()); ("gbps", Json.Int g) ]))

(* ---------------------------------------------------------------- *)
(* Daemon side                                                        *)
(* ---------------------------------------------------------------- *)

let metrics_to_json ms =
  Json.List
    (List.map
       (fun m ->
         Json.List
           [ Json.String m.name; Json.String m.unit_; Json.Float m.value; Json.String m.note ])
       ms)

let metrics_of_json = function
  | Json.List items ->
      List.filter_map
        (function
          | Json.List [ Json.String name; Json.String unit_; v; Json.String note ] ->
              let value =
                match v with Json.Float f -> f | Json.Int i -> float_of_int i | _ -> nan
              in
              Some (metric name unit_ value ~note)
          | _ -> None)
        items
  | _ -> []

type files = {
  sock : string;
  journal : string;
  log : string;
  layers : string;
  calib : string;
}

let files dir =
  let f = Filename.concat dir in
  {
    sock = f "d.sock";
    journal = f "journal.jsonl";
    log = f "daemon.log";
    layers = f "layers.json";
    calib = f "calib.json";
  }

(* What a daemon arms besides the run: nothing, the machine-speed
   samples ({!Calib}) of an untraced run's sessions, or the traced
   pass's readings. *)
type arm = Plain | Calibrated | Traced

(* Fork the daemon.  The child serves the run to completion, lingers
   until [server.shutdown], writes its calibration samples or traced
   readings and exits without running the parent's at_exit handlers. *)
let spawn ~dir ~days ~seed ~arm =
  let fs = files dir in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let log = Unix.openfile fs.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
          Unix.dup2 log Unix.stdout;
          Unix.dup2 log Unix.stderr;
          Unix.close log;
          let s = if arm = Traced then Some (Layers.start ()) else None in
          (* [rwc serve] always counts metrics: its metrics topic
             streams registry deltas. *)
          Rwc_obs.Metrics.enable ();
          if arm = Calibrated then Calib.start_timer ();
          let jnl = J.create ~path:fs.journal ~slo:J.Slo.default () in
          let config =
            { (Sims.Paper.config ~seed ~days Runner.no_hooks) with Runner.journal = jnl }
          in
          let code =
            Daemon.serve ~mode:(Daemon.Socket fs.sock) ~config ~backbone:Sims.Paper.backbone
              ~policies:[ Sims.Paper.policy ] ~journal_path:fs.journal ~slo:J.Slo.default
              ~run_mode:Daemon.Fresh ()
          in
          if arm = Calibrated then begin
            let r = Calib.stop_timer () in
            Json.to_file fs.calib
              (Json.Assoc [ ("spent_s", Json.Float r.Calib.spent_s); ("n", Json.Int r.Calib.n) ])
          end;
          (match s with
          | None -> ()
          | Some s ->
              let p = Layers.finish s in
              let te = Layers.phase p Rwc_perf.Te_solve in
              Json.to_file fs.layers
                (Json.Assoc
                   [
                     ("metrics", metrics_to_json (Layers.common_metrics p));
                     ("te_total_s", Json.Float te.Rwc_perf.total_s);
                   ]));
          code
        with e ->
          Printf.eprintf "daemon: %s\n%!" (Printexc.to_string e);
          3
      in
      Unix._exit code
  | pid -> (pid, fs)

(* ---------------------------------------------------------------- *)
(* Client side                                                        *)
(* ---------------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; dec : Transport.decoder; buf : Bytes.t }

let connect ~sock ~deadline =
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { fd; dec = Transport.decoder Transport.Jsonl; buf = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now_s () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let send c json =
  let s = Transport.encode Transport.Jsonl (Json.to_string json) in
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Read what is available and return every complete message. *)
let receive c =
  (match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> failwith "daemon closed the connection"
  | n -> Transport.feed c.dec (Bytes.sub_string c.buf 0 n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  let rec drain acc =
    match Transport.next c.dec with
    | Ok (Some payload) -> (
        match Json.parse payload with
        | Ok j -> drain (j :: acc)
        | Error e -> failwith ("bad JSON from daemon: " ^ e))
    | Ok None -> List.rev acc
    | Error e -> failwith ("bad framing from daemon: " ^ e)
  in
  drain []

let int_member k j = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None
let str_member k j = match Json.member k j with Some (Json.String s) -> Some s | _ -> None

(* Blocking call on a connection that carries no other traffic. *)
let call c ~id ~meth ?params () =
  send c (Rpc.request ~id:(Json.Int id) ~meth ?params ());
  let rec await pending =
    match List.find_opt (fun m -> int_member "id" m = Some id) pending with
    | Some m -> (
        match Json.member "result" m with
        | Some r -> Ok r
        | None -> Error (match Json.member "error" m with Some e -> Json.to_string e | None -> "no result"))
    | None ->
        ignore (Unix.select [ c.fd ] [] [] 1.0);
        await (receive c)
  in
  await []

(* Fork a daemon serving [fleet_seed]'s fleet and hand it to [f] with
   its spawn time.  The daemon is reaped when [f] returns, and killed
   first if [f] raises. *)
let with_daemon sh ~dir ~arm f =
  Sys.mkdir dir 0o755;
  let t_spawn = now_s () in
  let pid, fs = spawn ~dir ~days:sh.days ~seed:fleet_seed ~arm in
  let reap () = ignore (Unix.waitpid [] pid) in
  match f ~t_spawn ~pid fs with
  | v ->
      reap ();
      v
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap ();
      raise e

(* Spawn a daemon and stop it at its first sweep.  The daemon reads
   requests only at sweep boundaries, so the reply to a request sent as
   soon as the socket accepts marks the first sweep: set-up is spawn to
   that reply. *)
let probe sh ~dir =
  with_daemon sh ~dir ~arm:Plain @@ fun ~t_spawn ~pid:_ fs ->
  let a = connect ~sock:fs.sock ~deadline:(t_spawn +. deadline_s) in
  (match call a ~id:1 ~meth:"server.shutdown" () with
  | Ok _ -> ()
  | Error e -> failwith ("serve_live probe: " ^ e));
  let setup_s = now_s () -. t_spawn in
  Unix.close a.fd;
  setup_s

(* Decision seqs must rise one by one from 0 to the journal's event
   count; only as many may be missing as the daemon counted dropped. *)
let seq_errors ~journal_events ~dropped seqs =
  let rec increasing = function a :: (b :: _ as rest) -> a < b && increasing rest | _ -> true in
  let missing = journal_events - List.length seqs in
  if not (increasing seqs) then [ "decision seqs repeat or go backwards" ]
  else if List.exists (fun s -> s < 0 || s >= journal_events) seqs then
    [ Printf.sprintf "decision seq outside [0, %d)" journal_events ]
  else if missing > dropped then
    [ Printf.sprintf "decision seqs: %d missing, %d dropped" missing dropped ]
  else []

type session = {
  setup_s : float;  (* spawn to the subscribe reply, the first sweep *)
  run_s : float;  (* spawn to the run-finish lifecycle event *)
  sweeps : int;
  rss_mb : float;
  latencies_ms : (int * float) list;  (* method index, ms *)
  late_ms : float list;
  sent : int;
  rpc_failures : string list;
  report : Json.t;
  published : int;
  dropped : int;
  catchup_ms : float;
  stream_errors : string list;
  layers : Json.t option;
  cal : Calib.reading;  (* the daemon's machine-speed samples *)
}

(* One session against a running daemon: the open loop until the run
   finishes, the subscriber's catch-up, the final status and shutdown. *)
let drive sh ~rng ~t_spawn ~pid fs =
  let n_links = Array.length Sims.Paper.backbone.Rwc_topology.Backbone.ducts in
  let deadline = t_spawn +. deadline_s in
  let a = connect ~sock:fs.sock ~deadline in
  let b = connect ~sock:fs.sock ~deadline in
  let t_sub = now_s () in
  send b (Rpc.request ~id:(Json.Int 0) ~meth:"stream.subscribe"
            ~params:(Json.Assoc [ ("from", Json.Int 0) ]) ());
  let gen = Openloop.create ~rate:sh.rate ~t0:(now_s ()) ~limit:sh.requests in
  let meth_of = Hashtbl.create 1024 in
  let lat = ref [] and rpc_failures = ref [] in
  let sub_reply = ref nan and run_end = ref nan in
  let seqs = ref [] in
  let on_stream m =
    match (Json.member "id" m, Json.member "params" m) with
    | Some (Json.Int 0), _ ->
        sub_reply := now_s ();
        if Json.member "result" m = None then
          rpc_failures := ("stream.subscribe: " ^ Json.to_string m) :: !rpc_failures
    | _, Some env -> (
        match (str_member "topic" env, int_member "seq" env) with
        | Some "decision", Some seq -> seqs := seq :: !seqs
        | Some "lifecycle", _ -> (
            match Option.bind (Json.member "data" env) (str_member "event") with
            | Some "run-finish" ->
                run_end := now_s ();
                Openloop.close gen
            | _ -> ())
        | _ -> ())
    | _ -> ()
  in
  let on_reply m =
    match int_member "id" m with
    | None -> ()
    | Some id -> (
        match Openloop.answer gen ~id ~now:(now_s ()) with
        | None -> ()
        | Some l ->
            let k = Hashtbl.find meth_of id in
            if Json.member "result" m = None then
              rpc_failures := (methods.(k) ^ ": " ^ Json.to_string m) :: !rpc_failures
            else lat := (k, l *. 1e3) :: !lat)
  in
  (* The open loop: issue what is due, then wait for replies, stream
     events or the next due time, until the run has finished and every
     issued request is answered, or [grace_s] has passed since; an
     unanswered request then counts as failed. *)
  let rec loop () =
    if now_s () > deadline then failwith "serve_live: session deadline passed";
    List.iter
      (fun i ->
        let k, params = request_of rng ~n_links in
        Hashtbl.replace meth_of i k;
        send a (Rpc.request ~id:(Json.Int i) ~meth:methods.(k) ?params ()))
      (Openloop.take_due gen ~now:(now_s ()));
    let finished = not (Float.is_nan !run_end) in
    if not (finished && (Openloop.outstanding gen = 0 || now_s () > !run_end +. grace_s)) then begin
      let timeout = match Openloop.wait gen ~now:(now_s ()) with Some w -> w | None -> 0.5 in
      let ready, _, _ =
        try Unix.select [ a.fd; b.fd ] [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem a.fd ready then List.iter on_reply (receive a);
      if List.mem b.fd ready then List.iter on_stream (receive b);
      loop ()
    end
  in
  loop ();
  rpc_failures := List.init (Openloop.outstanding gen) (fun _ -> "no reply") @ !rpc_failures;
  let status =
    match call a ~id:(-1) ~meth:"fleet.status" () with
    | Ok s -> s
    | Error e -> failwith ("serve_live: final fleet.status: " ^ e)
  in
  let journal_events = Option.value ~default:(-1) (int_member "journal_events" status) in
  let dropped = Option.value ~default:0 (int_member "dropped_events" status) in
  (* Let the subscriber catch up to the end of the journal. *)
  let rec settle () =
    if List.length !seqs + dropped < journal_events && now_s () < deadline then begin
      let ready, _, _ = Unix.select [ b.fd ] [] [] 0.5 in
      if ready <> [] then List.iter on_stream (receive b);
      settle ()
    end
  in
  settle ();
  let stream_errors = seq_errors ~journal_events ~dropped (List.rev !seqs) in
  let rss_mb = Calib.program_rss_mb ~pid:(string_of_int pid) () in
  ignore (call a ~id:(-2) ~meth:"server.shutdown" ());
  Unix.close a.fd;
  Unix.close b.fd;
  let report =
    match Json.member "reports" status with
    | Some (Json.List [ r ]) -> Option.value ~default:Json.Null (Json.member "report" r)
    | _ -> Json.Null
  in
  {
    setup_s = !sub_reply -. t_spawn;
    run_s = !run_end -. t_spawn;
    sweeps = Sims.sweeps_of_days sh.days;
    rss_mb;
    latencies_ms = !lat;
    late_ms = List.map (fun s -> s *. 1e3) (Openloop.lateness gen);
    sent = Openloop.issued gen;
    rpc_failures = !rpc_failures;
    report;
    published = Option.value ~default:0 (int_member "published_events" status);
    dropped;
    catchup_ms = (!sub_reply -. t_sub) *. 1e3;
    stream_errors;
    layers = None;
    cal = { Calib.spent_s = 0.0; n = 0 };
  }

let session sh ~dir ~seed ~arm ~index =
  let rng = Random.State.make [| seed; index; 0x5e7e |] in
  let s = with_daemon sh ~dir ~arm (drive sh ~rng) in
  (* The daemon writes its traced readings as it exits. *)
  let fs = files dir in
  let read path = Json.parse (In_channel.with_open_text path In_channel.input_all) in
  match arm with
  | Plain -> s
  | Calibrated -> (
    match read fs.calib with
    | Ok j -> (
        match (Json.member "spent_s" j, Json.member "n" j) with
        | Some (Json.Float spent_s), Some (Json.Int n) -> { s with cal = { Calib.spent_s; n } }
        | _ -> s)
    | Error _ -> s)
  | Traced -> (
    match read fs.layers with
    | Ok j -> { s with layers = Some j }
    | Error _ -> s)

(* ---------------------------------------------------------------- *)
(* Workload                                                           *)
(* ---------------------------------------------------------------- *)

(* The report fields the served run must share with the batch run. *)
let compared = [ "delivered_pbit"; "duct_availability"; "failures"; "flaps";
                 "reconfigurations"; "reconfig_downtime_s" ]

let row_mismatches ~reference served =
  let refj = Runner.json_of_report reference in
  List.filter_map
    (fun k ->
      let s j = Option.map Json.to_string (Json.member k j) in
      if s refj = s served && s refj <> None then None
      else
        Some
          (Printf.sprintf "%s: served %s, batch %s" k
             (Option.value ~default:"-" (s served))
             (Option.value ~default:"-" (s refj))))
    compared

let run sh ~work ~seed ~traced =
  let t = Sims.tally () in
  let n = if traced then 2 else sh.sessions in

  (* Untraced sessions each draw their own request stream; the traced
     pair (untraced, then traced) replays one. *)
  let session i =
    session sh ~dir:(Filename.concat work (Printf.sprintf "serve-%d" i)) ~seed
      ~arm:(if not traced then Calibrated else if i = 1 then Traced else Plain)
      ~index:(if traced then 0 else i)
  in
  let probes, sessions =
    if traced then ([], List.init n session)
    else
      Sims.with_probes ~reps:n ~probes:sh.probes ~rep:session ~probe:(fun j ->
          probe sh ~dir:(Filename.concat work (Printf.sprintf "probe-%d" j)))
  in
  let reference = Sims.Paper.reference_report ~seed:fleet_seed ~days:sh.days in
  List.iter
    (fun s ->
      (* Every request is an attempted operation. *)
      Sims.passed t (s.sent - List.length s.rpc_failures);
      List.iter (fun e -> Sims.check t ~what:"rpc" [ e ]) s.rpc_failures;
      Sims.check t ~what:"served row vs batch report" (row_mismatches ~reference s.report);
      Sims.check t ~what:"stream seq" s.stream_errors)
    sessions;
  let replay =
    if traced then Layers.with_spans (fun () -> Sims.Paper.te_check t ~seed:fleet_seed ~days:sh.days)
    else Sims.Paper.te_check t ~seed:fleet_seed ~days:sh.days
  in
  let lat = List.concat_map (fun s -> s.latencies_ms) sessions in
  if not traced then begin
    let run_s = List.fold_left (fun a s -> a +. s.run_s) 0.0 sessions in
    let sweeps = List.fold_left (fun a s -> a + s.sweeps) 0 sessions in
    (* The daemons' own samples give the machine's speed; they run in
       the daemon, about 2% of its time, inside [run_s]. *)
    let cal = Calib.combine (List.map (fun s -> s.cal) sessions) in
    List.iter
      (fun s ->
        Sims.check t ~what:"daemon calibration"
          (if s.cal.Calib.n > 0 then [] else [ "no machine-speed samples" ]))
      sessions;
    let k = Calib.scale cal in
    let rpc =
      List.map
        (fun m -> Sims.scaled k m.name m.unit_ m.value ~note:m.note)
        (latency_pair ~prefix:"rpc" ~want:0.99 (List.map snd lat))
    in
    let e2e =
      [
        (let xs = probes @ List.map (fun s -> s.setup_s) sessions in
         Sims.scaled k "setup_s" "s" (median xs)
           ~note:(Printf.sprintf "spawn to first sweep, median of %d" (List.length xs)));
        (* Each session's rate is scaled by its own daemon's samples. *)
        (let rate s = float_of_int s.sweeps /. s.run_s in
         metric "sweeps_per_s" "1/s"
           (median (List.map (fun s -> rate s /. Calib.scale s.cal) sessions))
           ~note:
             (Printf.sprintf "median of %d sessions; %d sweeps in %.2f s under load; wall %.6g" n
                sweeps run_s
                (median (List.map rate sessions))));
        metric "peak_rss_mb" "MB" (median (List.map (fun s -> s.rss_mb) sessions))
          ~note:"daemon VmHWM less the calibration block, median over sessions";
      ]
      @ rpc @ [ Calib.metric cal ]
    in
    { Sims.e2e; layer = []; checks = t.n; failures = t.bad }
  end
  else begin
    let u = List.nth sessions 0 and tr = List.nth sessions 1 in
    let daemon =
      match tr.layers with
      | None -> []
      | Some j -> (
          let ms = metrics_of_json (Option.value ~default:Json.Null (Json.member "metrics" j)) in
          let te_total =
            match Json.member "te_total_s" j with Some (Json.Float f) -> f | _ -> nan
          in
          List.map
            (fun m -> if m.name = "te.share" then { m with value = te_total /. tr.run_s; note = "te_solve time / traced run wall" } else m)
            ms)
    in
    if daemon = [] then Sims.check t ~what:"daemon layer readings" [ "missing" ];
    let per_method =
      List.concat
        (List.mapi
           (fun k name ->
             latency_pair ~prefix:("rpc." ^ name) ~want:0.99
               (List.filter_map (fun (k', l) -> if k = k' then Some l else None) lat))
           (Array.to_list methods))
    in
    let late = tail ~want:0.99 (List.concat_map (fun s -> s.late_ms) sessions) in
    let report_counts =
      let gi k = match Json.member k tr.report with Some (Json.Int i) -> float_of_int i | _ -> nan in
      [ metric "loop.reconfigs" "count" (gi "reconfigurations"); metric "loop.flaps" "count" (gi "flaps") ]
    in
    let layer =
      daemon
      @ Layers.replay_metrics replay
      @ report_counts @ per_method
      @ [
          metric "stream.published" "count" (float_of_int tr.published);
          metric "stream.dropped" "count" (float_of_int tr.dropped);
          metric "stream.catchup_ms" "ms" tr.catchup_ms ~note:"stream.subscribe {from: 0} reply";
          metric "client.late_p99_ms" "ms" late.value
            ~note:(Printf.sprintf "generator lateness, p%g of n=%d" (100.0 *. late.level) late.samples);
          Sims.overhead_metric ~untraced_s:u.run_s ~traced_s:tr.run_s;
        ]
    in
    { Sims.e2e = []; layer; checks = t.n; failures = t.bad }
  end
