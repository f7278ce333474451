module J = Rwc_obs.Json

exception Crashed of float
exception Interrupted

type pending_kind = Begin_attempt | Finish_attempt | Te_recheck | Te_tick

type pending = {
  p_kind : pending_kind;
  p_link : int;
  p_new_gbps : int;
  p_prev_gbps : int;
  p_attempt : int;
  p_at : float;
}

type duct = {
  d_gbps : int;
  d_up : bool;
  d_snr_db : float;
  d_reconfiguring : bool;
  d_ctl : (int * int) option;
  d_det : (float * float) option;
  d_freeze_seen : bool;
  d_quar_seen : bool;
  d_ewma_alarming : bool;
}

type run_state = {
  r_policy : string;
  r_next_sample : int;
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
  r_reconfig_rng : int64;
  r_ducts : duct list;
  r_pending : pending list;
  r_faults : (int * (int64 * int) option list) option;
  r_guard : Rwc_guard.snapshot option;
  r_rollout : Rwc_rollout.snapshot option;
}

type checkpoint = {
  ck_seq : int;
  ck_seed : int;
  ck_days : float;
  ck_journal_events : int;
  ck_journal_bytes : int;
  ck_completed : (string * string * string) list;
  ck_run : run_state option;
}

type ctx = {
  dir : string;
  every : int;
  journal_path : string option;
  slo : Rwc_journal.Slo.plan;
  crash : Rwc_fault.injector;
  mutable stop : bool;
  mutable next_seq : int;
  mutable restarts : int;
}

(* Version 2: the fault-injector snapshot gained the four io_* slots
   (PR 8), so a v1 snapshot's slot list no longer matches a compiled
   injector's shape.  Old checkpoints are rejected cleanly at decode
   time — falling back to older files or a scratch start — instead of
   blowing up inside [Rwc_fault.restore].
   Version 3: the run state gained the staged-rollout engine slot
   (PR 10), so an in-flight rollout — enrolled links, bake window,
   queued mutating-RPC commands, pre-rollout guard snapshot — survives
   a crash and the resumed run replays the same gate outcome. *)
let version = 3
let keep_checkpoints = 3

(* ---- CRC32 (reflected, polynomial 0xEDB88320) ------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ---- JSON codec -------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* Floats carry accumulator state the resumed run must continue from
   bit-exactly; the Json printer's %.12g is lossy, so every float goes
   through its IEEE-754 bit pattern. *)
let jfloat f = J.String (Int64.to_string (Int64.bits_of_float f))
let jint64 i = J.String (Int64.to_string i)

let to_int = function J.Int i -> i | _ -> bad "expected int"
let to_bool = function J.Bool b -> b | _ -> bad "expected bool"
let to_str = function J.String s -> s | _ -> bad "expected string"
let to_list = function J.List l -> l | _ -> bad "expected list"

let to_int64 j =
  match Int64.of_string_opt (to_str j) with
  | Some i -> i
  | None -> bad "expected int64 string"

let to_float j = Int64.float_of_bits (to_int64 j)

let mem key j =
  match J.member key j with Some v -> v | None -> bad "missing field %s" key

let kind_name = function
  | Begin_attempt -> "begin"
  | Finish_attempt -> "finish"
  | Te_recheck -> "te-recheck"
  | Te_tick -> "te-tick"

let kind_of_name = function
  | "begin" -> Begin_attempt
  | "finish" -> Finish_attempt
  | "te-recheck" -> Te_recheck
  | "te-tick" -> Te_tick
  | s -> bad "unknown pending kind %S" s

let pending_to_json p =
  J.Assoc
    [
      ("kind", J.String (kind_name p.p_kind));
      ("link", J.Int p.p_link);
      ("new", J.Int p.p_new_gbps);
      ("prev", J.Int p.p_prev_gbps);
      ("attempt", J.Int p.p_attempt);
      ("at", jfloat p.p_at);
    ]

let pending_of_json j =
  {
    p_kind = kind_of_name (to_str (mem "kind" j));
    p_link = to_int (mem "link" j);
    p_new_gbps = to_int (mem "new" j);
    p_prev_gbps = to_int (mem "prev" j);
    p_attempt = to_int (mem "attempt" j);
    p_at = to_float (mem "at" j);
  }

let opt_to_json f = function None -> J.Null | Some v -> f v
let opt_of_json f = function J.Null -> None | j -> Some (f j)

let duct_to_json d =
  J.Assoc
    [
      ("gbps", J.Int d.d_gbps);
      ("up", J.Bool d.d_up);
      ("snr", jfloat d.d_snr_db);
      ("rec", J.Bool d.d_reconfiguring);
      ( "ctl",
        opt_to_json (fun (g, s) -> J.List [ J.Int g; J.Int s ]) d.d_ctl );
      ( "det",
        opt_to_json (fun (e, c) -> J.List [ jfloat e; jfloat c ]) d.d_det );
      ("freeze", J.Bool d.d_freeze_seen);
      ("quar", J.Bool d.d_quar_seen);
      ("ewma", J.Bool d.d_ewma_alarming);
    ]

let duct_of_json j =
  {
    d_gbps = to_int (mem "gbps" j);
    d_up = to_bool (mem "up" j);
    d_snr_db = to_float (mem "snr" j);
    d_reconfiguring = to_bool (mem "rec" j);
    d_ctl =
      opt_of_json
        (fun j ->
          match to_list j with
          | [ g; s ] -> (to_int g, to_int s)
          | _ -> bad "bad ctl pair")
        (mem "ctl" j);
    d_det =
      opt_of_json
        (fun j ->
          match to_list j with
          | [ e; c ] -> (to_float e, to_float c)
          | _ -> bad "bad det pair")
        (mem "det" j);
    d_freeze_seen = to_bool (mem "freeze" j);
    d_quar_seen = to_bool (mem "quar" j);
    d_ewma_alarming = to_bool (mem "ewma" j);
  }

let faults_to_json (total, slots) =
  J.Assoc
    [
      ("total", J.Int total);
      ( "slots",
        J.List
          (List.map
             (opt_to_json (fun (rng, count) ->
                  J.List [ jint64 rng; J.Int count ]))
             slots) );
    ]

let faults_of_json j =
  ( to_int (mem "total" j),
    List.map
      (opt_of_json (fun j ->
           match to_list j with
           | [ rng; count ] -> (to_int64 rng, to_int count)
           | _ -> bad "bad fault slot"))
      (to_list (mem "slots" j)) )

let guard_stats_to_json (s : Rwc_guard.stats) =
  J.List
    [
      J.Int s.Rwc_guard.suppressed_upshifts;
      J.Int s.Rwc_guard.quarantines;
      J.Int s.Rwc_guard.admission_deferred;
      J.Int s.Rwc_guard.stale_freezes;
      J.Int s.Rwc_guard.static_fallbacks;
      J.Int s.Rwc_guard.watchdog_trips;
    ]

let guard_stats_of_json j : Rwc_guard.stats =
  match to_list j with
  | [ a; b; c; d; e; f ] ->
      {
        Rwc_guard.suppressed_upshifts = to_int a;
        quarantines = to_int b;
        admission_deferred = to_int c;
        stale_freezes = to_int d;
        static_fallbacks = to_int e;
        watchdog_trips = to_int f;
      }
  | _ -> bad "bad guard stats"

let history_to_json h =
  opt_to_json (fun (t, up) -> J.List [ jfloat t; J.Bool up ]) h

let history_of_json j =
  opt_of_json
    (fun j ->
      match to_list j with
      | [ t; up ] -> (to_float t, to_bool up)
      | _ -> bad "bad commit history entry")
    j

let guard_link_to_json (l : Rwc_guard.link_snapshot) =
  J.Assoc
    [
      ("penalty", jfloat l.Rwc_guard.ls_penalty);
      ("penalty_at", jfloat l.Rwc_guard.ls_penalty_at);
      ("quar", J.Bool l.Rwc_guard.ls_quarantined);
      ("fresh", J.Bool l.Rwc_guard.ls_fresh);
      ("last_ok", jfloat l.Rwc_guard.ls_last_ok_s);
      ("stage", J.Int l.Rwc_guard.ls_stage);
      ("in_flight", J.Bool l.Rwc_guard.ls_in_flight);
      ("h1", history_to_json l.Rwc_guard.ls_h1);
      ("h2", history_to_json l.Rwc_guard.ls_h2);
    ]

let guard_link_of_json j : Rwc_guard.link_snapshot =
  {
    Rwc_guard.ls_penalty = to_float (mem "penalty" j);
    ls_penalty_at = to_float (mem "penalty_at" j);
    ls_quarantined = to_bool (mem "quar" j);
    ls_fresh = to_bool (mem "fresh" j);
    ls_last_ok_s = to_float (mem "last_ok" j);
    ls_stage = to_int (mem "stage" j);
    ls_in_flight = to_bool (mem "in_flight" j);
    ls_h1 = history_of_json (mem "h1" j);
    ls_h2 = history_of_json (mem "h2" j);
  }

let guard_to_json (g : Rwc_guard.snapshot) =
  J.Assoc
    [
      ("links", J.List (List.map guard_link_to_json g.Rwc_guard.gs_links));
      ("hold_until", jfloat g.Rwc_guard.gs_hold_until);
      ("osc", J.List (List.map jfloat g.Rwc_guard.gs_osc_events));
      ("stats", guard_stats_to_json g.Rwc_guard.gs_stats);
    ]

let guard_of_json j : Rwc_guard.snapshot =
  {
    Rwc_guard.gs_links = List.map guard_link_of_json (to_list (mem "links" j));
    gs_hold_until = to_float (mem "hold_until" j);
    gs_osc_events = List.map to_float (to_list (mem "osc" j));
    gs_stats = guard_stats_of_json (mem "stats" j);
  }

let rollout_config_to_json (c : Rwc_rollout.config) =
  J.Assoc
    [
      ("wave", J.Int c.Rwc_rollout.wave_links);
      ("group_budget", J.Int c.Rwc_rollout.group_budget);
      ("bake", jfloat c.Rwc_rollout.bake_s);
      ("gate_flaps", J.Int c.Rwc_rollout.gate_flaps);
      ("gate_quars", J.Int c.Rwc_rollout.gate_quars);
      ("gate_slo", opt_to_json (fun n -> J.Int n) c.Rwc_rollout.gate_slo);
      ("hold", jfloat c.Rwc_rollout.hold_s);
      ("settle", jfloat c.Rwc_rollout.settle_s);
      ( "freezes",
        J.List
          (List.map
             (fun (a, b) -> J.List [ jfloat a; jfloat b ])
             c.Rwc_rollout.freezes) );
      ("maint", J.Int c.Rwc_rollout.maint_tickets);
      ("fail_gate", J.Int c.Rwc_rollout.fail_gate);
    ]

let rollout_config_of_json j : Rwc_rollout.config =
  {
    Rwc_rollout.wave_links = to_int (mem "wave" j);
    group_budget = to_int (mem "group_budget" j);
    bake_s = to_float (mem "bake" j);
    gate_flaps = to_int (mem "gate_flaps" j);
    gate_quars = to_int (mem "gate_quars" j);
    gate_slo = opt_of_json to_int (mem "gate_slo" j);
    hold_s = to_float (mem "hold" j);
    settle_s = to_float (mem "settle" j);
    freezes =
      List.map
        (fun j ->
          match to_list j with
          | [ a; b ] -> (to_float a, to_float b)
          | _ -> bad "bad freeze window")
        (to_list (mem "freezes" j));
    maint_tickets = to_int (mem "maint" j);
    fail_gate = to_int (mem "fail_gate" j);
  }

let rollout_stats_to_json (s : Rwc_rollout.stats) =
  J.List
    [
      J.Int s.Rwc_rollout.rollouts_started;
      J.Int s.Rwc_rollout.waves_committed;
      J.Int s.Rwc_rollout.gates_passed;
      J.Int s.Rwc_rollout.gates_failed;
      J.Int s.Rwc_rollout.links_admitted;
      J.Int s.Rwc_rollout.links_deferred;
      J.Int s.Rwc_rollout.links_rolled_back;
    ]

let rollout_stats_of_json j : Rwc_rollout.stats =
  match to_list j with
  | [ a; b; c; d; e; f; g ] ->
      {
        Rwc_rollout.rollouts_started = to_int a;
        waves_committed = to_int b;
        gates_passed = to_int c;
        gates_failed = to_int d;
        links_admitted = to_int e;
        links_deferred = to_int f;
        links_rolled_back = to_int g;
      }
  | _ -> bad "bad rollout stats"

let int_pair_to_json (a, b) = J.List [ J.Int a; J.Int b ]

let int_pair_of_json j =
  match to_list j with
  | [ a; b ] -> (to_int a, to_int b)
  | _ -> bad "bad int pair"

let rollout_to_json (r : Rwc_rollout.snapshot) =
  J.Assoc
    [
      ("cfg", opt_to_json rollout_config_to_json r.Rwc_rollout.rs_cfg);
      ("proposed", opt_to_json rollout_config_to_json r.Rwc_rollout.rs_proposed);
      ("paused", J.Bool r.Rwc_rollout.rs_paused);
      ("next_rid", J.Int r.Rwc_rollout.rs_next_rid);
      ("rid", J.Int r.Rwc_rollout.rs_rid);
      ("wave", J.Int r.Rwc_rollout.rs_wave);
      ("phase", J.Int r.Rwc_rollout.rs_phase);
      ("until", jfloat r.Rwc_rollout.rs_until);
      ("wave_used", J.Int r.Rwc_rollout.rs_wave_used);
      ("group_used", J.List (List.map int_pair_to_json r.Rwc_rollout.rs_group_used));
      ("bake_flaps", J.Int r.Rwc_rollout.rs_bake_flaps);
      ("bake_quars", J.Int r.Rwc_rollout.rs_bake_quars);
      ("gates_seen", J.Int r.Rwc_rollout.rs_gates_seen);
      ("enrolled", J.List (List.map int_pair_to_json r.Rwc_rollout.rs_enrolled));
      ("overrides", J.List (List.map int_pair_to_json r.Rwc_rollout.rs_overrides));
      ( "pending",
        J.List
          (List.map
             (fun (code, cfg) ->
               J.List [ J.Int code; opt_to_json rollout_config_to_json cfg ])
             r.Rwc_rollout.rs_pending) );
      ("guard_pre", opt_to_json guard_to_json r.Rwc_rollout.rs_guard_pre);
      ("stats", rollout_stats_to_json r.Rwc_rollout.rs_stats);
    ]

let rollout_of_json j : Rwc_rollout.snapshot =
  {
    Rwc_rollout.rs_cfg = opt_of_json rollout_config_of_json (mem "cfg" j);
    rs_proposed = opt_of_json rollout_config_of_json (mem "proposed" j);
    rs_paused = to_bool (mem "paused" j);
    rs_next_rid = to_int (mem "next_rid" j);
    rs_rid = to_int (mem "rid" j);
    rs_wave = to_int (mem "wave" j);
    rs_phase = to_int (mem "phase" j);
    rs_until = to_float (mem "until" j);
    rs_wave_used = to_int (mem "wave_used" j);
    rs_group_used = List.map int_pair_of_json (to_list (mem "group_used" j));
    rs_bake_flaps = to_int (mem "bake_flaps" j);
    rs_bake_quars = to_int (mem "bake_quars" j);
    rs_gates_seen = to_int (mem "gates_seen" j);
    rs_enrolled = List.map int_pair_of_json (to_list (mem "enrolled" j));
    rs_overrides = List.map int_pair_of_json (to_list (mem "overrides" j));
    rs_pending =
      List.map
        (fun j ->
          match to_list j with
          | [ code; cfg ] ->
              (to_int code, opt_of_json rollout_config_of_json cfg)
          | _ -> bad "bad pending rollout command")
        (to_list (mem "pending" j));
    rs_guard_pre = opt_of_json guard_of_json (mem "guard_pre" j);
    rs_stats = rollout_stats_of_json (mem "stats" j);
  }

let run_state_to_json r =
  J.Assoc
    [
      ("policy", J.String r.r_policy);
      ("next_sample", J.Int r.r_next_sample);
      ("failures", J.Int r.r_failures);
      ("flaps", J.Int r.r_flaps);
      ("reconfigs", J.Int r.r_reconfigs);
      ("downtime_s", jfloat r.r_downtime_s);
      ("delivered_gbit", jfloat r.r_delivered_gbit);
      ("capacity_acc", jfloat r.r_capacity_acc);
      ("up_acc", jfloat r.r_up_acc);
      ("duct_obs", J.Int r.r_duct_obs);
      ("retries", J.Int r.r_retries);
      ("fallbacks", J.Int r.r_fallbacks);
      ("last_te_time", jfloat r.r_last_te_time);
      ("current_total", jfloat r.r_current_total);
      ("current_capacity", jfloat r.r_current_capacity);
      ("te_dirty", J.Bool r.r_te_dirty);
      ("duct_flow", J.List (List.map jfloat r.r_duct_flow));
      ("reconfig_rng", jint64 r.r_reconfig_rng);
      ("ducts", J.List (List.map duct_to_json r.r_ducts));
      ("pending", J.List (List.map pending_to_json r.r_pending));
      ("faults", opt_to_json faults_to_json r.r_faults);
      ("guard", opt_to_json guard_to_json r.r_guard);
      ("rollout", opt_to_json rollout_to_json r.r_rollout);
    ]

let run_state_of_json j =
  {
    r_policy = to_str (mem "policy" j);
    r_next_sample = to_int (mem "next_sample" j);
    r_failures = to_int (mem "failures" j);
    r_flaps = to_int (mem "flaps" j);
    r_reconfigs = to_int (mem "reconfigs" j);
    r_downtime_s = to_float (mem "downtime_s" j);
    r_delivered_gbit = to_float (mem "delivered_gbit" j);
    r_capacity_acc = to_float (mem "capacity_acc" j);
    r_up_acc = to_float (mem "up_acc" j);
    r_duct_obs = to_int (mem "duct_obs" j);
    r_retries = to_int (mem "retries" j);
    r_fallbacks = to_int (mem "fallbacks" j);
    r_last_te_time = to_float (mem "last_te_time" j);
    r_current_total = to_float (mem "current_total" j);
    r_current_capacity = to_float (mem "current_capacity" j);
    r_te_dirty = to_bool (mem "te_dirty" j);
    r_duct_flow = List.map to_float (to_list (mem "duct_flow" j));
    r_reconfig_rng = to_int64 (mem "reconfig_rng" j);
    r_ducts = List.map duct_of_json (to_list (mem "ducts" j));
    r_pending = List.map pending_of_json (to_list (mem "pending" j));
    r_faults = opt_of_json faults_of_json (mem "faults" j);
    r_guard = opt_of_json guard_of_json (mem "guard" j);
    r_rollout = opt_of_json rollout_of_json (mem "rollout" j);
  }

let checkpoint_to_json c =
  J.Assoc
    [
      ("version", J.Int version);
      ("seq", J.Int c.ck_seq);
      ("seed", J.Int c.ck_seed);
      ("days", jfloat c.ck_days);
      ("journal_events", J.Int c.ck_journal_events);
      ("journal_bytes", J.Int c.ck_journal_bytes);
      ( "completed",
        J.List
          (List.map
             (fun (name, pp, json) ->
               J.List [ J.String name; J.String pp; J.String json ])
             c.ck_completed) );
      ("run", opt_to_json run_state_to_json c.ck_run);
    ]

let checkpoint_of_json j =
  (match J.member "version" j with
  | Some (J.Int v) when v = version -> ()
  | Some (J.Int v) -> bad "unsupported checkpoint version %d" v
  | _ -> bad "missing checkpoint version");
  {
    ck_seq = to_int (mem "seq" j);
    ck_seed = to_int (mem "seed" j);
    ck_days = to_float (mem "days" j);
    ck_journal_events = to_int (mem "journal_events" j);
    ck_journal_bytes = to_int (mem "journal_bytes" j);
    ck_completed =
      List.map
        (fun j ->
          match to_list j with
          | [ name; pp; json ] -> (to_str name, to_str pp, to_str json)
          | _ -> bad "bad completed-policy entry")
        (to_list (mem "completed" j));
    ck_run = opt_of_json run_state_of_json (mem "run" j);
  }

(* ---- File format ------------------------------------------------------- *)

let checkpoint_to_string c =
  let body = J.to_string (checkpoint_to_json c) in
  Printf.sprintf "%s\ncrc32=%08lx\n" body (crc32 body)

let checkpoint_of_string s =
  match String.index_opt s '\n' with
  | None -> Error "truncated checkpoint: no CRC trailer"
  | Some i -> (
      let body = String.sub s 0 i in
      let trailer = String.sub s (i + 1) (String.length s - i - 1) in
      let expected = Printf.sprintf "crc32=%08lx\n" (crc32 body) in
      if trailer <> expected then Error "checkpoint CRC mismatch"
      else
        match J.parse body with
        | Error e -> Error ("checkpoint JSON: " ^ e)
        | Ok j -> (
            match checkpoint_of_json j with
            | c -> Ok c
            | exception Bad msg -> Error ("checkpoint decode: " ^ msg)))

(* ---- Checkpoint store -------------------------------------------------- *)

let file_seq name =
  let prefix = "ckpt-" and suffix = ".json" in
  let np = String.length prefix and ns = String.length suffix in
  if
    String.length name > np + ns
    && String.sub name 0 np = prefix
    && Filename.check_suffix name suffix
  then
    match int_of_string_opt (String.sub name np (String.length name - np - ns)) with
    | Some i when i >= 0 -> Some i
    | _ -> None
  else None

let list_seqs dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map file_seq
      |> List.sort (fun a b -> compare b a)

let file_of_seq dir seq = Filename.concat dir (Printf.sprintf "ckpt-%06d.json" seq)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let load_first dir ~usable =
  Rwc_perf.record Rwc_perf.Checkpoint_restore (fun () ->
      let rec first_valid = function
        | [] -> Ok None
        | seq :: rest -> (
            match read_file (file_of_seq dir seq) with
            | None -> first_valid rest
            | Some s -> (
                match checkpoint_of_string s with
                | Ok c when usable c -> Ok (Some c)
                | Ok _ | Error _ ->
                    (* A torn, truncated, stale-version or unusable
                       file: fall back to the previous checkpoint
                       rather than refusing to resume. *)
                    first_valid rest))
      in
      first_valid (list_seqs dir))

let load_latest dir = load_first dir ~usable:(fun _ -> true)

let file_length path =
  match In_channel.with_open_bin path In_channel.length with
  | n -> Int64.to_int n
  | exception Sys_error _ -> 0

let load_resumable ?journal_path dir =
  (* A checkpoint whose journal high-water mark lies beyond the
     current journal file is unusable: the bytes it would replay from
     are gone (truncated journal, damage cut back by fsck).  Skip it
     in favor of an older checkpoint whose mark the surviving prefix
     still covers — or a scratch start, which rewrites the journal in
     full.  Either way the resumed run re-emits byte-identically. *)
  let usable c =
    match journal_path with
    | None -> true
    | Some p -> c.ck_journal_bytes <= file_length p
  in
  load_first dir ~usable

let save ctx ~seed ~days ~journal_events ~journal_bytes ~completed ~run =
  Rwc_perf.record Rwc_perf.Checkpoint_write (fun () ->
      let seq = ctx.next_seq in
      ctx.next_seq <- seq + 1;
      let c =
        {
          ck_seq = seq;
          ck_seed = seed;
          ck_days = days;
          ck_journal_events = journal_events;
          ck_journal_bytes = journal_bytes;
          ck_completed = completed;
          ck_run = run;
        }
      in
      let path = file_of_seq ctx.dir seq in
      Rwc_storm.atomic_write path (checkpoint_to_string c);
      (* Prune: keep the newest [keep_checkpoints] so a corrupted newest
         file still has valid predecessors to fall back to. *)
      List.iteri
        (fun i seq ->
          if i >= keep_checkpoints then
            Rwc_storm.remove (file_of_seq ctx.dir seq))
        (list_seqs ctx.dir))

(* ---- Resume provenance --------------------------------------------------

   Every resume (and in-process crash restart) appends the journal
   high-water mark it replayed from to [resumed.txt]; `rwc explain
   --recovered` marks journal events at or past the earliest such mark
   as replayed.  The file is advisory forensics, never read by the
   recovery path itself, so a missing or garbled line is skipped rather
   than fatal. *)

let mark_file dir = Filename.concat dir "resumed.txt"

let record_resume ~dir ~journal_events ~journal_bytes =
  match Rwc_storm.Writer.append (mark_file dir) with
  | w ->
      Rwc_storm.Writer.write w
        (Printf.sprintf "%d %d\n" journal_events journal_bytes);
      Rwc_storm.Writer.close w
  | exception Sys_error _ -> ()

let resume_marks dir =
  match open_in (mark_file dir) with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            List.rev acc
        | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ e; b ] -> (
                match (int_of_string_opt e, int_of_string_opt b) with
                | Some e, Some b -> go ((e, b) :: acc)
                | _ -> go acc)
            | _ -> go acc)
      in
      go []

(* ---- Orphaned temp files ------------------------------------------------

   A crash between a checkpoint's temp-file write and its rename (or a
   lost rename under io_torn_rename) leaves a `*.tmp` in the directory.
   They are dead weight — never part of the prune-fallback chain — so
   opening the directory sweeps them, counted in the
   [recover/orphan_tmps_cleaned] metric and `rwc fsck`'s report. *)

let m_orphan_tmps = Rwc_obs.Metrics.counter "recover/orphan_tmps_cleaned"

let orphan_tmps dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".tmp")
      |> List.sort compare

let clean_orphan_tmps dir =
  let tmps = orphan_tmps dir in
  List.iter
    (fun n ->
      (try Sys.remove (Filename.concat dir n) with Sys_error _ -> ());
      Rwc_obs.Metrics.incr m_orphan_tmps)
    tmps;
  tmps

(* ---- Context ----------------------------------------------------------- *)

let plan_has_crash (plan : Rwc_fault.plan) =
  List.exists
    (fun (r : Rwc_fault.rule) -> r.Rwc_fault.component = Rwc_fault.Crash)
    plan.Rwc_fault.rules

let create ~dir ~every ?journal_path ?(slo = Rwc_journal.Slo.none) ~faults
    ~resume () =
  if every <= 0 then Error "checkpoint interval must be positive"
  else
    let ready =
      if Sys.file_exists dir then
        if Sys.is_directory dir then Ok ()
        else Error (dir ^ " exists and is not a directory")
      else match Sys.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Sys_error e -> Error e
    in
    match ready with
    | Error e -> Error e
    | Ok () -> (
        let (_ : string list) = clean_orphan_tmps dir in
        (* The crash oracle: a separate injector over the same plan, so
           its [crash] substream is independent of the run's own
           injector and — crucially — never checkpointed.  A restored
           crash stream would deterministically re-fire at the same
           boundary forever. *)
        let crash =
          if plan_has_crash faults then Rwc_fault.compile faults
          else Rwc_fault.disarmed
        in
        let next_seq = match list_seqs dir with [] -> 0 | s :: _ -> s + 1 in
        let ctx =
          {
            dir;
            every;
            journal_path;
            slo;
            crash;
            stop = false;
            next_seq;
            restarts = 0;
          }
        in
        if not resume then begin
          (* A fresh run restarts the journal from byte zero, so any
             marks left by an earlier run's resumes are stale. *)
          (try Sys.remove (mark_file dir) with Sys_error _ -> ());
          Ok (ctx, None)
        end
        else
          Result.map (fun c -> (ctx, c)) (load_resumable ?journal_path dir))

let request_stop ctx = ctx.stop <- true

(* ---- Opening a checkpointed run -----------------------------------------

   Every front end (simulate, serve, torture) and the in-process crash
   restart go through these, so the flag rules, the seed/horizon
   refusal and the journal rewind are each decided once. *)

let check_flags ~checkpoint ~every ~resume ~faults ~slo ~journal_path =
  match checkpoint with
  | None when resume -> Error "--resume requires --checkpoint DIR"
  | None when plan_has_crash faults ->
      (* A crash fault without a checkpoint directory would kill the
         run with nothing to restart from. *)
      Error
        "a crash= fault rule requires --checkpoint DIR (the restart loop \
         recovers from the newest checkpoint)"
  | None -> Ok ()
  | Some _ when every <= 0 -> Error "--checkpoint-every must be >= 1"
  | Some _ when (not (Rwc_journal.Slo.is_none slo)) && journal_path = None ->
      (* The online SLO tracker's state lives in the retained journal
         prefix, so it cannot be rebuilt after a restart without the
         file. *)
      Error
        "--checkpoint with an armed --slo requires --journal (a resumed run \
         rebuilds the online SLO tracker from the journal file)"
  | Some _ -> Ok ()

let check_resume resume_from ~dir ~seed ~days =
  match resume_from with
  | Some c when c.ck_seed <> seed || c.ck_days <> days ->
      Error
        (Printf.sprintf
           "--resume: checkpoint in %s belongs to a run with seed %d over %g \
            days, not seed %d over %g days"
           dir c.ck_seed c.ck_days seed days)
  | _ -> Ok ()

let reopen_journal ctx ~events ~bytes =
  Rwc_journal.resume ?path:ctx.journal_path ~slo:ctx.slo ~at:bytes ~events ()

let open_run ~dir ~every ~journal_path ~slo ~faults ~resume ~seed ~days =
  let ( let* ) = Result.bind in
  let* ctx, resume_from =
    Result.map_error
      (fun e -> Printf.sprintf "--checkpoint %s: %s" dir e)
      (create ~dir ~every ?journal_path ~slo ~faults ~resume ())
  in
  let* () = check_resume resume_from ~dir ~seed ~days in
  let* jnl =
    match resume_from with
    | Some c ->
        let* j =
          Result.map_error
            (fun e ->
              Printf.sprintf "--resume: %s: %s"
                (Option.value journal_path ~default:"journal") e)
            (reopen_journal ctx ~events:c.ck_journal_events
               ~bytes:c.ck_journal_bytes)
        in
        (* Only an accepted resume, its journal reopened, leaves a
           provenance mark. *)
        record_resume ~dir ~journal_events:c.ck_journal_events
          ~journal_bytes:c.ck_journal_bytes;
        Ok j
    | None -> (
        match Rwc_journal.create ?path:journal_path ~slo () with
        | j -> Ok j
        | exception Sys_error e -> Error ("--journal: " ^ e))
  in
  Ok (ctx, resume_from, jnl)
