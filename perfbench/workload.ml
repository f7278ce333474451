(* The workload table and the metric sets the JSON result line carries. *)

type t = Paper_na | Fleet_ops | Serve_live

let all = [ Paper_na; Fleet_ops; Serve_live ]

let name = function
  | Paper_na -> "paper_na"
  | Fleet_ops -> "fleet_ops"
  | Serve_live -> "serve_live"

let of_name s = List.find_opt (fun w -> name w = s) all

(* End-to-end metrics every workload reports from untraced runs. *)
let end_to_end =
  [ ("setup_s", "s"); ("sweeps_per_s", "1/s"); ("peak_rss_mb", "MB") ]

(* Per-layer metrics every workload reports from its traced pass. *)
let per_layer =
  [
    ("te.solves", "count");
    ("te.solve_p50_ms", "ms");
    ("te.solve_p95_ms", "ms");
    ("te.replay_ms", "ms");
    ("te.phases", "count");
    ("te.augmenting_paths", "count");
    ("te.alloc_mwords", "Mword");
    ("te.share", "1");
    ("loop.adapt_step_s", "s");
    ("loop.des_events", "count");
    ("loop.reconfigs", "count");
    ("loop.flaps", "count");
    ("telemetry.gen_s", "s");
    ("journal.events", "count");
    ("gc.alloc_mwords", "Mword");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("obs.traced_overhead", "x");
  ]

(* [Full seconds] sizes a run to take about that long on a 2-core x86
   machine; [Tiny] is the smoke-test size. *)
type size = Full of float | Tiny

let run w ~size ~work ~seed ~traced =
  Sims.mkdir_p work;
  Fun.protect ~finally:(fun () -> Sims.rm_rf work) @@ fun () ->
  match (w, size) with
  | Paper_na, Full seconds -> Sims.Paper.run (Sims.Paper.full ~seconds) ~seed ~trace:traced
  | Paper_na, Tiny -> Sims.Paper.run Sims.Paper.tiny ~seed ~trace:traced
  | Fleet_ops, Full seconds -> Sims.Fleet.run (Sims.Fleet.full ~seconds) ~work ~seed ~trace:traced
  | Fleet_ops, Tiny -> Sims.Fleet.run Sims.Fleet.tiny ~work ~seed ~trace:traced
  | Serve_live, Full seconds -> Serve_wl.run (Serve_wl.full ~seconds) ~work ~seed ~traced
  | Serve_live, Tiny -> Serve_wl.run Serve_wl.tiny ~work ~seed ~traced
