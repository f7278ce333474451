(* Clocks, order statistics, process memory and the metric record every
   workload reports through. *)

(* Monotonic, in nanoseconds: paper_na's sweeps between TE solves take
   ~8 us, finer than [Unix.gettimeofday] resolves. *)
let wall_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Seconds this process has spent in the machine-speed kernel
   ({!Calib}), which every interval the benchmark times leaves out. *)
let calib_spent_s = ref 0.0

let now_s () = wall_s () -. !calib_spent_s

let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* ---------------------------------------------------------------- *)
(* Order statistics                                                   *)
(* ---------------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 0.5

let min_beyond = 10

(* The tail percentile a sample set supports: [want] if at least
   [min_beyond] samples lie beyond its nearest rank, otherwise the
   highest percentile that still leaves that many beyond it.  [None]
   when there are not even [min_beyond + 1] samples. *)
let tail_level ~want n =
  if n <= min_beyond then None
  else
    let beyond p = n - int_of_float (Float.ceil (p *. float_of_int n)) in
    if beyond want >= min_beyond then Some want
    else Some (float_of_int (n - min_beyond) /. float_of_int n)

type tail = { level : float; value : float; samples : int }

let tail ~want xs =
  let a = sorted xs in
  let n = Array.length a in
  match tail_level ~want n with
  | None -> { level = 1.0; value = (if n = 0 then nan else a.(n - 1)); samples = n }
  | Some level -> { level; value = percentile_sorted a level; samples = n }

(* ---------------------------------------------------------------- *)
(* Process memory                                                     *)
(* ---------------------------------------------------------------- *)

(* VmHWM (peak resident set) of a live process, in MB. *)
let vm_hwm_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> float_of_int kb /. 1024.0)
                else scan ()
          in
          scan ())

(* Allocation and collection counts at a point.  The minor heap is
   emptied first, so every pass starts from the same GC state and the
   quick-stat counters are current.  [words] counts minor-heap
   allocation only: it repeats exactly at one seed, while the runtime's
   major-minus-promoted figure drifts by a few words between identical
   passes. *)
type gc_mark = { words : float; minor : int; major : int }

let gc_mark () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  {
    words = Gc.minor_words ();
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

(* ---------------------------------------------------------------- *)
(* Metrics                                                            *)
(* ---------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; note : string }

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

let valid_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let valid_unit s =
  let n = String.length s in
  n > 0 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

let pp_metric oc m =
  Printf.fprintf oc "  %-28s %14.6g %-6s%s\n" m.name m.value m.unit_
    (if m.note = "" then "" else "  (" ^ m.note ^ ")")

(* A timing summary: median plus the supported tail, with its sample
   count in the note. *)
let latency_pair ~prefix ~want ms =
  let t = tail ~want ms in
  let note = Printf.sprintf "p%g of n=%d" (100.0 *. t.level) t.samples in
  [
    metric (prefix ^ "_p50_ms") "ms" (median ms)
      ~note:(Printf.sprintf "n=%d" (List.length ms));
    metric
      (Printf.sprintf "%s_p%g_ms" prefix (100.0 *. want))
      "ms" t.value ~note;
  ]
