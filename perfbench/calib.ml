(* Machine-speed calibration.  On a shared virtual machine the same
   run can take 1.7 times as long a few minutes later, with no steal
   time to show for it.  A fixed kernel, timed at short intervals
   while a workload runs, measures how fast the machine is during
   that run; a time divided by the kernel's mean time over the same
   stretch, and multiplied by its time on a calm machine, is the time
   the run would have taken there.

   The kernel has two halves of about equal time: a shortest-path
   search over a small fixed graph with an array heap (branchy code on
   data that fits the first-level cache, like the TE solver's searches)
   and read-modify-write passes over 2 MB (cache and memory traffic,
   like the program's allocation).  The search alone followed the
   program's slowdowns only partly (1.25 times slower while paper_na
   ran 1.46 times slower) and the passes alone overshot.  Together:
   over 18 repetitions of one 21-day paper_na run in 2.5 minutes,
   wall time ranged 2.8-3.95 s and scaled time 2.16-2.35 s.

   The kernel allocates nothing, so it never triggers a collection
   that would bill the workload's GC work to the machine, and it shares
   no code with the program, so a change to the program cannot move
   it. *)

let nodes = 512
let degree = 6

let target, weight =
  let st = Random.State.make [| 0x5eed |] in
  ( Array.init (nodes * degree) (fun _ -> Random.State.int st nodes),
    Array.init (nodes * degree) (fun _ -> 1.0 +. Random.State.float st 9.0) )

let dist = Array.make nodes infinity
let heap_key = Array.make ((nodes * degree) + 1) 0.0
let heap_node = Array.make ((nodes * degree) + 1) 0
let heap_len = ref 0

let swap i j =
  let k = heap_key.(i) and n = heap_node.(i) in
  heap_key.(i) <- heap_key.(j);
  heap_node.(i) <- heap_node.(j);
  heap_key.(j) <- k;
  heap_node.(j) <- n

(* Pushes [node] with the key the caller stored in [heap_key] at slot
   [!heap_len]: a float argument would be boxed, and the kernel must
   not allocate. *)
let push node =
  let i = ref !heap_len in
  incr heap_len;
  heap_node.(!i) <- node;
  while !i > 0 && heap_key.((!i - 1) / 2) > heap_key.(!i) do
    swap !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

(* Removes the minimum; the caller has read it from slot 0. *)
let pop () =
  decr heap_len;
  heap_key.(0) <- heap_key.(!heap_len);
  heap_node.(0) <- heap_node.(!heap_len);
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let m = ref !i in
    if l < !heap_len && heap_key.(l) < heap_key.(!m) then m := l;
    if r < !heap_len && heap_key.(r) < heap_key.(!m) then m := r;
    if !m = !i then continue := false
    else begin
      swap !i !m;
      i := !m
    end
  done

(* Shortest paths from every 64th node; returns the number of
   settled nodes, so the work cannot be optimised away. *)
let search () =
  let settled = ref 0 in
  let src = ref 0 in
  while !src < nodes do
    Array.fill dist 0 nodes infinity;
    dist.(!src) <- 0.0;
    heap_len := 0;
    heap_key.(0) <- 0.0;
    push !src;
    while !heap_len > 0 do
      let u = heap_node.(0) in
      let d = heap_key.(0) in
      pop ();
      if d <= dist.(u) then begin
        incr settled;
        for e = u * degree to ((u + 1) * degree) - 1 do
          let v = target.(e) in
          let nd = d +. weight.(e) in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            heap_key.(!heap_len) <- nd;
            push v
          end
        done
      end
    done;
    src := !src + 64
  done;
  !settled

(* Outside the OCaml heap, so no collection scans it. *)
let block =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 18) in
  Bigarray.Array1.fill b 0;
  b

(* The program's peak resident memory: VmHWM less the block, which
   every benchmark process and forked daemon holds resident from the
   start. *)
let program_rss_mb ?pid () =
  Measure.vm_hwm_mb ?pid () -. (float_of_int (Bigarray.Array1.size_in_bytes block) /. 1048576.0)

let passes () =
  for pass = 1 to 4 do
    for i = 0 to Bigarray.Array1.dim block - 1 do
      Bigarray.Array1.unsafe_set block i (Bigarray.Array1.unsafe_get block i + i + pass)
    done
  done;
  Bigarray.Array1.unsafe_get block 1000

(* Returns the search's settled count, which is the same on every
   call. *)
let kernel () =
  ignore (Sys.opaque_identity (passes ()));
  search ()

(* The kernel's mean time on a calm 2-core x86 machine, in seconds. *)
let reference_s = 2.0e-3

(* Samples at least [interval_s] apart: the kernel then takes about 2%
   of a run. *)
let interval_s = 0.1

type reading = { spent_s : float; n : int }

let on = ref false
let spent = ref 0.0
let n = ref 0
let last = ref neg_infinity

(* Time the kernel once.  Its time is added to
   [Measure.calib_spent_s], so [Measure.now_s] leaves it out. *)
let sample () =
  let t0 = Measure.wall_s () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Measure.wall_s () in
  Measure.calib_spent_s := !Measure.calib_spent_s +. (t1 -. t0);
  spent := !spent +. (t1 -. t0);
  incr n;
  last := t1

(* Sampling from a loop the benchmark owns: call [tick] often (the
   batch workloads call it from the sweep hook) between [start] and
   [stop]. *)
let start () =
  on := true;
  spent := 0.0;
  n := 0;
  last := neg_infinity

let tick () = if !on && Measure.wall_s () -. !last >= interval_s then sample ()

let reading () = { spent_s = !spent; n = !n }

(* The samples taken since [r0] was read. *)
let since r0 =
  let r = reading () in
  { spent_s = r.spent_s -. r0.spent_s; n = r.n - r0.n }

let stop () =
  on := false;
  reading ()

(* Sampling from a timer signal, for a process whose loop the
   benchmark does not own: the forked daemon.  Its socket calls retry
   on EINTR. *)
let start_timer () =
  start ();
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval_s; it_value = interval_s })

let stop_timer () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigalrm Sys.Signal_default;
  stop ()

let combine rs =
  List.fold_left
    (fun a r -> { spent_s = a.spent_s +. r.spent_s; n = a.n + r.n })
    { spent_s = 0.0; n = 0 } rs

let mean_s r = if r.n = 0 then nan else r.spent_s /. float_of_int r.n

(* The factor that turns a time measured while [r] was taken into the
   time on the reference machine. *)
let scale r = if r.n = 0 then 1.0 else reference_s /. mean_s r

let metric r =
  Measure.metric "calib.scale" "x" (scale r)
    ~note:
      (Printf.sprintf "kernel %.4g ms, mean of %d samples; end-to-end times are scaled by this"
         (mean_s r *. 1e3) r.n)
