(* The benchmark's own tests: the tail-percentile helper, the open-loop
   generator's timing, metric naming, the machine-speed calibration,
   and a tiny-size smoke run of every workload, untraced and traced,
   that must pass all its checks. *)

open Perfbench

let level = Alcotest.(option (float 1e-12))

let test_tail_level () =
  (* Enough samples: the wanted percentile itself. *)
  Alcotest.check level "p95 of 2000" (Some 0.95) (Measure.tail_level ~want:0.95 2000);
  Alcotest.check level "p99 of 1000 leaves exactly 10" (Some 0.99)
    (Measure.tail_level ~want:0.99 1000);
  (* Too few: the highest percentile with 10 samples beyond it. *)
  Alcotest.check level "p99 of 100 falls to p90" (Some 0.9) (Measure.tail_level ~want:0.99 100);
  Alcotest.check level "p99 of 999" (Some (989.0 /. 999.0)) (Measure.tail_level ~want:0.99 999);
  Alcotest.check level "10 samples support no tail" None (Measure.tail_level ~want:0.5 10)

let test_tail_beyond () =
  (* Whatever the size, the reported sample has at least 10 above it. *)
  List.iter
    (fun n ->
      let xs = List.init n float_of_int in
      let t = Measure.tail ~want:0.99 xs in
      let beyond = List.length (List.filter (fun x -> x > t.Measure.value) xs) in
      Alcotest.(check bool) (Printf.sprintf "n=%d has >= 10 beyond" n) true (beyond >= 10);
      Alcotest.(check bool) (Printf.sprintf "n=%d level <= want" n) true (t.Measure.level <= 0.99))
    [ 11; 50; 200; 999; 1000; 5000 ]

let close = Alcotest.float 1e-9

let test_openloop_due_time () =
  let g = Openloop.create ~rate:10.0 ~t0:0.0 ~limit:100 in
  Alcotest.(check (list int)) "nothing due before t0" [] (Openloop.take_due g ~now:(-0.01));
  (* A stalled generator catches up at 0.35 s: four requests go out
     at once, each charged its own lateness. *)
  Alcotest.(check (list int)) "due by 0.35 s" [ 0; 1; 2; 3 ] (Openloop.take_due g ~now:0.35);
  Alcotest.(check (list close)) "lateness" [ 0.35; 0.25; 0.15; 0.05 ] (Openloop.lateness g);
  Alcotest.(check (option close)) "next due in 0.05 s" (Some 0.05) (Openloop.wait g ~now:0.35);
  (* Latency runs from the due time, not the send time. *)
  Alcotest.(check (option close)) "request 0" (Some 0.5) (Openloop.answer g ~id:0 ~now:0.5);
  Alcotest.(check (option close)) "request 3" (Some 0.2) (Openloop.answer g ~id:3 ~now:0.5);
  Alcotest.(check (option close)) "unknown id" None (Openloop.answer g ~id:42 ~now:0.5);
  Alcotest.(check (option close)) "answered once" None (Openloop.answer g ~id:0 ~now:0.6);
  Alcotest.(check int) "outstanding" 2 (Openloop.outstanding g);
  Openloop.close g;
  Alcotest.(check (option close)) "closed" None (Openloop.wait g ~now:0.4);
  Alcotest.(check (list int)) "nothing after close" [] (Openloop.take_due g ~now:5.0);
  Alcotest.(check int) "issued" 4 (Openloop.issued g)

let test_names () =
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("name " ^ n) true (Measure.valid_name n);
      Alcotest.(check bool) ("unit " ^ u) true (Measure.valid_unit u))
    (Workload.end_to_end @ Workload.per_layer);
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Measure.valid_name bad))
    [ ""; "_lead"; "has space"; "slash/name"; "colon:"; String.make 65 'a' ]

(* The machine-speed kernel allocates nothing and does the same work on
   every call; the benchmark's clock leaves its time out, and the scale
   is the reference time over the mean sample. *)
let test_calib () =
  let settled = Calib.kernel () in
  let same = ref true in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    same := !same && Calib.kernel () = settled
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "same work" true !same;
  Alcotest.(check bool) "no allocation" true (words < 16.0);
  Calib.start ();
  let t0 = Measure.now_s () in
  Calib.sample ();
  Calib.sample ();
  let t1 = Measure.now_s () in
  let r = Calib.stop () in
  Alcotest.(check int) "two samples" 2 r.Calib.n;
  Alcotest.(check bool) "kernel time left out" true (t1 -. t0 < 0.5 *. r.Calib.spent_s);
  Calib.tick ();
  Alcotest.(check int) "no sampling after stop" 2 (Calib.stop ()).Calib.n;
  let at k = { Calib.spent_s = k *. Calib.reference_s; n = 1 } in
  Alcotest.(check close) "twice as slow" 0.5 (Calib.scale (Calib.combine [ at 1.5; at 2.5 ]));
  Alcotest.(check close) "no samples" 1.0 (Calib.scale (Calib.combine []))

(* Tiny-size runs of every workload: all checks pass, every declared
   metric is reported, and every reported name is well formed. *)
let smoke w ~traced () =
  let work = Filename.concat "_work" (Printf.sprintf "%s-%b" (Workload.name w) traced) in
  let o = Workload.run w ~size:Workload.Tiny ~work ~seed:3 ~traced in
  Alcotest.(check (list string)) "no failed checks" [] o.Sims.failures;
  Alcotest.(check bool) "checks ran" true (o.Sims.checks > 0);
  let ms = if traced then o.Sims.layer else o.Sims.e2e in
  List.iter
    (fun m ->
      Alcotest.(check bool) ("well-formed " ^ m.Measure.name) true
        (Measure.valid_name m.Measure.name && Measure.valid_unit m.Measure.unit_))
    ms;
  List.iter
    (fun (n, _) ->
      match List.find_opt (fun m -> m.Measure.name = n) ms with
      | None -> Alcotest.failf "%s not reported" n
      | Some m -> Alcotest.(check bool) (n ^ " is finite") true (Float.is_finite m.Measure.value))
    (if traced then Workload.per_layer else Workload.end_to_end);
  Alcotest.(check bool) "work dir removed" false (Sys.file_exists work)

let () =
  let smoke_cases =
    List.concat_map
      (fun w ->
        [
          Alcotest.test_case (Workload.name w ^ " untraced") `Quick (smoke w ~traced:false);
          Alcotest.test_case (Workload.name w ^ " traced") `Quick (smoke w ~traced:true);
        ])
      Workload.all
  in
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "tail level" `Quick test_tail_level;
          Alcotest.test_case "tail leaves 10 beyond" `Quick test_tail_beyond;
          Alcotest.test_case "metric names" `Quick test_names;
        ] );
      ("openloop", [ Alcotest.test_case "due-time latency" `Quick test_openloop_due_time ]);
      ("calib", [ Alcotest.test_case "kernel and scale" `Quick test_calib ]);
      ("smoke", smoke_cases);
    ]
