(* perfbench: the repository benchmark.

   main.exe --workload paper_na|fleet_ops|serve_live --seed N
            --seconds S --trace 0|1

   Runs one workload, prints every metric it measures by name with its
   unit, checks the program's outputs, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end set, from untraced runs; with --trace 1
   they are the per-layer set, from a traced pass.  Scratch files live
   under perfbench/_work and are removed.  Exits 1 when any
   check fails. *)

open Perfbench
open Measure

let usage () =
  prerr_endline
    "usage: main.exe --workload paper_na|fleet_ops|serve_live --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let traced = !trace = 1 in
  let workload =
    match Workload.of_name !workload with Some w -> w | None -> usage ()
  in
  let work = Filename.concat "perfbench" "_work" in
  let dir = Filename.concat work (string_of_int (Unix.getpid ())) in
  let o = Workload.run workload ~size:(Workload.Full !seconds) ~work:dir ~seed ~traced in
  (try Sys.rmdir work with Sys_error _ -> ());
  let metrics = if traced then o.Sims.layer else o.Sims.e2e in
  Printf.printf "%s seed=%d %s\n" (Workload.name workload) seed
    (if traced then "traced (per-layer)" else "untraced (end-to-end)");
  List.iter (pp_metric stdout) metrics;
  let failed = List.length o.Sims.failures in
  let attempted = max 1 o.Sims.checks in
  Printf.printf "  %-28s %14.6g %-6s  (%d failed of %d checked)\n" "fail_ratio"
    (float_of_int failed /. float_of_int attempted) "1" failed attempted;
  List.iter (fun f -> Printf.printf "  CHECK FAILED: %s\n" f) (List.rev o.Sims.failures);
  let declared = if traced then Workload.per_layer else Workload.end_to_end in
  let missing =
    List.filter
      (fun (n, _) ->
        not (List.exists (fun m -> m.name = n && Float.is_finite m.value) metrics))
      declared
  in
  if missing <> [] then begin
    Printf.eprintf "perfbench: %s did not measure: %s\n" (Workload.name workload)
      (String.concat ", " (List.map fst missing));
    exit 1
  end;
  let module Json = Rwc_obs.Json in
  let value name = (List.find (fun m -> m.name = name) metrics).value in
  let json =
    Json.Assoc
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Assoc
            (List.map
               (fun (n, u) ->
                 (n, Json.Assoc [ ("value", Json.Float (value n)); ("unit", Json.String u) ]))
               declared) );
      ]
  in
  print_endline (Json.to_string json);
  exit (if failed = 0 then 0 else 1)
