(* One process of a benchmark run: set up one workload, run its timed
   phase and print one JSON line.

     main.exe --workload synth_popular|scan_resident|serve_churn
              --seed N --seconds S --trace 0|1

   --seconds is this process's share of the run.  With --trace 0 the
   line carries set-up time, peak RSS, every op's latency and the
   period of the op sequence, which run.py pools over several
   processes.  With --trace 1 it is the final result with every
   per-layer metric (a layer the workload never calls reads 0). *)

open Common

(* Every per-layer metric, in report order, with its unit. *)
let per_layer =
  [ ("core.trace_ms", "ms"); ("minilang.runs", "count");
    ("minilang.steps", "count"); ("minilang.steps_per_s", "1/s");
    ("core.trace_cache_hit_share", "share"); ("repolib.search_ms", "ms");
    ("repolib.analyze_ms", "ms"); ("staticcheck.verdict_ms", "ms");
    ("staticcheck.pruned_share", "share"); ("repolib.probe_ms", "ms");
    ("repolib.probe_kept_share", "share"); ("core.negatives_ms", "ms");
    ("core.rank_ms", "ms"); ("core.strategy_attempts", "count");
    ("core.informative_share", "share"); ("bench.glue_ms", "ms");
    ("absint.fastpath_share", "share");
    ("tablecorpus.eval_fastpath_us", "us");
    ("tablecorpus.eval_vm_us", "us");
    ("tablecorpus.detector_build_us", "us") ]
  @ List.map (fun id -> ("tablecorpus.eval_ms." ^ id, "ms")) Models.type_ids
  @ [ ("minilang.compiles_per_op", "count"); ("ocaml.heap_growth_mb", "MB");
      ("model.find_hit_us", "us"); ("model.find_miss_ms", "ms");
      ("model.artifact_load_ms", "ms"); ("model.cache_hit_share", "share");
      ("model.evictions", "count"); ("serve.frame_decode_us", "us");
      ("serve.request_decode_us", "us"); ("serve.encode_us", "us");
      ("serve.batch_size", "count"); ("serve.roundtrip_ms", "ms");
      ("serve.daemon_residual_ms", "ms"); ("trace_overhead_share", "share") ]

(* Order a traced result as [per_layer], filling layers the workload
   does not call with 0; reject names missing from the list. *)
let complete metrics =
  List.iter
    (fun mt ->
      if not (List.mem_assoc mt.name per_layer) then
        failwith ("per-layer metric not declared: " ^ mt.name))
    metrics;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun mt -> mt.name = name) metrics with
      | Some mt -> mt
      | None -> m name unit_ 0.0)
    per_layer

let () =
  let args =
    try parse_args Sys.argv
    with Arg.Bad msg ->
      prerr_endline msg;
      exit 2
  in
  let run =
    match args.workload with
    | "synth_popular" -> Synth.run
    | "scan_resident" -> Scan.run
    | "serve_churn" -> Serve_churn.run
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  print_outcome
    (match run args with
     | Layers l -> Layers { l with metrics = complete l.metrics }
     | Timed _ as t -> t)
