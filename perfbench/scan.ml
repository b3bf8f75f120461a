(* scan_resident: one op checks one seeded web-table column against all
   20 popular-type models (paper §9) through the production path that
   [detect --models] takes: Registry.find → Detect.serve_detector →
   fraction_accepted, per (column, type).  The registry holds all 20
   models, so every find hits. *)

open Common
module D = Tablecorpus.Detect

let n_columns = 240
let values_per_column = 12
let passes_per_second = 0.64
let min_passes = 5

(* The warm-up pass covers this many columns. *)
let warmup_columns = 20

let run (args : args) =
  let t_start = now_ns () in
  with_scratch_dir "scan" @@ fun dir ->
  Models.compile_all dir;
  let registry = Models.open_registry ~capacity:20 dir in
  let columns =
    Models.columns ~seed:args.seed ~n:n_columns ~values_per_column
  in
  let ids = Array.of_list Models.type_ids in
  let n_types = Array.length ids in
  (* The interpreter-route oracle, on the same artifacts. *)
  let oracle =
    Array.map
      (fun values ->
        Array.map
          (fun id ->
            Autotype_core.Synthesis.detect_column
              (Models.find_exn registry id).Model.Registry.synthesis values)
          ids)
      columns
  in
  (* Which models answer from the compiled summary instead of the VM. *)
  let fastpath =
    Array.map (fun id -> Models.has_fastpath (Models.find_exn registry id)) ids
  in
  (* One (column, type) pair on the served path. *)
  let pair values id =
    match
      Span.with_ "model.find" (fun () -> Model.Registry.find registry id)
    with
    | Error e -> failwith (Model.Artifact.load_error_to_string e)
    | Ok entry ->
      let det =
        Span.with_ "tablecorpus.detector_build" (fun () ->
            D.serve_detector entry)
      in
      Span.with_ ("tablecorpus.eval." ^ id) (fun () ->
          D.fraction_accepted det.D.accepts values)
      > D.detection_threshold
  in
  let op c =
    let ok = ref true in
    for t = 0 to n_types - 1 do
      match pair columns.(c) ids.(t) with
      | v -> if v <> oracle.(c).(t) then ok := false
      | exception _ -> ok := false
    done;
    !ok
  in
  for c = 0 to warmup_columns - 1 do
    ignore (op c)
  done;
  (* A full collection ends set-up, so the timed phase starts from the
     same heap state on every run. *)
  let heap0 = live_heap_mb () in
  let setup_ns = Int64.sub (now_ns ()) t_start in
  let passes =
    rounds args ~rounds_per_second:passes_per_second ~min_rounds:min_passes
  in
  let n_ops = passes * n_columns in
  let attempted = ref 0 and failed = ref 0 in
  let record ok =
    incr attempted;
    if not ok then incr failed
  in
  if not args.trace then begin
    let lat = Array.make n_ops 0.0 in
    for i = 0 to n_ops - 1 do
      let ok, ns = elapsed_ns (fun () -> op (i mod n_columns)) in
      lat.(i) <- ms_of_ns ns;
      record ok
    done;
    Timed
      { setup_ns; lat_ms = lat; attempted = !attempted;
        failed = !failed; period = n_columns; in_flight = 1 }
  end
  else begin
    (* Half the ops are traced: parity flips every pass, so each
       column runs both ways and drift lands on both halves. *)
    let untraced_ns = ref 0L and traced_ns = ref 0L in
    let traced_ops = ref 0 and traced_values = ref 0 in
    let fast_hits = ref 0 and compiles = ref 0 in
    let hits0, misses0 = Model.Registry.cache_stats registry in
    for i = 0 to n_ops - 1 do
      let c = i mod n_columns in
      if (i + (i / n_columns)) land 1 = 0 then begin
        let ok, ns = elapsed_ns (fun () -> op c) in
        untraced_ns := Int64.add !untraced_ns ns;
        record ok
      end
      else begin
        incr traced_ops;
        traced_values := !traced_values + List.length columns.(c);
        let ok, ns =
          Span.traced_op i (fun () ->
              elapsed_ns (fun () -> Span.with_ "scan.op" (fun () -> op c)))
        in
        traced_ns := Int64.add !traced_ns ns;
        let count = Telemetry.find_counter (Telemetry.snapshot ()) in
        fast_hits := !fast_hits + count "serve.fastpath_hits";
        compiles := !compiles + count "vm.compiles";
        record ok
      end
    done;
    let heap_growth = live_heap_mb () -. heap0 in
    let hits1, misses1 = Model.Registry.cache_stats registry in
    let f = float_of_int in
    let ops = f !traced_ops in
    let self = Span.self_by_name () in
    let eval_ns t =
      Int64.to_float (Span.self_ns self ("tablecorpus.eval." ^ ids.(t)))
    in
    (* Every traced op evaluates each type on the same column, so each
       type saw [traced_values] values. *)
    let per_value_us route =
      let ns = ref 0.0 and n = ref 0 in
      Array.iteri
        (fun t fast ->
          if fast = route then begin
            ns := !ns +. eval_ns t;
            n := !n + !traced_values
          end)
        fastpath;
      ratio (!ns /. 1e3) (f !n)
    in
    Span.write (trace_path args.workload);
    Layers
      { attempted = !attempted; failed = !failed;
        metrics =
          [ m "absint.fastpath_share" "share"
              (ratio (f !fast_hits) (f (n_types * !traced_values)));
            m "tablecorpus.eval_fastpath_us" "us" (per_value_us true);
            m "tablecorpus.eval_vm_us" "us" (per_value_us false);
            m "tablecorpus.detector_build_us" "us"
              (Span.mean_ns self "tablecorpus.detector_build" /. 1e3);
            m "model.find_hit_us" "us"
              (Span.mean_ns self "model.find" /. 1e3);
            m "model.cache_hit_share" "share"
              (ratio (f (hits1 - hits0))
                 (f (hits1 - hits0 + misses1 - misses0)));
            m "bench.glue_ms" "ms"
              (ms_of_ns (Span.self_ns self "scan.op") /. ops);
            m "minilang.compiles_per_op" "count" (f !compiles /. ops);
            m "ocaml.heap_growth_mb" "MB" heap_growth;
            overhead ~traced_ns:!traced_ns ~untraced_ns:!untraced_ns ]
          @ Array.to_list
              (Array.mapi
                 (fun t id ->
                   m ("tablecorpus.eval_ms." ^ id) "ms"
                     (eval_ns t /. 1e6 /. ops))
                 ids) }
  end
