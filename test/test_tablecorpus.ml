(** Tests for the web-table substrate: Potter's-Wheel regex inference,
    corpus generation and column detection. *)

module R = Tablecorpus.Regex_infer

let test_infer_homogeneous () =
  match R.infer [ "123-45-6789"; "987-65-4321"; "555-12-0000" ] with
  | None -> Alcotest.fail "homogeneous examples must infer"
  | Some p ->
    Alcotest.(check bool) "matches same shape" true (R.matches p "111-22-3333");
    Alcotest.(check bool) "rejects other shape" false (R.matches p "11-222-3333");
    Alcotest.(check bool) "rejects letters" false (R.matches p "abc-de-fghi")

let test_infer_length_ranges () =
  match R.infer [ "ab12"; "abcd1"; "a123" ] with
  | None -> Alcotest.fail "must unify letter/digit runs"
  | Some p ->
    Alcotest.(check bool) "in range" true (R.matches p "xyz99");
    Alcotest.(check bool) "letters too long" false (R.matches p "abcde123")

let test_infer_heterogeneous_fails () =
  (* Mixed formats defeat regex inference (Section 9.2): more distinct
     shapes than the disjunct budget. *)
  let mixed =
    [ "2017-01-31"; "Jan 01, 2017"; "01/31/2017"; "31.01.2017";
      "2017 Jan 31"; "20170131T00" ]
  in
  (match R.infer mixed with
   | None -> ()
   | Some p ->
     (* If it infers, the pattern must at least be a disjunction and not
        match everything. *)
     Alcotest.(check bool) "does not match arbitrary text" false
       (R.matches p "hello world 42"))

let test_regex_fails_on_unseen_variant () =
  (* The paper's ISBN example: trained on compact digits, a regex cannot
     recognize the hyphenated variant, while reused code can. *)
  let rng = Semtypes.Generators.make_rng 5 in
  let compact = List.init 20 (fun _ -> Semtypes.Generators.isbn13 rng) in
  match R.infer compact with
  | None -> Alcotest.fail "compact ISBNs are homogeneous"
  | Some p ->
    Alcotest.(check bool) "accepts compact" true
      (R.matches p (Semtypes.Generators.isbn13 rng));
    Alcotest.(check bool) "rejects hyphenated" false
      (R.matches p (Semtypes.Generators.isbn13_hyphenated rng))

let test_corpus_generation () =
  let config =
    { Tablecorpus.Webtables.default_config with n_columns = 500 }
  in
  let columns = Tablecorpus.Webtables.generate ~config () in
  Alcotest.(check int) "column count" 500 (List.length columns);
  let typed =
    List.filter
      (fun c -> c.Tablecorpus.Webtables.truth <> None)
      columns
  in
  Alcotest.(check bool) "typed columns exist" true (List.length typed > 50);
  (* datetime dominates, per Table 2's proportions. *)
  let count ty =
    List.length
      (List.filter (fun c -> c.Tablecorpus.Webtables.truth = Some ty) columns)
  in
  Alcotest.(check bool) "datetime most frequent" true
    (count "datetime" > count "address");
  (* None of the 5 absent popular types occur. *)
  List.iter
    (fun ty ->
      Alcotest.(check int) (ty ^ " absent") 0 (count ty))
    Tablecorpus.Webtables.absent_popular_types;
  (* Determinism. *)
  let columns2 = Tablecorpus.Webtables.generate ~config () in
  Alcotest.(check bool) "generation deterministic" true (columns = columns2)

let test_detection_threshold_single_source () =
  (* Satellite of the compile/serve split: the 0.8 column threshold is
     defined once, in the synthesis layer, and re-exported here — the
     two must never drift apart. *)
  Alcotest.(check (float 0.0)) "threshold pinned to synthesis layer"
    Autotype_core.Synthesis.default_detection_threshold
    Tablecorpus.Detect.detection_threshold;
  Alcotest.(check (float 0.0)) "value is the paper's 0.8" 0.8
    Tablecorpus.Detect.detection_threshold

let test_header_matching () =
  Alcotest.(check bool) "direct" true
    (Tablecorpus.Detect.header_matches "email" (Some "Email"));
  Alcotest.(check bool) "substring" true
    (Tablecorpus.Detect.header_matches "email" (Some "contact e-mail"));
  Alcotest.(check bool) "missing header" false
    (Tablecorpus.Detect.header_matches "email" None);
  Alcotest.(check bool) "unrelated" false
    (Tablecorpus.Detect.header_matches "email" (Some "price"))

let test_detection_small_corpus () =
  (* End-to-end detection on a small corpus: DNF-S finds ISBN columns
     with high precision; the version-number trap is not detected as
     IPv4 by value... (it is ambiguous, Section 9.2) — but the range
     trap must never be detected as ISBN. *)
  let config =
    { Tablecorpus.Webtables.default_config with n_columns = 400 }
  in
  let columns = Tablecorpus.Webtables.generate ~config () in
  let ty = Semtypes.Registry.find_exn "isbn" in
  let det = Tablecorpus.Detect.dnf_detector ty in
  Alcotest.(check bool) "isbn detector usable" true
    det.Tablecorpus.Detect.usable;
  let detected = Tablecorpus.Detect.detect_with_values det columns in
  let prf = Tablecorpus.Detect.score "isbn" ~detected ~columns in
  Alcotest.(check bool) "finds isbn columns" true (prf.Eval.Metrics.tp > 0);
  List.iter
    (fun (c : Tablecorpus.Webtables.column) ->
      if c.Tablecorpus.Webtables.note = "range-looks-like-date" then
        Alcotest.fail "range column detected as ISBN")
    detected

(* -------------------- deadline-aware serving ----------------------- *)

(* Compiling runs the whole pipeline; do it once for every serve test. *)
let ipv4_compiled =
  lazy
    (let ty = Semtypes.Registry.find_exn "ipv4" in
     let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
     Autotype_core.Pipeline.compile ~index:(Corpus.search_index ())
       ~query:ty.Semtypes.Registry.name ~positives ())

let ipv4_synthesis () =
  match
    Autotype_core.Pipeline.best
      (Lazy.force ipv4_compiled).Autotype_core.Pipeline.c_outcome
  with
  | Some syn -> syn
  | None -> Alcotest.fail "no ipv4 synthesis"

let test_serve_column_budgets () =
  let syn = ipv4_synthesis () in
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let good = Semtypes.Registry.positive_examples ~n:4 ~seed:123 ty in
  let values = good @ [ "not an ip" ] in
  Telemetry.enable ();
  Telemetry.reset ();
  (* Unbudgeted serving is the historical verdict. *)
  (match Tablecorpus.Detect.serve_column syn values with
   | Tablecorpus.Detect.Column_no_match frac ->
     Alcotest.(check (float 1e-9)) "4/5 accepted, at (not above) 0.8" 0.8 frac
   | Tablecorpus.Detect.Column_match _ ->
     Alcotest.fail "4/5 is not above the 0.8 threshold"
   | Tablecorpus.Detect.Column_degraded _ ->
     Alcotest.fail "unbudgeted serving never degrades");
  (match Tablecorpus.Detect.serve_column syn good with
   | Tablecorpus.Detect.Column_match frac ->
     Alcotest.(check (float 1e-9)) "clean column matches" 1.0 frac
   | _ -> Alcotest.fail "clean column must match");
  (* Zero per-value budget: every value deadlines and counts as
     not-accepted; the column still gets a (negative) verdict. *)
  let b = Tablecorpus.Detect.budgets ~value_budget_ms:0.0 () in
  (match Tablecorpus.Detect.serve_column ~budgets:b syn values with
   | Tablecorpus.Detect.Column_no_match frac ->
     Alcotest.(check (float 0.0)) "nothing accepted" 0.0 frac
   | _ -> Alcotest.fail "zero value budget must yield no-match");
  (* Expired batch deadline: the column degrades to an unknown verdict
     with its partial tally — never an exception. *)
  let b = Tablecorpus.Detect.budgets ~deadline_ms:0.0 () in
  (match Tablecorpus.Detect.serve_column ~budgets:b syn values with
   | Tablecorpus.Detect.Column_degraded { seen; accepted; total } ->
     Alcotest.(check int) "nothing seen" 0 seen;
     Alcotest.(check int) "nothing accepted" 0 accepted;
     Alcotest.(check int) "total preserved" (List.length values) total
   | _ -> Alcotest.fail "expired batch deadline must degrade");
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "per-value deadline hits counted"
    (List.length values)
    (Telemetry.find_counter snap "serve.deadline_hits");
  Alcotest.(check bool) "degradations counted" true
    (Telemetry.find_counter snap "serve.degraded" >= 1)

let test_serve_fallback_on_bad_artifact () =
  (* Registry/index desync under batch detection: the indexed artifact
     is truncated on disk.  dnf_detector degrades to a fresh synthesis
     (detect.serve_fallbacks) instead of crashing the batch. *)
  let artifact =
    match Model.Artifact.of_compiled (Lazy.force ipv4_compiled) with
    | Some a -> Model.Artifact.with_type_id "ipv4" a
    | None -> Alcotest.fail "no ipv4 artifact"
  in
  let dir =
    let stamp = Filename.temp_file "autotype-test-desync" "" in
    Sys.remove stamp;
    stamp
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
  @@ fun () ->
  (match Model.Registry.create_dir dir with
   | Error m -> Alcotest.fail m
   | Ok registry ->
     (match Model.Registry.save registry artifact with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m));
  (* Truncate the artifact behind the index's back. *)
  let path =
    match
      List.find_opt
        (fun f -> Filename.check_suffix f Model.Artifact.extension)
        (Array.to_list (Sys.readdir dir))
    with
    | Some f -> Filename.concat dir f
    | None -> Alcotest.fail "no model file"
  in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub bytes 0 (n * 2 / 3));
  close_out oc;
  Telemetry.enable ();
  Telemetry.reset ();
  let registry =
    match Model.Registry.open_dir dir with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let det = Tablecorpus.Detect.dnf_detector ~registry ty in
  Telemetry.disable ();
  Alcotest.(check bool) "fallback detector usable" true
    det.Tablecorpus.Detect.usable;
  Alcotest.(check bool) "still detects ipv4" true
    (det.Tablecorpus.Detect.accepts "192.168.0.1");
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "serve fallback counted" 1
    (Telemetry.find_counter snap "detect.serve_fallbacks");
  Alcotest.(check bool) "retries were attempted first" true
    (Telemetry.find_counter snap "retry.attempts" >= 2)

(* ----------------- request-scoped observability -------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_serve_trace_attribution () =
  (* Acceptance: every span, counter attribution and flight event
     emitted while serve_column runs under a request context carries
     that context's (non-zero) trace id — at jobs=1 and jobs=4. *)
  let syn = ipv4_synthesis () in
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let columns =
    List.init 8 (fun i ->
        Semtypes.Registry.positive_examples ~n:3 ~seed:(100 + i) ty)
  in
  let run jobs =
    Telemetry.enable ();
    let ctx = Telemetry.Context.root () in
    Alcotest.(check bool) "request trace id is non-zero" true
      (ctx.Telemetry.Context.trace_id <> 0L);
    Exec.Pool.with_pool ~jobs (fun pool ->
        Telemetry.Context.with_context ctx (fun () ->
            ignore
              (Exec.Pool.parallel_map pool
                 (fun values -> Tablecorpus.Detect.serve_column syn values)
                 columns)));
    Telemetry.disable ();
    let spans = Telemetry.spans_named "serve.column" in
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: one span per served column" jobs)
      (List.length columns) (List.length spans);
    List.iter
      (fun (s : Telemetry.span) ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: span carries the request trace id" jobs)
          true
          (s.Telemetry.sp_trace_id = ctx.Telemetry.Context.trace_id))
      spans;
    let evs = Telemetry.Flight.events () in
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d: flight events were recorded" jobs)
      true (evs <> []);
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d: a span flight event exists" jobs)
      true
      (List.exists
         (fun (e : Telemetry.Flight.event) ->
           e.Telemetry.Flight.f_kind = "span"
           && e.Telemetry.Flight.f_label = "serve.column")
         evs);
    List.iter
      (fun (e : Telemetry.Flight.event) ->
        Alcotest.(check bool)
          (Printf.sprintf
             "jobs=%d: flight event %s/%s carries the request trace id" jobs
             e.Telemetry.Flight.f_kind e.Telemetry.Flight.f_label)
          true
          (e.Telemetry.Flight.f_trace_id = ctx.Telemetry.Context.trace_id))
      evs;
    Telemetry.reset ()
  in
  run 1;
  run 4

let test_degraded_flight_dump () =
  (* Acceptance: under injected delay, a degraded column triggers a
     flight-recorder dump whose JSONL events carry the request's trace
     id. *)
  let syn = ipv4_synthesis () in
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let values = Semtypes.Registry.positive_examples ~n:5 ~seed:7 ty in
  let path = Filename.temp_file "autotype-flight-dump" ".jsonl" in
  let saved_dump = Telemetry.Flight.dump_path () in
  Fun.protect
    ~finally:(fun () ->
      Faults.set None;
      Telemetry.Flight.set_dump_path saved_dump;
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Telemetry.Flight.set_dump_path (Some path);
  (* A 3ms injected delay per run against a 1ms batch budget: the first
     value burns the deadline, the second degrades the column. *)
  Faults.set
    (Some { Faults.default with Faults.delay_ms = 3.0; seed = 1 });
  Telemetry.enable ();
  let ctx = Telemetry.Context.root () in
  let verdict =
    Telemetry.Context.with_context ctx (fun () ->
        let b = Tablecorpus.Detect.budgets ~deadline_ms:1.0 () in
        Tablecorpus.Detect.serve_column ~budgets:b syn values)
  in
  Telemetry.disable ();
  (match verdict with
   | Tablecorpus.Detect.Column_degraded { seen; total; _ } ->
     Alcotest.(check bool) "partial progress preserved" true (seen < total)
   | _ -> Alcotest.fail "expected degradation under injected delay");
  Alcotest.(check bool) "trigger dumped the flight ring" true
    (Sys.file_exists path);
  let lines = read_lines path in
  Alcotest.(check bool) "dump is non-empty" true (lines <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) "dump line is a JSON object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let hex = Telemetry.Context.trace_id_hex ctx in
  Alcotest.(check bool) "degraded event carries the request trace id" true
    (List.exists
       (fun l ->
         contains ~needle:"\"kind\":\"degraded\"" l && contains ~needle:hex l)
       lines);
  Alcotest.(check bool) "deadline events carry the request trace id" true
    (List.exists
       (fun l ->
         contains ~needle:"\"kind\":\"deadline\"" l && contains ~needle:hex l)
       lines);
  Alcotest.(check bool) "dump trigger recorded its reason" true
    (List.exists (fun l -> contains ~needle:"\"kind\":\"dump\"" l) lines);
  Telemetry.reset ()

(* A validate batch whose deadline passed before it started answers
   every value SKIPPED without running it, and leaves the same flight
   trace a cut column does: one "degraded" event. *)
let test_expired_values_batch_flight () =
  let syn = ipv4_synthesis () in
  let values = [ "192.168.0.1"; "not an ip"; "" ] in
  let saved_dump = Telemetry.Flight.dump_path () in
  let saved_enabled = Telemetry.Flight.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Flight.set_dump_path saved_dump;
      Telemetry.Flight.set_enabled saved_enabled)
  @@ fun () ->
  Telemetry.Flight.set_dump_path None;
  Telemetry.Flight.set_enabled true;
  Telemetry.Flight.clear ();
  let b = Tablecorpus.Detect.budgets ~deadline_ms:0.0 () in
  let verdicts =
    List.map Tablecorpus.Detect.value_verdict_to_string
      (Tablecorpus.Detect.serve_values ~budgets:b syn values)
  in
  Alcotest.(check (list string)) "every value skipped"
    [ "SKIPPED"; "SKIPPED"; "SKIPPED" ] verdicts;
  let degraded =
    List.filter
      (fun (e : Telemetry.Flight.event) -> e.Telemetry.Flight.f_kind = "degraded")
      (Telemetry.Flight.events ())
  in
  Alcotest.(check (list string)) "one degraded event for the batch"
    [ "serve.values" ]
    (List.map (fun (e : Telemetry.Flight.event) -> e.Telemetry.Flight.f_label)
       degraded);
  Telemetry.Flight.clear ()

let suite =
  [
    ("regex inference: homogeneous", `Quick, test_infer_homogeneous);
    ("regex inference: length ranges", `Quick, test_infer_length_ranges);
    ("regex inference: heterogeneous", `Quick, test_infer_heterogeneous_fails);
    ("regex fails on unseen variant", `Quick, test_regex_fails_on_unseen_variant);
    ("webtable generation", `Quick, test_corpus_generation);
    ("detection threshold single-sourced", `Quick,
     test_detection_threshold_single_source);
    ("header matching", `Quick, test_header_matching);
    ("detection end-to-end", `Slow, test_detection_small_corpus);
    ("serve_column budgets and degradation", `Slow, test_serve_column_budgets);
    ("serve fallback on bad artifact", `Slow,
     test_serve_fallback_on_bad_artifact);
    ("serve_column trace attribution (jobs=1 and 4)", `Slow,
     test_serve_trace_attribution);
    ("degraded column triggers flight dump", `Slow,
     test_degraded_flight_dump);
    ("expired validate batch is flight-recorded", `Slow,
     test_expired_values_batch_flight);
  ]
