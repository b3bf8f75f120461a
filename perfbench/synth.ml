(* synth_popular: one op synthesizes a detector for one of the paper's
   20 popular types from 20 seeded positives (paper §8), single-threaded.
   A run covers whole rounds of the fixed type list. *)

open Common
module P = Autotype_core.Pipeline
module R = Autotype_core.Ranking
module N = Autotype_core.Negative

let rounds_per_second = 0.4

(* Each process of a timed run repeats every type at least this often. *)
let min_rounds = 5

(* Everything observable about an outcome that optimisation must not
   change: strategy, negative set, and the ranked list down to exact
   scores and DNFs (the fingerprint [bench pipeline] compares). *)
let fingerprint (o : P.outcome) =
  let strategy =
    match o.P.strategy_used with
    | Some s -> N.strategy_to_string s
    | None -> "-"
  in
  let ranked =
    List.map
      (fun (r : R.ranked) ->
        Printf.sprintf "%s|%s|%.17g"
          (Repolib.Candidate.id r.R.traced.R.candidate)
          (Autotype_core.Dnf.to_string r.R.dnf)
          r.R.score)
      o.P.ranked
  in
  String.concat "\n" ((strategy :: o.P.negatives) @ ranked)

type job = { query : string; positives : string list }

(* Per-op tallies only the rebuilt pipeline can see. *)
type tally = {
  mutable raw : int;
  mutable static_kept : int;
  mutable probed_kept : int;
  mutable attempts : int;
  mutable informative : int;
}

let tally =
  { raw = 0; static_kept = 0; probed_kept = 0; attempts = 0; informative = 0 }

(* [Pipeline.synthesize] rebuilt from the public stage functions, with a
   span around every call into a layer.  It must produce the same
   outcome, so its fingerprint is checked against the real one. *)
let rebuilt ~index ~(config : P.config) { query; positives } : P.outcome =
  match positives with
  | [] -> invalid_arg "rebuilt: no positives"
  | probe :: _ ->
    let repos =
      Span.with_ "repolib.search" (fun () ->
          Repolib.Search.search index ~k:config.P.top_repos query)
    in
    let raw =
      Span.with_ "repolib.analyze" (fun () ->
          List.concat_map Repolib.Analyzer.candidates_of_repo repos)
    in
    let static_kept =
      Span.with_ "staticcheck.verdict" (fun () ->
          let kept =
            List.filter
              (fun c -> (Repolib.Analyzer.verdict c).Repolib.Analyzer.rankable)
              raw
          in
          List.iter
            (fun r -> ignore (Repolib.Analyzer.repo_diagnostics r))
            repos;
          kept)
    in
    let candidates =
      Span.with_ "repolib.probe" (fun () ->
          List.filter
            (fun c -> Repolib.Driver.executable c ~probe)
            static_kept)
    in
    tally.raw <- tally.raw + List.length raw;
    tally.static_kept <- tally.static_kept + List.length static_kept;
    tally.probed_kept <- tally.probed_kept + List.length candidates;
    let cache = R.cache_create () in
    let attempt strategy =
      tally.attempts <- tally.attempts + 1;
      let negatives =
        Span.with_ "core.negatives" (fun () ->
            N.generate ~per_positive:config.P.neg_per_positive
              ~p:config.P.mutation_p ~seed:config.P.seed strategy positives)
      in
      let input_len =
        List.fold_left
          (fun acc s -> max acc (String.length s))
          0 (positives @ negatives)
      in
      let traceds =
        Span.with_ "core.trace" (fun () ->
            List.map
              (fun c ->
                R.trace_candidate
                  ~config:(Repolib.Driver.config_for ~input_len c)
                  ~cache ~prune:true c ~positives ~negatives)
              candidates)
      in
      let ranked =
        Span.with_ "core.rank" (fun () ->
            R.rank_one ~k:config.P.k ~theta:config.P.theta R.DNF_S ~query
              traceds)
      in
      let found = List.filter (fun r -> P.found_enough config r.R.dnf) ranked in
      if found <> [] then tally.informative <- tally.informative + 1;
      (negatives, traceds, ranked, found)
    in
    let outcome strategy_used negatives traceds ranked =
      { P.query; positives; strategy_used; negatives; ranked; traceds;
        candidates_tried = List.length candidates;
        repos_searched = List.length repos }
    in
    let rec escalate = function
      | [] -> assert false
      | [ s ] ->
        let negatives, traceds, ranked, found = attempt s in
        if found <> [] then outcome (Some s) negatives traceds found
        else outcome None negatives traceds ranked
      | s :: rest ->
        let negatives, traceds, _, found = attempt s in
        if found <> [] then outcome (Some s) negatives traceds found
        else escalate rest
    in
    escalate [ N.S1; N.S2; N.S3 ]

let run (args : args) =
  let t_start = now_ns () in
  let config = P.default_config in
  let index = Corpus.search_index () in
  let jobs =
    Array.of_list
      (List.map
         (fun ty ->
           { query = ty.Semtypes.Registry.name;
             positives =
               Semtypes.Registry.positive_examples ~n:20 ~seed:args.seed ty })
         Models.types)
  in
  let synth job =
    P.synthesize ~config ~index ~query:job.query ~positives:job.positives ()
  in
  (* The warm-up round: every later round must reproduce its
     fingerprints. *)
  let expected = Array.map (fun job -> fingerprint (synth job)) jobs in
  (* A full collection ends set-up, so the timed phase starts from the
     same heap state on every run. *)
  let heap0 = live_heap_mb () in
  let setup_ns = Int64.sub (now_ns ()) t_start in
  let n_types = Array.length jobs in
  let r = rounds args ~rounds_per_second ~min_rounds in
  let attempted = ref 0 and failed = ref 0 in
  let check i got =
    incr attempted;
    if got <> expected.(i) then incr failed
  in
  if not args.trace then begin
    let lat = Array.make (r * n_types) 0.0 in
    for round = 0 to r - 1 do
      Array.iteri
        (fun i job ->
          let o, ns = elapsed_ns (fun () -> synth job) in
          lat.((round * n_types) + i) <- ms_of_ns ns;
          check i (fingerprint o))
        jobs
    done;
    Timed
      { setup_ns; lat_ms = lat; attempted = !attempted;
        failed = !failed; period = n_types; in_flight = 1 }
  end
  else begin
    (* Rounds alternate: untraced through [Pipeline.synthesize], then
       traced through the rebuilt pipeline. *)
    let untraced_ns = ref 0L and traced_ns = ref 0L in
    let runs = ref 0 and steps = ref 0 and compiles = ref 0 in
    let cache_hits = ref 0 and cache_misses = ref 0 in
    let op = ref 0 in
    for round = 0 to r - 1 do
      Array.iteri
        (fun i job ->
          incr op;
          if round land 1 = 0 then begin
            let o, ns = elapsed_ns (fun () -> synth job) in
            untraced_ns := Int64.add !untraced_ns ns;
            check i (fingerprint o)
          end
          else begin
            let o, ns =
              Span.traced_op !op (fun () ->
                  elapsed_ns (fun () ->
                      Span.with_ "synth.op" (fun () ->
                          rebuilt ~index ~config job)))
            in
            traced_ns := Int64.add !traced_ns ns;
            let count = Telemetry.find_counter (Telemetry.snapshot ()) in
            runs := !runs + count "interp.runs";
            steps := !steps + count "interp.steps";
            compiles := !compiles + count "vm.compiles";
            cache_hits := !cache_hits + count "ranking.trace_cache_hits";
            cache_misses :=
              !cache_misses + count "ranking.trace_cache_misses";
            check i (fingerprint o)
          end)
        jobs
    done;
    let heap_growth = live_heap_mb () -. heap0 in
    let traced_ops = float_of_int (r / 2 * n_types) in
    let self = Span.self_by_name () in
    let per_op name = ms_of_ns (Span.self_ns self name) /. traced_ops in
    let trace_s = s_of_ns (Span.self_ns self "core.trace") in
    let f = float_of_int in
    Span.write (trace_path args.workload);
    Layers
      { attempted = !attempted; failed = !failed;
        metrics =
          [ m "core.trace_ms" "ms" (per_op "core.trace");
            m "minilang.runs" "count" (f !runs /. traced_ops);
            m "minilang.steps" "count" (f !steps /. traced_ops);
            m "minilang.steps_per_s" "1/s" (ratio (f !steps) trace_s);
            m "core.trace_cache_hit_share" "share"
              (ratio (f !cache_hits) (f (!cache_hits + !cache_misses)));
            m "repolib.search_ms" "ms" (per_op "repolib.search");
            m "repolib.analyze_ms" "ms" (per_op "repolib.analyze");
            m "staticcheck.verdict_ms" "ms" (per_op "staticcheck.verdict");
            m "staticcheck.pruned_share" "share"
              (ratio (f (tally.raw - tally.static_kept)) (f tally.raw));
            m "repolib.probe_ms" "ms" (per_op "repolib.probe");
            m "repolib.probe_kept_share" "share"
              (ratio (f tally.probed_kept) (f tally.static_kept));
            m "core.negatives_ms" "ms" (per_op "core.negatives");
            m "core.rank_ms" "ms" (per_op "core.rank");
            m "core.strategy_attempts" "count"
              (f tally.attempts /. traced_ops);
            m "core.informative_share" "share"
              (ratio (f tally.informative) (f tally.attempts));
            m "bench.glue_ms" "ms" (per_op "synth.op");
            m "minilang.compiles_per_op" "count" (f !compiles /. traced_ops);
            m "ocaml.heap_growth_mb" "MB" heap_growth;
            overhead ~traced_ns:!traced_ns ~untraced_ns:!untraced_ns ] }
  end
