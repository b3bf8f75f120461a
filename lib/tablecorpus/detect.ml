(** Column-type detection over the web-table corpus (Section 9):
    DNF-S (synthesized top-1 function, 80% value threshold), KW (header
    keyword match) and REGEX (Potter's-Wheel inferred pattern, 80%
    threshold). *)

type method_ = DNF_S | KW | REGEX

let method_to_string = function
  | DNF_S -> "DNF-S"
  | KW -> "KW"
  | REGEX -> "REGEX"

let all_methods = [ DNF_S; KW; REGEX ]

(* Header keywords per type for the KW baseline ("we choose a number of
   search keywords for each type, e.g. url and website for type url"). *)
let header_keywords =
  [ ("datetime", [ "date"; "time"; "published"; "updated" ]);
    ("address", [ "address"; "location" ]);
    ("country-code", [ "country"; "nation" ]);
    ("phone", [ "phone"; "telephone"; "mobile"; "fax" ]);
    ("currency", [ "price"; "cost"; "amount" ]);
    ("email", [ "email"; "e-mail"; "mail" ]);
    ("us-zipcode", [ "zip"; "zipcode"; "postal" ]);
    ("url", [ "url"; "website"; "link"; "homepage" ]);
    ("ipv4", [ "ip"; "ip address" ]);
    ("isbn", [ "isbn" ]);
    ("upc", [ "upc" ]);
    ("ean", [ "ean" ]);
    ("isin", [ "isin" ]);
    ("issn", [ "issn" ]);
    ("credit-card", [ "card"; "cc number" ]);
    ("ipv6", [ "ipv6" ]);
    ("iban", [ "iban" ]);
    ("vin", [ "vin" ]);
    ("stock-ticker", [ "ticker"; "symbol" ]);
    ("airport-code", [ "airport" ]) ]

(* Single-sourced from the synthesis layer so the value-level and
   column-level thresholds cannot drift apart (a test pins them). *)
let detection_threshold = Autotype_core.Synthesis.default_detection_threshold

(** A per-type detector, built once and applied to every column. *)
type detector = {
  type_id : string;
  accepts : string -> bool;  (** value-level predicate *)
  usable : bool;  (** REGEX inference can fail on heterogeneous input *)
}

let fraction_accepted det values =
  match values with
  | [] -> 0.0
  | _ ->
    let n = List.length (List.filter det values) in
    float_of_int n /. float_of_int (List.length values)

let m_detectors_built = Telemetry.counter "detect.detectors_built"
let m_fastpath_hits = Telemetry.counter "serve.fastpath_hits"
let m_fastpath_fallbacks = Telemetry.counter "serve.fastpath_fallbacks"
let m_columns_scanned = Telemetry.counter "detect.columns_scanned"
let m_columns_detected = Telemetry.counter "detect.columns_detected"
let m_models_served = Telemetry.counter "detect.models_served"
let m_serve_fallbacks = Telemetry.counter "detect.serve_fallbacks"
let m_deadline_hits = Telemetry.counter "serve.deadline_hits"
let m_degraded = Telemetry.counter "serve.degraded"
let r_columns = Telemetry.rate "serve.columns"
let r_deadline_hits = Telemetry.rate "serve.deadline_hits"
let r_degraded = Telemetry.rate "serve.degraded"
let h_column_latency = Telemetry.histogram "serve.column_latency_ms"

(* ------------------------------------------------------------------ *)
(* Deadline-aware column serving                                       *)
(* ------------------------------------------------------------------ *)

type budgets = {
  value_budget_ms : float option;
  batch_deadline : Exec.Deadline.t option;
}

let no_budgets = { value_budget_ms = None; batch_deadline = None }

let budgets ?value_budget_ms ?deadline_ms () =
  {
    value_budget_ms;
    batch_deadline = Option.map Exec.Deadline.after_ms deadline_ms;
  }

type value_verdict = V_valid | V_invalid | V_deadline | V_skipped

let value_verdict_to_string = function
  | V_valid -> "VALID"
  | V_invalid -> "invalid"
  | V_deadline -> "DEADLINE"
  | V_skipped -> "SKIPPED"

(* The per-value budget loop behind {!serve_values} and
   {!serve_column}.  Each value runs under the tighter of its own budget
   and the batch deadline; a value that deadlines answers [V_deadline]
   ([serve.deadline_hits]).  Once the batch deadline has passed, the
   loop stops and returns the values it did not run.  A cut batch is
   counted once ([serve.degraded]) and — exactly what the flight
   recorder exists for — recorded as a ["degraded"] event attributed to
   [site], after which the ring is dumped for post-mortem if a path is
   set. *)
let fold_budgeted ~site ~budgets syn values ~init f =
  let rec go seen acc = function
    | [] -> (acc, [])
    | _ :: _ as rest
      when Option.fold ~none:false ~some:Exec.Deadline.expired
             budgets.batch_deadline ->
      Telemetry.incr m_degraded;
      Telemetry.mark r_degraded;
      Telemetry.Flight.record ~kind:"degraded" ~value:(float_of_int seen)
        ("serve." ^ site);
      Telemetry.Flight.trigger ~reason:(site ^ "_degraded");
      (acc, rest)
    | v :: rest ->
      let deadline_ns =
        Option.map Exec.Deadline.to_ns
          (Exec.Deadline.min_opt
             (Option.map Exec.Deadline.after_ms budgets.value_budget_ms)
             budgets.batch_deadline)
      in
      let verdict =
        match Autotype_core.Synthesis.validate_v ?deadline_ns syn v with
        | Autotype_core.Synthesis.Valid -> V_valid
        | Autotype_core.Synthesis.Invalid -> V_invalid
        | Autotype_core.Synthesis.Deadline ->
          Telemetry.incr m_deadline_hits;
          Telemetry.mark r_deadline_hits;
          V_deadline
      in
      go (seen + 1) (f acc verdict) rest
  in
  go 0 init values

type column_verdict =
  | Column_match of float
  | Column_no_match of float
  | Column_degraded of { seen : int; accepted : int; total : int }

(** Serve one column under wall-clock budgets.  Each value runs under
    the tighter of its own budget and the batch deadline; a value that
    deadlines counts as not-accepted ([serve.deadline_hits]) and the
    column moves on.  Once the {e batch} deadline has passed, the
    column stops and degrades to an "unknown" verdict carrying the
    partial tally ([serve.degraded]) — the batch itself never fails. *)
let serve_column ?(budgets = no_budgets)
    (syn : Autotype_core.Synthesis.t) (values : string list) : column_verdict =
  let total = List.length values in
  let serve () =
    match
      fold_budgeted ~site:"column" ~budgets syn values ~init:0
        (fun accepted verdict ->
          if verdict = V_valid then accepted + 1 else accepted)
    with
    | accepted, [] ->
      let frac =
        if total = 0 then 0.0 else float_of_int accepted /. float_of_int total
      in
      if frac > detection_threshold then Column_match frac
      else Column_no_match frac
    | accepted, unserved ->
      Column_degraded { seen = total - List.length unserved; accepted; total }
  in
  Telemetry.mark r_columns;
  if Telemetry.enabled () then
    Telemetry.with_span "serve.column"
      ~attrs:[ ("values", Telemetry.I total) ]
      (fun () ->
        let t_start = Telemetry.now_ns () in
        let verdict = serve () in
        Telemetry.observe h_column_latency
          (Int64.to_float (Int64.sub (Telemetry.now_ns ()) t_start) /. 1e6);
        verdict)
  else serve ()

(** Serve a list of values under budgets, one verdict per value — the
    value-level twin of {!serve_column}, shared by [autotype validate]
    and the serving daemon so their degradation behavior cannot drift.
    Each value runs under the tighter of its own budget and the batch
    deadline ([V_deadline], [serve.deadline_hits]); once the batch
    deadline has passed, the remaining tail is answered [V_skipped]
    without running ([serve.degraded] and a ["degraded"] flight event,
    once per cut batch). *)
let serve_values ?(budgets = no_budgets) (syn : Autotype_core.Synthesis.t)
    (values : string list) : value_verdict list =
  let served, skipped =
    fold_budgeted ~site:"values" ~budgets syn values ~init:[]
      (fun acc verdict -> verdict :: acc)
  in
  List.rev_append served (List.map (fun _ -> V_skipped) skipped)

(* Values longer than this take the interpreter route even when a
   compiled summary exists: the fast path is proven equivalent at any
   length, but capping it bounds the cost of a single regexlite guard
   on adversarially long values and gives the fallback telemetry a
   stable meaning. *)
let fastpath_max_len = 4096

(** Wrap a registry-served model as a detector — the warm serving path:
    no search, no analysis, no negative generation.

    When the artifact carries a compiled fast-path summary (format v2,
    DESIGN.md §13), eligible values are answered by the verdict tree —
    pure string operations, no interpreter.  Ineligible values (longer
    than {!fastpath_max_len}, or every value when the summary is absent
    or its stored regex fails to prepare) fall back to
    {!Autotype_core.Synthesis.validate}; each per-value fallback is
    counted ([serve.fastpath_fallbacks]) and flight-recorded. *)
let serve_detector (entry : Model.Registry.entry) : detector =
  Telemetry.incr m_models_served;
  let type_id = Model.Artifact.key entry.Model.Registry.artifact in
  let interp = Autotype_core.Synthesis.validate entry.Model.Registry.synthesis in
  let accepts =
    match entry.Model.Registry.artifact.Model.Artifact.summary with
    | None -> interp
    | Some tree ->
      (match Absint.Domain.prepare tree with
       | None -> interp
       | Some prepared ->
         fun v ->
           if String.length v <= fastpath_max_len then begin
             Telemetry.incr m_fastpath_hits;
             Absint.Domain.eval_prepared prepared v
           end
           else begin
             Telemetry.incr m_fastpath_fallbacks;
             Telemetry.Flight.record ~kind:"fastpath_fallback"
               ~value:(float_of_int (String.length v))
               type_id;
             interp v
           end)
  in
  { type_id; accepts; usable = true }

(** Build the DNF-S detector for a type.  With a [registry] holding a
    compiled model for the type, the model is served from it (LRU-cached
    across columns); otherwise — or when the registered artifact fails
    to load — the full synthesis pipeline runs as before. *)
let dnf_detector ?(seed = 11) ?pool ?registry (ty : Semtypes.Registry.t) :
    detector =
  let served =
    match registry with
    | Some reg when Model.Registry.mem reg ty.Semtypes.Registry.id ->
      Telemetry.with_span "detect.serve"
        ~attrs:[ ("type", Telemetry.S ty.Semtypes.Registry.id) ]
        (fun () ->
          match Model.Registry.find reg ty.Semtypes.Registry.id with
          | Ok entry -> Some (serve_detector entry)
          | Error e ->
            (* Registered but unreadable: fall back to synthesis so
               batch detection still completes; the CLI serve path
               reports such artifacts as hard errors instead. *)
            Telemetry.incr m_serve_fallbacks;
            Telemetry.add_attr "fallback"
              (Telemetry.S (Model.Artifact.load_error_to_string e));
            None)
    | _ -> None
  in
  match served with
  | Some det -> det
  | None ->
    Telemetry.with_span "detect.synthesize"
      ~attrs:[ ("type", Telemetry.S ty.Semtypes.Registry.id) ]
    @@ fun () ->
    Telemetry.incr m_detectors_built;
    let positives = Semtypes.Registry.positive_examples ~n:20 ~seed ty in
    let outcome =
      Autotype_core.Pipeline.synthesize ?pool ~index:(Corpus.search_index ())
        ~query:ty.Semtypes.Registry.name ~positives ()
    in
    (match Autotype_core.Pipeline.best outcome with
     | Some syn ->
       {
         type_id = ty.Semtypes.Registry.id;
         accepts = Autotype_core.Synthesis.validate syn;
         usable = true;
       }
     | None ->
       Telemetry.add_attr "usable" (Telemetry.B false);
       { type_id = ty.Semtypes.Registry.id; accepts = (fun _ -> false);
         usable = false })

(** REGEX detector: Potter's-Wheel inference from the same positives. *)
let regex_detector ?(seed = 11) (ty : Semtypes.Registry.t) : detector =
  Telemetry.with_span "detect.regex_infer"
    ~attrs:[ ("type", Telemetry.S ty.Semtypes.Registry.id) ]
  @@ fun () ->
  Telemetry.incr m_detectors_built;
  let positives = Semtypes.Registry.positive_examples ~n:20 ~seed ty in
  match Regex_infer.infer positives with
  | Some pattern ->
    {
      type_id = ty.Semtypes.Registry.id;
      accepts = Regex_infer.matches pattern;
      usable = true;
    }
  | None ->
    Telemetry.add_attr "usable" (Telemetry.B false);
    { type_id = ty.Semtypes.Registry.id; accepts = (fun _ -> false);
      usable = false }

let header_matches type_id (header : string option) =
  match header with
  | None -> false
  | Some h ->
    let h = String.lowercase_ascii h in
    let keywords =
      Option.value (List.assoc_opt type_id header_keywords) ~default:[]
    in
    List.exists
      (fun kw ->
        let kl = String.length kw and hl = String.length h in
        kl <= hl
        &&
        let rec go i =
          i + kl <= hl && (String.sub h i kl = kw || go (i + 1))
        in
        go 0)
      keywords

(** Detect columns of [type_id] with a value-level detector. *)
let detect_with_values (det : detector) (columns : Webtables.column list) :
    Webtables.column list =
  if not det.usable then []
  else begin
    Telemetry.incr ~by:(List.length columns) m_columns_scanned;
    let detected =
      List.filter
        (fun (c : Webtables.column) ->
          fraction_accepted det.accepts c.Webtables.values
          > detection_threshold)
        columns
    in
    Telemetry.incr ~by:(List.length detected) m_columns_detected;
    detected
  end

let detect_with_headers type_id (columns : Webtables.column list) :
    Webtables.column list =
  List.filter
    (fun (c : Webtables.column) -> header_matches type_id c.Webtables.header)
    columns

(** Score detected columns against column truth. *)
let score type_id ~(detected : Webtables.column list)
    ~(columns : Webtables.column list) : Eval.Metrics.prf =
  let is_truth (c : Webtables.column) = c.Webtables.truth = Some type_id in
  let tp = List.length (List.filter is_truth detected) in
  let fp = List.length detected - tp in
  let fn =
    List.length (List.filter is_truth columns)
    - tp
  in
  { Eval.Metrics.tp; fp; fn }

type per_type_result = {
  type_id : string;
  method_ : method_;
  detected : int;
  true_positives : int;
  precision : float;
  relative_recall : float;  (** filled in after pooling *)
  f1 : float;
}

(** Run all three methods on all 20 popular types over a column corpus.
    Relative recall per type uses the union of correct columns found by
    the three methods as ground truth (Section 9.1). *)
let run ?(seed = 11) ?pool ?registry (columns : Webtables.column list) :
    per_type_result list =
  Telemetry.with_span "detect.run"
    ~attrs:[ ("columns", Telemetry.I (List.length columns)) ]
  @@ fun () ->
  let popular = Semtypes.Registry.popular in
  List.concat_map
    (fun (ty : Semtypes.Registry.t) ->
      let type_id = ty.Semtypes.Registry.id in
      let dnf = dnf_detector ~seed ?pool ?registry ty in
      let regex = regex_detector ~seed ty in
      let detections =
        [ (DNF_S, detect_with_values dnf columns);
          (KW, detect_with_headers type_id columns);
          (REGEX, detect_with_values regex columns) ]
      in
      (* Pool of correct columns across methods (relative recall). *)
      let correct (cols : Webtables.column list) =
        List.filter (fun c -> c.Webtables.truth = Some type_id) cols
      in
      let pool =
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (_, cols) ->
            List.iter
              (fun (c : Webtables.column) -> Hashtbl.replace tbl c ())
              (correct cols))
          detections;
        Hashtbl.length tbl
      in
      List.map
        (fun (m, detected) ->
          let prf = score type_id ~detected ~columns in
          let tp = prf.Eval.Metrics.tp in
          let rr =
            if pool = 0 then 0.0 else float_of_int tp /. float_of_int pool
          in
          let p = Eval.Metrics.precision prf in
          let f1 =
            if p +. rr = 0.0 then 0.0 else 2.0 *. p *. rr /. (p +. rr)
          in
          {
            type_id;
            method_ = m;
            detected = List.length detected;
            true_positives = tp;
            precision = p;
            relative_recall = rr;
            f1;
          })
        detections)
    popular
