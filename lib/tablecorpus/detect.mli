(** Column-type detection over the web-table corpus (Section 9): the
    synthesized-function method (DNF-S), the header-keyword baseline
    (KW) and the inferred-regex baseline (REGEX). *)

type method_ = DNF_S | KW | REGEX

val method_to_string : method_ -> string
val all_methods : method_ list

val header_keywords : (string * string list) list
(** Per-type header keywords for the KW baseline. *)

val detection_threshold : float
(** A column is detected when more than this fraction of values pass
    (0.8, per Section 9.1).  Equal by construction to
    {!Autotype_core.Synthesis.default_detection_threshold} — the value
    is defined once, in the synthesis layer. *)

type detector = {
  type_id : string;
  accepts : string -> bool;
  usable : bool;  (** REGEX inference can fail on heterogeneous input *)
}

val fraction_accepted : (string -> bool) -> string list -> float

(** {1 Deadline-aware column serving}

    Wall-clock budgets for the warm path (DESIGN.md §10): a per-value
    budget bounds any single interpreter run, a batch deadline bounds
    the whole request.  Both are optional and default to unbounded, in
    which case serving behaves exactly as before. *)

type budgets = {
  value_budget_ms : float option;  (** per-value wall-clock budget *)
  batch_deadline : Exec.Deadline.t option;  (** whole-request bound *)
}

val no_budgets : budgets

val budgets :
  ?value_budget_ms:float -> ?deadline_ms:float -> unit -> budgets
(** Convenience constructor: [deadline_ms] is measured from now. *)

type column_verdict =
  | Column_match of float  (** fraction accepted, above the threshold *)
  | Column_no_match of float
  | Column_degraded of { seen : int; accepted : int; total : int }
      (** the batch deadline passed mid-column: no type claim is made,
          the partial tally is reported, the batch continues *)

val serve_column :
  ?budgets:budgets -> Autotype_core.Synthesis.t -> string list ->
  column_verdict
(** Serve one column under budgets.  A value cut by its own budget
    counts as not-accepted ([serve.deadline_hits]); a column cut by the
    batch deadline degrades to [Column_degraded] ([serve.degraded], a
    ["degraded"] flight event labelled [serve.column] and a flight
    dump trigger) instead of failing the batch. *)

type value_verdict =
  | V_valid
  | V_invalid
  | V_deadline  (** cut by its own wall-clock budget; no claim made *)
  | V_skipped  (** the batch deadline had already passed; never ran *)

val value_verdict_to_string : value_verdict -> string
(** The CLI's historical verdict words: "VALID", "invalid", "DEADLINE",
    "SKIPPED" — also the wire-protocol encoding, so daemon responses
    are byte-comparable with one-shot CLI output. *)

val serve_values :
  ?budgets:budgets -> Autotype_core.Synthesis.t -> string list ->
  value_verdict list
(** One verdict per value — the value-level twin of {!serve_column},
    shared by [autotype validate] and the serving daemon.  A value cut
    by its own budget reports [V_deadline] ([serve.deadline_hits]);
    once the batch deadline passes, the remaining tail reports
    [V_skipped] without running, recorded like a cut column
    ([serve.degraded], a ["degraded"] flight event labelled
    [serve.values] and a flight dump trigger).  Shares one budget loop
    with {!serve_column}. *)

val fastpath_max_len : int
(** Longest value served by the compiled fast path (4096); longer
    values take the interpreter route and are flight-recorded. *)

val serve_detector : Model.Registry.entry -> detector
(** Detector around a registry-served model (the warm path): validation
    only, no pipeline stages.  Artifacts carrying a compiled fast-path
    summary answer eligible values from the verdict tree without
    running the interpreter ([serve.fastpath_hits]); everything else
    falls back to {!Autotype_core.Synthesis.validate}
    ([serve.fastpath_fallbacks], plus a flight-recorder event per
    fallback). *)

val dnf_detector :
  ?seed:int ->
  ?pool:Exec.Pool.t ->
  ?registry:Model.Registry.t ->
  Semtypes.Registry.t ->
  detector
(** The DNF-S detector for a type.  When [registry] holds a compiled
    model for the type it is served from there (no synthesis); otherwise
    the full pipeline runs and the top-1 synthesized function is
    wrapped.  [pool] parallelizes candidate tracing (see {!Exec.Pool}). *)

val regex_detector : ?seed:int -> Semtypes.Registry.t -> detector
(** Potter's-Wheel inference from the same positive examples. *)

val header_matches : string -> string option -> bool

val detect_with_values :
  detector -> Webtables.column list -> Webtables.column list

val detect_with_headers :
  string -> Webtables.column list -> Webtables.column list

val score :
  string ->
  detected:Webtables.column list ->
  columns:Webtables.column list ->
  Eval.Metrics.prf

type per_type_result = {
  type_id : string;
  method_ : method_;
  detected : int;
  true_positives : int;
  precision : float;
  relative_recall : float;  (** vs. the union of all methods' correct finds *)
  f1 : float;
}

val run :
  ?seed:int ->
  ?pool:Exec.Pool.t ->
  ?registry:Model.Registry.t ->
  Webtables.column list ->
  per_type_result list
(** All three methods on all 20 popular types (Figure 11 / Table 2).
    [pool] parallelizes the per-type synthesis runs' candidate tracing;
    [registry] serves compiled models for the types it holds instead of
    re-synthesizing them. *)
