(** Execution driver: run a candidate function on one input string under
    full tracing and sandbox limits (Sections 4.2 and 5.1).

    Each run starts from module state exactly as a fresh load leaves it:
    a repository is loaded once per domain and its list and dict cells
    are reset before every later run (or, where resetting cannot undo
    what a run may do, it is loaded afresh), so state mutated by a
    previous execution cannot leak between examples — the equivalent of
    the paper running each instrumented function in its own process. *)

open Minilang

type outcome = Interp.outcome =
  | Finished of Value.t
  | Errored of string * string
  | Hit_limit of string
  | Deadline_exceeded of string

let default_config = { Interp.max_steps = 200_000; max_call_depth = 48 }

let lookup scope name = Value.scope_lookup scope name

exception Infra_failure of string
(** The invocation machinery itself failed (callable not defined, etc.),
    as opposed to the function failing on the input. *)

let m_runs = Telemetry.counter "driver.runs"
let m_infra_failures = Telemetry.counter "driver.infra_failures"
let m_probes = Telemetry.counter "driver.probes"
let m_rejected = Telemetry.counter "driver.rejected_unexecutable"
let m_scope_loads = Telemetry.counter "driver.scope_loads"
let m_scope_cache_hits = Telemetry.counter "driver.scope_cache_hits"
let m_scope_restores = Telemetry.counter "driver.scope_restores"

let rewrite_script_var ~var (prog : Ast.program) : Ast.program =
  let body =
    List.map
      (fun stmt ->
        match stmt with
        | Ast.Assign (Ast.Tvar v, Ast.Str _, pos) when v = var ->
          Ast.Assign (Ast.Tvar v, Ast.Var "__autotype_input__", pos)
        | s -> s)
      prog.Ast.prog_body
  in
  { prog with Ast.prog_body = body }

(* --- Loaded-scope reuse -------------------------------------------- *)

(* Re-executing every file on each run keeps state from leaking between
   examples, but a load costs more than most runs do.  So the first load
   of a repository on a domain is kept, together with a snapshot of
   every list and dict cell reachable from its module values, and every
   later run first writes the snapshot back ([r := saved] per cell).
   That leaves the scope exactly as a fresh load left it, because a run
   has only three ways to change module state:
   - mutate a list or dict cell, which the snapshot undoes (cells are
     deduplicated by physical identity, so shared and cyclic structure
     stays shared, and whatever a run stored into a cell goes with the
     cell's contents);
   - rebind a module name, which needs a [global] statement: such
     repositories reload on every run;
   - write an object's fields, which live in a [Hashtbl]: a scope that
     reaches a [Vobj] or [Vbound] reloads on every run.
   Every other value is immutable (functions and methods close over the
   module scope itself, never over a function's locals), and a scope
   with no cells at all is simply reused.  Loads are never charged to a run, so step counts are
   unaffected.  While a test substitutes another engine
   ({!Interp.with_engine}) every run reloads, so the tree-walking oracle
   stays a per-run-reload baseline and the differential tests check
   restores against it.  Script invocations (which execute INTO the
   scope) always reload.  Per-domain table: scopes are mutable
   structures and must not be shared across tracing domains. *)

type snapshot = {
  lists : (Value.t list ref * Value.t list) array;
  dicts : ((Value.t * Value.t) list ref * (Value.t * Value.t) list) array;
}

exception Not_restorable

(** Every cell reachable from [scope]'s module values with its current
    contents, or [None] when a run could change the scope in a way that
    resetting cells does not undo. *)
let snapshot (progs : Ast.program list) (scope : Value.scope) :
    snapshot option =
  let has_global (p : Ast.program) =
    Ast.fold_stmts
      (fun acc s -> acc || match s with Ast.Global _ -> true | _ -> false)
      false p.Ast.prog_body
  in
  let lists = ref [] and dicts = ref [] in
  let rec walk (v : Value.t) =
    match v with
    | Value.Vint _ | Value.Vfloat _ | Value.Vbool _ | Value.Vstr _
    | Value.Vnone | Value.Vbuiltin _ | Value.Vfun _ | Value.Vclass _ ->
      ()
    | Value.Vtuple vs -> List.iter walk vs
    | Value.Vlist r ->
      if not (List.memq r !lists) then begin
        lists := r :: !lists;
        List.iter walk !r
      end
    | Value.Vdict r ->
      if not (List.memq r !dicts) then begin
        dicts := r :: !dicts;
        List.iter (fun (k, v) -> walk k; walk v) !r
      end
    | Value.Vobj _ | Value.Vbound _ -> raise Not_restorable
  in
  if List.exists has_global progs then None
  else
    match Hashtbl.iter (fun _ v -> walk v) scope.Value.vars with
    | exception Not_restorable -> None
    | () ->
      let saved rs = Array.of_list (List.rev_map (fun r -> (r, !r)) rs) in
      Some { lists = saved !lists; dicts = saved !dicts }

let restore { lists; dicts } =
  Array.iter (fun (r, saved) -> r := saved) lists;
  Array.iter (fun (r, saved) -> r := saved) dicts

type scope_entry = Kept of Value.scope * snapshot | Reload

(* Keyed by repo name, validated by physical identity of the file list:
   corpus [Repo.t] values are constructed once and reused, so [==] is a
   free equality — hashing the file contents (whole source strings)
   would cost more than a short run itself.  A same-named repo with a
   different file list (fuzzers rebuild repos per program) misses the
   identity check and reloads. *)
let scope_cache :
    ((string, Repo.file list * scope_entry) Hashtbl.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

(** Load every file of the repo into a fresh scope, untraced.  Load-time
    errors in individual files are tolerated, mirroring the paper's
    "execute whatever compiles" behaviour. *)
let load_fresh ?(skip_file = "") (repo : Repo.t) : Value.scope option =
  match Repo.parse_each repo with
  | [], _ -> None
  | progs, _skipped ->
    let progs =
      List.filter (fun (p : Ast.program) -> p.Ast.prog_file <> skip_file) progs
    in
    Telemetry.incr m_scope_loads;
    let scope, _errors = Interp.load_module ~config:default_config progs in
    Some scope

let load_scope ?(skip_file = "") (repo : Repo.t) : Value.scope option =
  if skip_file = "" && not (Interp.engine_substituted ()) then begin
    (* Consult the cache before even parsing: a hit costs one short
       string hash and a table probe — no parse-cache mutex, no file
       hashing, no program filtering. *)
    let tbl = Domain.DLS.get scope_cache in
    let key = repo.Repo.repo_name in
    match Hashtbl.find_opt tbl key with
    | Some (files, Kept (scope, snap)) when files == repo.Repo.files ->
      Telemetry.incr m_scope_cache_hits;
      if Array.length snap.lists + Array.length snap.dicts > 0 then begin
        Telemetry.incr m_scope_restores;
        restore snap
      end;
      Some scope
    | Some (files, Reload) when files == repo.Repo.files -> load_fresh repo
    | _ ->
      (match Repo.parse_each repo with
       | [], _ -> None
       | progs, _skipped ->
         Telemetry.incr m_scope_loads;
         let scope, _errors =
           Interp.load_module ~config:default_config progs
         in
         Hashtbl.replace tbl key
           ( repo.Repo.files,
             match snapshot progs scope with
             | Some snap -> Kept (scope, snap)
             | None -> Reload );
         Some scope)
  end
  else load_fresh ~skip_file repo

(* --- Script-rewrite memo ------------------------------------------ *)

(* [rewrite_script_var] builds a new program, and the VM's compile cache
   is keyed on a program's physical identity, so rewriting on every run
   would compile — and retain — one fresh copy per input value.  The
   rewrite is therefore memoized per domain, keyed by the physical
   identity of the parsed program plus the overwritten variable.  Two
   candidates sharing a path and a variable name (same-named test
   repos, forks) parse to distinct programs and so hold distinct
   entries: neither can evict the other.  A repository rebuilt with
   equal files (a model artifact loaded again after eviction) gets the
   same parsed programs back from [Repo.parse_each], so it hits too.
   Only the AST is shared; each run still executes it into a freshly
   loaded scope. *)
module Script_key = struct
  type t = Ast.program * string

  let equal ((p1 : Ast.program), v1) ((p2 : Ast.program), v2) =
    p1 == p2 && String.equal v1 v2

  let hash ((p : Ast.program), v) = Hashtbl.hash (p.Ast.prog_file, v)
end

module Script_tbl = Hashtbl.Make (Script_key)

let script_cache : Ast.program Script_tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Script_tbl.create 16)

let rewritten_script ~var (parsed : Ast.program) : Ast.program =
  let tbl = Domain.DLS.get script_cache in
  match Script_tbl.find_opt tbl (parsed, var) with
  | Some prog -> prog
  | None ->
    let prog = rewrite_script_var ~var parsed in
    Script_tbl.add tbl (parsed, var) prog;
    prog

let run ?(config = default_config) ?(record_assigns = false) ?cancel
    ?deadline_ns (c : Candidate.t) (input : string) : Interp.run_result =
  Telemetry.incr m_runs;
  let fail_infra msg = raise (Infra_failure msg) in
  let find_prog file =
    match Repo.parse_each c.Candidate.repo with
    | [], _ -> fail_infra "repository does not parse"
    | progs, _ ->
      (match
         List.find_opt (fun (p : Ast.program) -> p.Ast.prog_file = file) progs
       with
       | Some p -> p
       | None -> fail_infra ("no such file " ^ file))
  in
  let with_scope ?skip_file k =
    match load_scope ?skip_file c.Candidate.repo with
    | Some scope -> k scope
    | None -> fail_infra "repository does not parse"
  in
  let call_named ctx scope name args =
    match lookup scope name with
    | Some callable -> Interp.call_callable ctx callable args
    | None -> fail_infra (Printf.sprintf "callable %s not defined" name)
  in
  match c.Candidate.invocation with
  | Candidate.Direct ->
    with_scope (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns (fun ctx ->
            call_named ctx scope c.Candidate.func_name [ Value.Vstr input ]))
  | Candidate.Split_call (fname, sep, k) ->
    with_scope (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns (fun ctx ->
            let parts =
              String.split_on_char sep input
              |> List.map String.trim
              |> List.filter (fun p -> p <> "")
            in
            if List.length parts <> k then
              Value.raise_error "ValueError"
                (Printf.sprintf "expected %d components" k)
            else
              call_named ctx scope fname
                (List.map (fun p -> Value.Vstr p) parts)))
  | Candidate.Class_then_method (cls, meth) ->
    with_scope (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns (fun ctx ->
            match lookup scope cls with
            | Some callable ->
              let obj = Interp.call_callable ctx callable [] in
              Interp.call_method ctx obj meth [ Value.Vstr input ]
                { Ast.file = "<invoke>"; line = 0 }
            | None -> fail_infra (Printf.sprintf "class %s not defined" cls)))
  | Candidate.Ctor_then_method (cls, meth) ->
    with_scope (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns (fun ctx ->
            match lookup scope cls with
            | Some callable ->
              let obj = Interp.call_callable ctx callable [ Value.Vstr input ] in
              Interp.call_method ctx obj meth []
                { Ast.file = "<invoke>"; line = 0 }
            | None -> fail_infra (Printf.sprintf "class %s not defined" cls)))
  | Candidate.Via_argv fname ->
    with_scope (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns
          ~argv:[ "prog.py"; input ]
          (fun ctx -> call_named ctx scope fname []))
  | Candidate.Via_stdin fname ->
    with_scope (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns ~stdin_line:input
          (fun ctx -> call_named ctx scope fname []))
  | Candidate.Via_file fname ->
    with_scope (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns
          ~virtual_files:[ ("input.txt", input) ]
          (fun ctx -> call_named ctx scope fname [ Value.Vstr "input.txt" ]))
  | Candidate.Script_var (path, var) ->
    let prog = rewritten_script ~var (find_prog path) in
    with_scope ~skip_file:path (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns (fun ctx ->
            Hashtbl.replace scope.Value.vars "__autotype_input__"
              (Value.Vstr input);
            Interp.exec_program ctx scope prog;
            Value.Vnone))
  | Candidate.Script_argv path ->
    let prog = find_prog path in
    with_scope ~skip_file:path (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns
          ~argv:[ "prog.py"; input ]
          (fun ctx ->
            Interp.exec_program ctx scope prog;
            Value.Vnone))
  | Candidate.Script_stdin path ->
    let prog = find_prog path in
    with_scope ~skip_file:path (fun scope ->
        Interp.run_traced ~config ~record_assigns ?cancel ?deadline_ns ~stdin_line:input
          (fun ctx ->
            Interp.exec_program ctx scope prog;
            Value.Vnone))

(** Try the candidate on one probe input; reject candidates whose
    invocation machinery does not even reach the function (the paper's
    "compilable and executable" filter). *)
let executable (c : Candidate.t) ~probe : bool =
  Telemetry.incr m_probes;
  match run c probe with
  | _result -> true
  | exception Infra_failure _ ->
    Telemetry.incr m_rejected;
    false

(** Apply a static step-budget hint to a config.  Hints are clamped to
    at least 1: a hint of 0 (or less) would pass the [budget <
    max_steps] guard and yield a config under which [tick] trips on the
    very first step — every run would misreport as [Hit_limit] before
    executing anything. *)
let config_with_hint (config : Interp.config) (hint : int option) :
    Interp.config =
  match hint with
  | Some budget when budget < config.Interp.max_steps ->
    { config with Interp.max_steps = max 1 budget }
  | Some _ | None -> config

(** Interpreter config for a candidate, shrinking [max_steps] using
    every static proof available:
    - the loop pass's spin hint ({!Analyzer.verdict}): the entry
      function provably reaches a constant-condition event-free loop,
      so any budget that covers the prefix traces identically;
    - the abstract interpreter's bound ({!Analyzer.absint_facts}): a
      proven [a·len + b] termination bound (usable when [input_len] is
      supplied) or a precise spin-prefix cost.

    The two hints can disagree — a candidate can be both a proven spin
    and have a tighter absint prefix cost, and a stale spin hint could
    otherwise override a proven termination bound.  The effective
    [max_steps] is defined as the *minimum* of the available hints
    (each is individually sound as an upper-requirement, so their min
    is too), clamped to at least 1 by {!config_with_hint}. *)
let config_for ?(config = default_config) ?input_len (c : Candidate.t) :
    Interp.config =
  let spin = (Analyzer.verdict c).Analyzer.budget_hint in
  let proved =
    Absint.Analyze.budget_hint ?input_len
      (Analyzer.absint_facts c).Absint.Domain.bound
  in
  let combined =
    match (spin, proved) with
    | Some a, Some b -> Some (min a b)
    | (Some _ as h), None | None, (Some _ as h) -> h
    | None, None -> None
  in
  config_with_hint config combined

(** Convenience used throughout the pipeline: run and swallow
    infrastructure failures into an error outcome. *)
let run_safe ?config ?record_assigns ?cancel ?deadline_ns c input :
    Interp.run_result =
  match run ?config ?record_assigns ?cancel ?deadline_ns c input with
  | r -> r
  | exception Infra_failure msg ->
    Telemetry.incr m_infra_failures;
    Telemetry.Flight.record ~kind:"infra_failure" msg;
    {
      Interp.outcome = Errored ("InfraError", msg);
      trace = [ Minilang.Trace.Exception "InfraError" ];
      steps_used = 0;
      printed = [];
    }
