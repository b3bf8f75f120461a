(** Differential testing of the bytecode VM (lib/minilang/{compile,vm})
    against the tree-walking oracle (test/oracle, DESIGN.md §14).

    Every program runs twice — under {!Oracle.with_oracle}, then on the
    VM — and the two [run_result]s must be byte-identical: outcome (including error kind
    and message), the full trace event list, [steps_used] and captured
    print output.  The corpus is the absint fuzz generator's programs
    plus an extended pool exercising the VM-specific machinery: slot
    binding, try/except/finally sub-units, break/continue trampolines,
    nested defs with defaults, classes, [global], unpacking, and every
    specialized opcode.  Step-budget sweeps around the exact step count
    pin the batched tick accounting to the oracle's boundary, and the
    whole synthesis pipeline is compared end to end on five types. *)

open Minilang

let run_both ?config (c : Repolib.Candidate.t) input =
  let off = Oracle.with_oracle (fun () -> Repolib.Driver.run_safe ?config c input) in
  let on = Repolib.Driver.run_safe ?config c input in
  (off, on)

let failures = ref []

let mismatch src input what fmt =
  Printf.ksprintf
    (fun detail ->
      failures :=
        Printf.sprintf "on input %S: engines differ on %s: %s\n--\n%s" input
          what detail src
        :: !failures)
    fmt

let outcome_str = function
  | Interp.Finished v -> "Finished <" ^ Value.type_name v ^ ">"
  | Interp.Errored (k, m) -> Printf.sprintf "Errored (%s, %s)" k m
  | Interp.Hit_limit m -> "Hit_limit " ^ m
  | Interp.Deadline_exceeded m -> "Deadline " ^ m

let compare_runs src input (off : Interp.run_result) (on : Interp.run_result) =
  if off.Interp.outcome <> on.Interp.outcome then
    mismatch src input "outcome" "oracle=%s vm=%s"
      (outcome_str off.Interp.outcome)
      (outcome_str on.Interp.outcome);
  if off.Interp.trace <> on.Interp.trace then
    mismatch src input "trace" "oracle has %d events, vm has %d"
      (List.length off.Interp.trace)
      (List.length on.Interp.trace);
  if off.Interp.steps_used <> on.Interp.steps_used then
    mismatch src input "steps" "oracle=%d vm=%d" off.Interp.steps_used
      on.Interp.steps_used;
  if off.Interp.printed <> on.Interp.printed then
    mismatch src input "printed output" "oracle=%d lines, vm=%d lines"
      (List.length off.Interp.printed)
      (List.length on.Interp.printed)

(* ------------------- extended program generator -------------------- *)

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

(* Statement blocks (body of [f], 4-space indented) chosen to cover VM
   paths the absint generator never reaches. *)
let ext_blocks =
  [| "    acc = []\n\
      \    for ch in value:\n\
      \        if ch == \" \":\n\
      \            continue\n\
      \        acc.append(ch)\n\
      \    k = len(acc)\n";
     "    try:\n\
      \        n = int(value)\n\
      \    except ValueError:\n\
      \        n = -1\n";
     "    try:\n\
      \        n = int(value)\n\
      \    except ValueError as e:\n\
      \        n = len(e)\n\
      \    finally:\n\
      \        m = 1\n";
     "    try:\n\
      \        raise ValueError(value)\n\
      \    except oops:\n\
      \        r = oops\n";
     "    total = 0\n\
      \    for ch in value:\n\
      \        total += 1\n\
      \        if total > 5:\n\
      \            break\n";
     "    d = {}\n\
      \    for ch in value:\n\
      \        d[ch] = 1\n\
      \    n = len(d)\n";
     "    a, b = (len(value), 2)\n    c = a * b\n";
     "    s = value[1:]\n    t = value[:2]\n    u = s + t\n";
     "    def helper(x, k=2):\n\
      \        return len(x) + k\n\
      \    h = helper(value)\n";
     "    global seen\n    seen = seen + 1\n";
     "    parts = value.split(\"-\")\n    joined = \"+\".join(parts)\n";
     "    if value:\n\
      \        x = value[0]\n\
      \    else:\n\
      \        x = \"\"\n";
     "    while len(value) > 3:\n        value = value[1:]\n";
     "    msg = \"{}-{}\".format(len(value), value)\n";
     "    z = value.find(\"a\") + value.count(\"a\")\n";
     "    w = value.zfill(8)\n    ok = w.isdigit()\n";
     "    for i in range(3):\n\
      \        for j in range(2):\n\
      \            if i == j:\n\
      \                break\n\
      \        else_done = i\n";
     "    lst = [1, 2, 3]\n\
      \    lst[1] = len(value)\n\
      \    tot = lst[0] + lst[1] + lst[2]\n"
  |]

let class_preamble =
  "class Checker:\n\
   \    def __init__(self, v):\n\
   \        self.v = v\n\
   \    def ok(self):\n\
   \        return len(self.v) > 2\n\n"

let gen_ext_program rng =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "seen = 0\n";
  let with_class = Random.State.int rng 3 = 0 in
  if with_class then Buffer.add_string buf class_preamble;
  Buffer.add_string buf "def f(value):\n";
  for _ = 1 to 1 + Random.State.int rng 3 do
    Buffer.add_string buf (pick rng ext_blocks)
  done;
  if with_class then
    Buffer.add_string buf
      "    c = Checker(value)\n    if c.ok():\n        return True\n";
  (match Random.State.int rng 4 with
   | 0 -> Buffer.add_string buf "    return len(value) > 2\n"
   | 1 -> Buffer.add_string buf "    return value.strip()\n"
   | 2 -> Buffer.add_string buf "    raise ValueError(\"bad\")\n"
   | _ -> Buffer.add_string buf "    return None\n");
  Buffer.contents buf

let direct_candidates src =
  let repo =
    Repolib.Repo.make "fuzz/vm" "vm differential fuzz"
      [ { Repolib.Repo.path = "gen.py"; source = src } ]
  in
  List.filter
    (fun (c : Repolib.Candidate.t) ->
      c.Repolib.Candidate.invocation = Repolib.Candidate.Direct
      && c.Repolib.Candidate.func_name = "f")
    (Repolib.Analyzer.candidates_of_repo repo)

let budget_config max_steps =
  { Repolib.Driver.default_config with
    Interp.max_steps = max 1 max_steps }

(* Step-budget sweep: run both engines under budgets pinned to the
   exact step count of the unconstrained run.  Any divergence in where
   the batched VM ticks charge (Hit_limit one step early/late, a
   different truncated trace) fails here. *)
let sweep_budgets src c input full_steps =
  List.iter
    (fun budget ->
      let config = budget_config budget in
      let off, on = run_both ~config c input in
      compare_runs src (Printf.sprintf "%s (budget %d)" input budget) off on)
    [ 1; 2; (full_steps / 2) + 1; full_steps - 1; full_steps; full_steps + 1 ]

let test_differential () =
  let n_programs = 500 in
  let rng = Random.State.make [| 0x7D1; 0xBEEF |] in
  let fuzz_rng = Random.State.make [| 0xA551; 0x0F17 |] in
  let n_runs = ref 0 in
  for i = 1 to n_programs do
    let src =
      (* Half the corpus is the absint fuzz generator's (detector-shaped
         programs, loops, regexes); half is the extended pool. *)
      if i mod 2 = 0 then Test_absint_fuzz.gen_program fuzz_rng
      else gen_ext_program rng
    in
    let inputs = List.init 5 (fun _ -> Test_absint_fuzz.gen_input rng) in
    List.iter
      (fun c ->
        List.iter
          (fun input ->
            let off, on = run_both c input in
            incr n_runs;
            compare_runs src input off on;
            (* Budget sweeps are expensive; sample them. *)
            if i mod 25 = 0 && off.Interp.steps_used > 2 then
              sweep_budgets src c input off.Interp.steps_used)
          inputs)
      (direct_candidates src)
  done;
  (match !failures with
   | [] -> ()
   | fs ->
     Alcotest.failf "%d engine divergence(s); first:\n%s" (List.length fs)
       (List.hd (List.rev fs)));
  Alcotest.(check bool) "ran a meaningful corpus" true (!n_runs >= 2000)

(* ------------------- targeted specialized opcodes ------------------ *)

(* One program per specialized fast path (I_call1 len/int/str, str
   index/slice inlining, each method mspec, pre-compiled regex), with
   shapes that HIT the fast path and shapes that must fall back to
   generic dispatch (same errors, same results). *)
let opcode_cases =
  [ ( "call1 len/int/str fast paths",
      "def f(value):\n\
       \    n = len(value)\n\
       \    s = str(n)\n\
       \    if value.isdigit():\n\
       \        return int(value) + len(s)\n\
       \    return s\n",
      [ "123"; ""; "abc"; "00" ] );
    ( "call1 fallback shapes",
      "def f(value):\n\
       \    a = len([1, 2])\n\
       \    b = int(\"7\")\n\
       \    c = int(value)\n\
       \    return a + b + c\n",
      [ "5"; "x"; "" ] );
    ( "str index and slice inlining",
      "def f(value):\n\
       \    if len(value) < 2:\n\
       \        return value[0]\n\
       \    return value[0] + value[-1] + value[1:3] + value[:2] + value[2:]\n",
      [ "abcdef"; "ab"; ""; "x" ] );
    ( "slice bound type errors",
      "def f(value):\n\
       \    return value[\"a\":2]\n",
      [ "abc" ] );
    ( "strip/lstrip/rstrip specialization",
      "def f(value):\n\
       \    return value.strip() + \"|\" + value.lstrip() + \"|\" + \
        value.rstrip()\n",
      [ "  ab  "; "\t x\n"; "" ] );
    ( "upper/lower/isdigit/isalpha/isalnum",
      "def f(value):\n\
       \    if value.isdigit() or value.isalpha() or value.isalnum():\n\
       \        return value.upper() + value.lower()\n\
       \    return False\n",
      [ "abc"; "123"; "a1"; "-"; "" ] );
    ( "split specializations and fallback",
      "def f(value):\n\
       \    a = value.split()\n\
       \    b = value.split(\",\")\n\
       \    c = value.split(\"\")\n\
       \    return len(a) + len(b) + len(c)\n",
      [ "a b,c"; "" ] );
    ( "replace/startswith/endswith/find",
      "def f(value):\n\
       \    if value.startswith(\"a\") and value.endswith(\"c\"):\n\
       \        return value.replace(\"b\", \"x\")\n\
       \    return value.find(\"b\")\n",
      [ "abc"; "zzz"; "b"; "" ] );
    ( "append specialization",
      "def f(value):\n\
       \    acc = []\n\
       \    for ch in value:\n\
       \        acc.append(ch)\n\
       \    return len(acc)\n",
      [ "abc"; "" ] );
    ( "join via generic dispatch",
      "def f(value):\n\
       \    return \",\".join([value, \"x\"]) + \",\".join([])\n",
      [ "ab"; "" ] );
    ( "precompiled regex literal",
      "def f(value):\n\
       \    if re.match(\"[0-9]+\", value):\n\
       \        return re.findall(\"[0-9]\", value)\n\
       \    return re.search(\"[a-z]+\", value)\n",
      [ "123a"; "abc"; "" ] );
    ( "regex fallback: shadowed re and dynamic pattern",
      "def f(value):\n\
       \    p = \"[0-9]+\"\n\
       \    a = re.fullmatch(p, value)\n\
       \    re2 = \"zz\"\n\
       \    return a\n",
      [ "42"; "4x" ] );
    ( "binop int/str fast paths and mixed fallback",
      "def f(value):\n\
       \    n = len(value)\n\
       \    if n + 1 > 2 and n - 1 <= 5 and n * 2 != 3:\n\
       \        return value + \"!\" == value\n\
       \    return n / 2\n",
      [ "abcd"; "a"; "" ] ) ]

let test_opcodes () =
  List.iter
    (fun (name, src, inputs) ->
      match direct_candidates src with
      | [ c ] ->
        List.iter
          (fun input ->
            let off, on = run_both c input in
            compare_runs src input off on)
          inputs
      | cs ->
        Alcotest.failf "%s: expected 1 direct candidate, got %d" name
          (List.length cs))
    opcode_cases;
  match !failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d opcode divergence(s); first:\n%s" (List.length fs)
      (List.hd (List.rev fs))

(* ------------------------ deadline / cancel ------------------------ *)

let spin_src = "def f(value):\n    while True:\n        pass\n"

let test_cancel_parity () =
  match direct_candidates spin_src with
  | [ c ] ->
    let fired () =
      let tok = Interp.cancel_token () in
      Interp.cancel tok;
      tok
    in
    let off =
      Oracle.with_oracle (fun () ->
          Repolib.Driver.run_safe ~cancel:(fired ()) c "x")
    in
    let on = Repolib.Driver.run_safe ~cancel:(fired ()) c "x" in
    (* A pre-fired token cancels on the very first charged tick in both
       engines — the batched tick must not overshoot. *)
    Alcotest.(check bool) "both cancelled" true
      (match (off.Interp.outcome, on.Interp.outcome) with
       | Interp.Deadline_exceeded a, Interp.Deadline_exceeded b -> a = b
       | _ -> false);
    Alcotest.(check int) "oracle cancels at step 1" 1 off.Interp.steps_used;
    Alcotest.(check int) "vm cancels at the same step" off.Interp.steps_used
      on.Interp.steps_used;
    Alcotest.(check bool) "identical traces" true
      (off.Interp.trace = on.Interp.trace)
  | _ -> Alcotest.fail "spin candidate not found"

let test_deadline_parity () =
  match direct_candidates spin_src with
  | [ c ] ->
    let big = { Interp.max_steps = 50_000_000; max_call_depth = 48 } in
    let run () =
      let deadline_ns = Int64.add (Telemetry.now_ns ()) 2_000_000L in
      Repolib.Driver.run_safe ~config:big ~deadline_ns c "x"
    in
    let check_run label (r : Interp.run_result) =
      (match r.Interp.outcome with
       | Interp.Deadline_exceeded _ -> ()
       | o -> Alcotest.failf "%s: expected deadline, got %s" label (outcome_str o));
      (* The deadline is only probed every 256 steps — both engines must
         honour exactly that cadence (Absint.Stepbound's contract). *)
      Alcotest.(check int)
        (label ^ " stops on a 256-step probe boundary")
        0
        (r.Interp.steps_used land 255)
    in
    check_run "oracle" (Oracle.with_oracle run);
    check_run "vm" (run ())
  | _ -> Alcotest.fail "spin candidate not found"

(* --------------------------- compile cache ------------------------- *)

let test_compile_cache () =
  let src = "def f(value):\n    return value.strip().isdigit()\n" in
  match direct_candidates src with
  | [ c ] ->
    let r1 = Repolib.Driver.run_safe c "12" in
    let s1 = Compile.stats () in
    let r2 = Repolib.Driver.run_safe c "ab " in
    let s2 = Compile.stats () in
    Alcotest.(check bool) "first run finished" true
      (match r1.Interp.outcome with Interp.Finished _ -> true | _ -> false);
    Alcotest.(check bool) "second run finished" true
      (match r2.Interp.outcome with Interp.Finished _ -> true | _ -> false);
    Alcotest.(check int) "no recompilation on the second run"
      s1.Compile.compiles s2.Compile.compiles;
    Alcotest.(check bool) "second run hit the compile cache" true
      (s2.Compile.cache_hits > s1.Compile.cache_hits)
  | _ -> Alcotest.fail "candidate not found"

(* A [Script_var] run executes a rewritten copy of the script.  The
   rewrite is memoized, so the VM compiles it once, not once per input —
   also when two repositories share the script's path and variable name
   and their candidates alternate, and when a repository is rebuilt
   with equal files, as loading a model artifact again does. *)
let issn_script =
  "code = \"0378-5955\"\n\
   digits = code.replace(\"-\", \"\")\n\
   if len(digits) != 8:\n\
  \    raise ValueError(\"length\")\n\
   total = 0\n\
   for i in range(7):\n\
  \    total += int(digits[i]) * (8 - i)\n"

let script_var_candidate ~repo_name src =
  let repo =
    Repolib.Repo.make repo_name "script rewrite"
      [ { Repolib.Repo.path = "check.py"; source = src } ]
  in
  match
    List.filter
      (fun (c : Repolib.Candidate.t) ->
        c.Repolib.Candidate.invocation
        = Repolib.Candidate.Script_var ("check.py", "code"))
      (Repolib.Analyzer.candidates_of_repo repo)
  with
  | [ c ] -> c
  | cs -> Alcotest.failf "expected 1 script candidate, got %d" (List.length cs)

let test_script_var_compiles_once () =
  let a = script_var_candidate ~repo_name:"t/script-a" issn_script in
  (* Same path and variable, different body: a fork of the script. *)
  let b =
    script_var_candidate ~repo_name:"t/script-b"
      (issn_script ^ "ok = total % 11\n")
  in
  let inputs = [ "0378-5955"; "1234-5679"; "12x4-5678"; "123"; "" ] in
  let check_parity c input =
    let off, on = run_both c input in
    compare_runs issn_script input off on
  in
  (* Warm both candidates: each compiles its rewrite exactly once. *)
  check_parity a "0000-0000";
  check_parity b "0000-0000";
  let warm = (Compile.stats ()).Compile.compiles in
  for _ = 1 to 20 do
    List.iter (check_parity a) inputs
  done;
  Alcotest.(check int) "repeated runs of one candidate compile nothing"
    warm (Compile.stats ()).Compile.compiles;
  for _ = 1 to 20 do
    List.iter (fun i -> check_parity a i; check_parity b i) inputs
  done;
  Alcotest.(check int)
    "alternating candidates sharing path and variable compile nothing"
    warm (Compile.stats ()).Compile.compiles;
  let reloaded = script_var_candidate ~repo_name:"t/script-a" issn_script in
  List.iter (check_parity reloaded) inputs;
  Alcotest.(check int) "a rebuilt repository compiles nothing" warm
    (Compile.stats ()).Compile.compiles;
  let steps c = (Repolib.Driver.run_safe c "0378-5955").Interp.steps_used in
  Alcotest.(check bool) "each candidate runs its own script" true
    (steps b > steps a);
  match !failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d script-run divergence(s); first:\n%s" (List.length fs)
      (List.hd (List.rev fs))

(* ------------------------- scope restores ------------------------- *)

(* The driver keeps one loaded scope per repository and domain and, for
   a scope whose only mutable state is lists and dicts, resets those
   cells before every run instead of reloading.  The entry functions
   below mutate module state on every call (append, item assignment,
   lists inside dicts, a list shared by two names, a cyclic list, pop)
   and branch on it, so state leaking from one run into the next
   changes the trace.  The oracle reloads every scope, so it is the
   baseline each VM run must equal. *)
let mutating_src =
  "SEEN = []\n\
   COUNTS = {}\n\
   NESTED = {\"hist\": [], \"tags\": [\"x\"], \"deep\": {\"xs\": []}}\n\
   ALIAS = NESTED[\"hist\"]\n\
   LOOP = []\n\
   LOOP.append(LOOP)\n\
   STACK = [\"a\", \"b\", \"c\"]\n\
   \n\
   def check(s):\n\
  \    if s in SEEN:\n\
  \        return False\n\
  \    SEEN.append(s)\n\
  \    if s in COUNTS:\n\
  \        COUNTS[s] = COUNTS[s] + 1\n\
  \    else:\n\
  \        COUNTS[s] = 1\n\
  \    if len(COUNTS) > 1:\n\
  \        return False\n\
  \    NESTED[\"hist\"].append(len(s))\n\
  \    if len(ALIAS) != 1:\n\
  \        return False\n\
  \    NESTED[\"tags\"] = []\n\
  \    NESTED[\"deep\"][\"xs\"].append(s)\n\
  \    if len(NESTED[\"deep\"][\"xs\"]) != 1:\n\
  \        return False\n\
  \    LOOP.append(s)\n\
  \    if len(LOOP) != 2:\n\
  \        return False\n\
  \    top = STACK.pop()\n\
  \    if top != \"c\":\n\
  \        return False\n\
  \    return len(s) > 2\n"

(* A module-level object and a [global] statement: a reset of list and
   dict cells cannot undo either, so these repositories reload. *)
let object_src =
  "class Box:\n\
  \    def __init__(self):\n\
  \        self.n = 0\n\
   \n\
   BOX = Box()\n\
   \n\
   def check(s):\n\
  \    BOX.n = BOX.n + len(s)\n\
  \    if BOX.n > 6:\n\
  \        return False\n\
  \    return True\n"

let global_src =
  "TOTAL = 0\n\
   \n\
   def check(s):\n\
  \    global TOTAL\n\
  \    TOTAL = TOTAL + len(s)\n\
  \    if TOTAL > 6:\n\
  \        return False\n\
  \    return True\n"

let check_candidate ~repo_name src =
  let repo =
    Repolib.Repo.make repo_name "module state"
      [ { Repolib.Repo.path = "state.py"; source = src } ]
  in
  match
    List.filter
      (fun (c : Repolib.Candidate.t) ->
        c.Repolib.Candidate.invocation = Repolib.Candidate.Direct
        && c.Repolib.Candidate.func_name = "check")
      (Repolib.Analyzer.candidates_of_repo repo)
  with
  | [ c ] -> c
  | cs -> Alcotest.failf "expected 1 check candidate, got %d" (List.length cs)

let shuffled_inputs seed =
  let rng = Random.State.make [| seed |] in
  let inputs =
    Array.init 24 (fun i -> String.make (1 + (i mod 5)) (Char.chr (97 + i)))
  in
  for i = Array.length inputs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = inputs.(i) in
    inputs.(i) <- inputs.(j);
    inputs.(j) <- t
  done;
  Array.to_list inputs

(* Runs [c] on every input under both engines, comparing each pair, and
   returns the VM's per-run (loads, cache hits, restores) deltas. *)
let vm_scope_counters c src inputs =
  let counters () =
    let snap = Telemetry.snapshot () in
    List.map (Telemetry.find_counter snap)
      [ "driver.scope_loads"; "driver.scope_cache_hits";
        "driver.scope_restores" ]
  in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      List.map
        (fun input ->
          let off =
            Oracle.with_oracle (fun () -> Repolib.Driver.run_safe c input)
          in
          let before = counters () in
          let on = Repolib.Driver.run_safe c input in
          compare_runs src input off on;
          List.map2 ( - ) (counters ()) before)
        inputs)

let expect_no_divergence () =
  match !failures with
  | [] -> ()
  | fs ->
    failures := [];
    Alcotest.failf "%d restore divergence(s); first:\n%s" (List.length fs)
      (List.hd (List.rev fs))

let test_restored_state () =
  failures := [];
  let c = check_candidate ~repo_name:"t/restore-lists" mutating_src in
  let deltas = vm_scope_counters c mutating_src (shuffled_inputs 5) in
  expect_no_divergence ();
  let sum k = List.fold_left (fun acc d -> acc + List.nth d k) 0 deltas in
  Alcotest.(check int) "loaded once" 1 (sum 0);
  Alcotest.(check int) "every later run restores"
    (List.length deltas - 1) (sum 2);
  Alcotest.(check int) "restores are cache hits" (sum 1) (sum 2);
  Telemetry.reset ()

let test_unrestorable_reloads () =
  failures := [];
  List.iter
    (fun (name, src) ->
      let c = check_candidate ~repo_name:name src in
      let deltas = vm_scope_counters c src (shuffled_inputs 9) in
      expect_no_divergence ();
      List.iteri
        (fun i d ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s run %d: one load, no reuse" name i)
            [ 1; 0; 0 ] d)
        deltas)
    [ ("t/reload-object", object_src); ("t/reload-global", global_src) ];
  Telemetry.reset ()

(* ---------------------- end-to-end pipeline ----------------------- *)

(* The synthesis pipeline, end to end, under each engine: every type's
   fingerprint (strategy, negatives, every ranked candidate id, DNF and
   %.17g score) must be byte-identical and every type must charge the
   same [interp.steps].  issn's top detector is a rewritten script
   ([Script_var]), so that path is covered.  Under the oracle the
   driver reloads every module scope, while the VM reuses inert ones,
   so scope reuse is checked against a per-run-reload baseline. *)
let pipeline_types = [ "credit-card"; "ipv4"; "email"; "isbn"; "issn" ]

let synthesize_traced id =
  let ty = Semtypes.Registry.find_exn id in
  let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
  Telemetry.reset ();
  Telemetry.enable ();
  let outcome =
    Fun.protect ~finally:Telemetry.disable (fun () ->
        Autotype_core.Pipeline.synthesize ~index:(Corpus.search_index ())
          ~query:ty.Semtypes.Registry.name ~positives ())
  in
  let snap = Telemetry.snapshot () in
  ( Autotype_core.Pipeline.fingerprint outcome,
    Telemetry.find_counter snap "interp.steps",
    Telemetry.find_counter snap "driver.scope_cache_hits" )

let test_pipeline_parity () =
  List.iter
    (fun id ->
      let fp_oracle, steps_oracle, reuse_oracle =
        Oracle.with_oracle (fun () -> synthesize_traced id)
      in
      let fp_vm, steps_vm, reuse_vm = synthesize_traced id in
      Alcotest.(check string) (id ^ ": ranked output") fp_oracle fp_vm;
      Alcotest.(check int) (id ^ ": interp.steps") steps_oracle steps_vm;
      Alcotest.(check bool) (id ^ ": ran the interpreter") true
        (steps_vm > 0);
      Alcotest.(check int) (id ^ ": oracle reloads every scope") 0
        reuse_oracle;
      Alcotest.(check bool) (id ^ ": vm reuses inert scopes") true
        (reuse_vm > 0))
    pipeline_types;
  Telemetry.reset ()

let suite =
  [ Alcotest.test_case "engines agree on 500 fuzzed programs" `Slow
      test_differential;
    Alcotest.test_case "specialized opcodes match the oracle" `Quick
      test_opcodes;
    Alcotest.test_case "pre-fired cancel token: identical first-tick stop"
      `Quick test_cancel_parity;
    Alcotest.test_case "wall-clock deadline observes the 256-step cadence"
      `Quick test_deadline_parity;
    Alcotest.test_case "compiled programs are cached per candidate" `Quick
      test_compile_cache;
    Alcotest.test_case "script rewrites compile once per candidate" `Quick
      test_script_var_compiles_once;
    Alcotest.test_case "restored module lists and dicts match a reload"
      `Quick test_restored_state;
    Alcotest.test_case "objects and global statements still reload" `Quick
      test_unrestorable_reloads;
    Alcotest.test_case "pipeline output matches the oracle on 5 types" `Slow
      test_pipeline_parity ]
