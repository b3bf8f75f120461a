(** Tests for the repository layer: candidate extraction (the invocation
    variants of Section 4.2 / Appendix D.1), the execution driver and
    the search engine. *)

let repo_of source ?(path = "m/mod.py") name =
  Repolib.Repo.make name ("test repo " ^ name)
    [ { Repolib.Repo.path; source } ]

let candidates_of source =
  Repolib.Analyzer.candidates_of_repo (repo_of source "t/candidates")

let invocations source =
  List.map (fun c -> c.Repolib.Candidate.invocation) (candidates_of source)

let test_variant_direct () =
  let inv = invocations "def f(s):\n    return len(s)\n" in
  Alcotest.(check bool) "direct" true (List.mem Repolib.Candidate.Direct inv)

let test_variant_class_then_method () =
  let src =
    {|
class P:
    def __init__(self):
        self.x = 0

    def handle(self, s):
        return len(s)
|}
  in
  match invocations src with
  | [ Repolib.Candidate.Class_then_method ("P", "handle") ] -> ()
  | _ -> Alcotest.fail "expected a=P(); a.handle(s)"

let test_variant_ctor_then_method () =
  let src =
    {|
class P:
    def __init__(self, s):
        self.s = s

    def size(self):
        return len(self.s)
|}
  in
  match invocations src with
  | [ Repolib.Candidate.Ctor_then_method ("P", "size") ] -> ()
  | _ -> Alcotest.fail "expected a=P(s); a.size()"

let test_variant_argv_stdin_file () =
  let src =
    {|
def from_args():
    return argv[1]

def from_console():
    return input()

def from_path(path):
    f = open(path)
    return f.read()
|}
  in
  let inv = invocations src in
  Alcotest.(check bool) "argv variant" true
    (List.mem (Repolib.Candidate.Via_argv "from_args") inv);
  Alcotest.(check bool) "stdin variant" true
    (List.mem (Repolib.Candidate.Via_stdin "from_console") inv);
  Alcotest.(check bool) "file variant" true
    (List.mem (Repolib.Candidate.Via_file "from_path") inv)

let test_variant_script_constant () =
  let src = "value = \"4111111111111111\"\nok = value.isdigit()\n" in
  let inv = invocations src in
  Alcotest.(check bool) "script var" true
    (List.exists
       (function Repolib.Candidate.Script_var (_, "value") -> true | _ -> false)
       inv)

let test_variant_multi_param () =
  let src = "def pair(a, b):\n    return a + b\n" in
  let inv = invocations src in
  Alcotest.(check bool) "comma split" true
    (List.exists
       (function Repolib.Candidate.Split_call (_, ',', 2) -> true | _ -> false)
       inv)

let test_default_params_ignored () =
  (* A function whose extra parameters all have defaults is
     single-parameter invocable. *)
  let src = "def f(s, strict=True):\n    return len(s)\n" in
  Alcotest.(check bool) "defaults ok" true
    (List.mem Repolib.Candidate.Direct (invocations src))

let test_driver_runs_variants () =
  let repo =
    Repolib.Repo.make "t/driver" "driver tests"
      [
        { Repolib.Repo.path = "d/lib.py";
          source =
            {|
def double(s):
    return s + s

class Wrap:
    def __init__(self):
        self.last = ""

    def keep(self, s):
        self.last = s
        return len(s)
|} };
        { Repolib.Repo.path = "d/script.py";
          source = "payload = \"abc\"\nsize = len(payload)\n" };
      ]
  in
  let cands = Repolib.Analyzer.candidates_of_repo repo in
  let find pred = List.find pred cands in
  let direct =
    find (fun c -> c.Repolib.Candidate.func_name = "double")
  in
  (match (Repolib.Driver.run_safe direct "xy").Minilang.Interp.outcome with
   | Minilang.Interp.Finished (Minilang.Value.Vstr "xyxy") -> ()
   | _ -> Alcotest.fail "direct run");
  let meth =
    find (fun c -> c.Repolib.Candidate.func_name = "Wrap.keep")
  in
  (match (Repolib.Driver.run_safe meth "hello").Minilang.Interp.outcome with
   | Minilang.Interp.Finished (Minilang.Value.Vint 5) -> ()
   | _ -> Alcotest.fail "class run");
  let script =
    find (fun c ->
        match c.Repolib.Candidate.invocation with
        | Repolib.Candidate.Script_var _ -> true
        | _ -> false)
  in
  (* The overridden constant flows through the script body. *)
  match (Repolib.Driver.run_safe script "wxyz").Minilang.Interp.outcome with
  | Minilang.Interp.Finished _ -> ()
  | _ -> Alcotest.fail "script run"

let test_driver_isolation () =
  (* Module state mutated by one run must not leak into the next. *)
  let repo =
    Repolib.Repo.make "t/isolation" "isolation"
      [
        { Repolib.Repo.path = "i/mod.py";
          source =
            {|
CACHE = []

def record(s):
    CACHE.append(s)
    return len(CACHE)
|} };
      ]
  in
  let c = List.hd (Repolib.Analyzer.candidates_of_repo repo) in
  let once () =
    match (Repolib.Driver.run_safe c "x").Minilang.Interp.outcome with
    | Minilang.Interp.Finished (Minilang.Value.Vint n) -> n
    | _ -> -1
  in
  Alcotest.(check int) "first run" 1 (once ());
  Alcotest.(check int) "second run starts fresh" 1 (once ())

let test_executable_probe () =
  (* The probe rejects candidates whose callable is missing (load-time
     failure), mirroring "compilable and executable". *)
  let repo =
    Repolib.Repo.make "t/broken" "broken"
      [
        { Repolib.Repo.path = "b/mod.py";
          source = "undefined_helper()\n\ndef ok(s):\n    return s\n" };
      ]
  in
  let cands = Repolib.Analyzer.candidates_of_repo repo in
  (* "ok" is still defined because definitions execute before the
     script error aborts the load? Definition order matters: the call
     precedes the def, so the def never executes. *)
  let ok = List.find (fun c -> c.Repolib.Candidate.func_name = "ok") cands in
  Alcotest.(check bool) "broken module's function is not executable" false
    (Repolib.Driver.executable ok ~probe:"x")

let test_search_ranking () =
  let repos =
    [
      Repolib.Repo.make "a/luhn-validator" "credit card number validation"
        [ { Repolib.Repo.path = "x.py"; source = "def f(s):\n    pass\n" } ];
      Repolib.Repo.make "b/weather" "weather station data logger"
        [ { Repolib.Repo.path = "y.py"; source = "def g(s):\n    pass\n" } ];
    ]
  in
  let index = Repolib.Search.build_index repos in
  (match Repolib.Search.search index ~k:5 "credit card" with
   | top :: _ ->
     Alcotest.(check string) "topical repo first" "a/luhn-validator"
       top.Repolib.Repo.repo_name
   | [] -> Alcotest.fail "no results");
  Alcotest.(check bool) "irrelevant query excludes the repo" true
    (Repolib.Search.search index ~k:5 "quantum chemistry"
     |> List.for_all (fun r -> r.Repolib.Repo.repo_name <> "a/luhn-validator"))

let test_search_stemming () =
  let repos =
    [
      Repolib.Repo.make "a/bic" "validation for payment messages"
        [ { Repolib.Repo.path = "x.py"; source = "def f(s):\n    pass\n" } ];
    ]
  in
  let index = Repolib.Search.build_index repos in
  match Repolib.Search.search index ~k:5 "payment message" with
  | top :: _ ->
    Alcotest.(check string) "plural stems match" "a/bic" top.Repolib.Repo.repo_name
  | [] -> Alcotest.fail "stemming failed"

let test_script_argv_variant () =
  let repo =
    Repolib.Repo.make "t/script-argv" "cli script"
      [
        { Repolib.Repo.path = "s/cli.py";
          source =
            "word = argv[1]\nif not word.isalpha():\n    raise ValueError(\"not a word\")\nprint(word)\n" };
      ]
  in
  let cands = Repolib.Analyzer.candidates_of_repo repo in
  let script_argv =
    List.find_opt
      (fun c ->
        match c.Repolib.Candidate.invocation with
        | Repolib.Candidate.Script_argv _ -> true
        | _ -> false)
      cands
  in
  match script_argv with
  | None -> Alcotest.fail "script argv candidate not extracted"
  | Some c ->
    (match (Repolib.Driver.run_safe c "hello").Minilang.Interp.outcome with
     | Minilang.Interp.Finished _ -> ()
     | _ -> Alcotest.fail "script argv accepts a word");
    (match (Repolib.Driver.run_safe c "42").Minilang.Interp.outcome with
     | Minilang.Interp.Errored ("ValueError", _) -> ()
     | _ -> Alcotest.fail "script argv rejects digits")

let test_config_with_hint_clamp () =
  let base = Repolib.Driver.default_config in
  let max_steps (c : Minilang.Interp.config) = c.Minilang.Interp.max_steps in
  Alcotest.(check int) "no hint: unchanged" (max_steps base)
    (max_steps (Repolib.Driver.config_with_hint base None));
  Alcotest.(check int) "hint below the cap: adopted" 7
    (max_steps (Repolib.Driver.config_with_hint base (Some 7)));
  Alcotest.(check int) "hint above the cap: unchanged" (max_steps base)
    (max_steps
       (Repolib.Driver.config_with_hint base (Some (max_steps base * 2))));
  (* Regression: a hint <= 0 passed the [budget < max_steps] guard and
     produced a config that could never execute a single step. *)
  Alcotest.(check int) "zero hint clamps to 1" 1
    (max_steps (Repolib.Driver.config_with_hint base (Some 0)));
  Alcotest.(check int) "negative hint clamps to 1" 1
    (max_steps (Repolib.Driver.config_with_hint base (Some (-5))))

(* [Hashtbl.hash] reads only a few meaningful values, so these two
   same-named repositories, which differ only in their fifth file, hash
   alike; the parse cache must still tell them apart. *)
let test_parse_cache_collision () =
  let repo last =
    Repolib.Repo.make "t/collide" "parse cache"
      (List.init 5 (fun i ->
           { Repolib.Repo.path = Printf.sprintf "m%d.py" i;
             source = (if i = 4 then last else "x = 1\n") }))
  in
  let a = repo "def alpha(s):\n    return s\n" in
  let b = repo "def beta(s):\n    return s\n" in
  Alcotest.(check bool) "file lists share a hash" true
    (Hashtbl.hash a.Repolib.Repo.files = Hashtbl.hash b.Repolib.Repo.files);
  let defines name (r : Repolib.Repo.t) =
    let progs, _ = Repolib.Repo.parse_each r in
    List.exists
      (fun (p : Minilang.Ast.program) ->
        List.exists
          (function
            | Minilang.Ast.Func_def f -> f.Minilang.Ast.fname = name
            | _ -> false)
          p.Minilang.Ast.prog_body)
      progs
  in
  Alcotest.(check bool) "first repo parses its own files" true (defines "alpha" a);
  Alcotest.(check bool) "second repo parses its own files" true (defines "beta" b);
  Alcotest.(check bool) "no cross-talk" false (defines "alpha" b);
  Alcotest.(check bool) "equal file lists share the cached parse" true
    (fst (Repolib.Repo.parse_each a)
     == fst (Repolib.Repo.parse_each (repo "def alpha(s):\n    return s\n")))

let suite =
  [
    ("variant 1: direct", `Quick, test_variant_direct);
    ("variant 2: paramless ctor + method", `Quick, test_variant_class_then_method);
    ("variant 3: 1-param ctor + paramless method", `Quick,
     test_variant_ctor_then_method);
    ("variants 4-6: argv, stdin, file", `Quick, test_variant_argv_stdin_file);
    ("script hard-coded constant", `Quick, test_variant_script_constant);
    ("multi-parameter splitting", `Quick, test_variant_multi_param);
    ("default params", `Quick, test_default_params_ignored);
    ("driver runs all variants", `Quick, test_driver_runs_variants);
    ("driver isolates runs", `Quick, test_driver_isolation);
    ("executable probe", `Quick, test_executable_probe);
    ("search ranking", `Quick, test_search_ranking);
    ("search stemming", `Quick, test_search_stemming);
    ("script argv variant", `Quick, test_script_argv_variant);
    ("budget hint clamped to >= 1", `Quick, test_config_with_hint_clamp);
    ("parse cache tells colliding repos apart", `Quick,
     test_parse_cache_collision);
  ]
