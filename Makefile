.PHONY: all build test lint absint models faults vm-diff serve-smoke perf-smoke check bench bench-compare clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static analysis over every corpus repository; fails on any
# error-severity diagnostic (warnings are gated separately by the
# corpus-hygiene test's allowlist).
lint:
	dune exec bin/autotype_cli.exe -- lint --strict --all-corpus

# Abstract-interpretation smoke (DESIGN.md §13): the reference regex
# detector must be proven pure, step-bounded and summarizable, and the
# proofs must surface through the machine-readable lint output.
ABSINT_OUT ?= _build/absint_smoke.json
absint: build
	dune exec bin/autotype_cli.exe -- lint --repo snippets/ipv4-check --json --verbose > $(ABSINT_OUT)
	@grep -q '"pure":true' $(ABSINT_OUT) || { echo "absint: purity proof missing"; exit 1; }
	@grep -q '"step_bound":"steps <=' $(ABSINT_OUT) || { echo "absint: step bound missing"; exit 1; }
	@grep -q '"tree_nodes":' $(ABSINT_OUT) || { echo "absint: summary missing"; exit 1; }
	@echo "absint: OK"

# Rewrite the committed bench artifacts in canonical form: sorted keys,
# fixed float formatting, one trailing newline.  Timings vary run to
# run; shape and key order never do.  Produces BENCH_pipeline.json
# (stage totals, serve report with streaming quantiles, flight-recorder
# overhead and the SLO report) and BENCH_telemetry.json (the warm-pass
# metrics snapshot readable by `autotype stats --snapshot`), then lints
# the Prometheus exposition rendered from that snapshot.
bench: build
	dune exec bench/main.exe -- pipeline
	dune exec bench/main.exe -- serve
	dune exec bin/autotype_cli.exe -- stats --snapshot BENCH_telemetry.json --prom --lint > /dev/null

# Sequential-vs-parallel pipeline comparison: runs the same synthesis
# workload at jobs=1 and jobs=4 and fails if the ranked outputs diverge
# (the bench exits non-zero on any divergence).
bench-compare:
	dune exec bench/main.exe -- pipeline --jobs 4

# Compile/serve smoke: compile example types into a scratch registry,
# then serve a column through `detect --models` with no re-synthesis.
MODELS_DIR ?= _build/models_smoke
models: build
	rm -rf $(MODELS_DIR)
	dune exec bin/autotype_cli.exe -- compile --type credit-card --type ipv4 --out $(MODELS_DIR)
	@printf '192.168.0.1\n10.0.0.7\n255.255.255.0\n8.8.8.8\n172.16.31.4\n' > $(MODELS_DIR)/column.txt
	dune exec bin/autotype_cli.exe -- detect --column $(MODELS_DIR)/column.txt --models $(MODELS_DIR) --stats | tee $(MODELS_DIR)/detect.out
	@grep -q "detected type ipv4" $(MODELS_DIR)/detect.out || { echo "served detection missed ipv4"; exit 1; }
	@echo "models: OK"

# Fault-injection smoke: serve under injected delays/kills/corruption
# (AUTOTYPE_FAULTS, DESIGN.md §10) and assert graceful degradation —
# batches finish, per-value deadlines report DEADLINE, and a corrupted
# artifact is rejected loudly rather than served.
FAULTS_DIR ?= _build/models_faults
faults: build
	rm -rf $(FAULTS_DIR)
	dune exec bin/autotype_cli.exe -- compile --type ipv4 --out $(FAULTS_DIR)
	@printf '192.168.0.1\n10.0.0.7\n255.255.255.0\n8.8.8.8\n172.16.31.4\n' > $(FAULTS_DIR)/column.txt
	AUTOTYPE_FAULTS="delay_ms=2,p_kill=0.3,seed=7" dune exec bin/autotype_cli.exe -- detect --column $(FAULTS_DIR)/column.txt --models $(FAULTS_DIR) --deadline-ms 500 --value-budget-ms 1 --stats
	AUTOTYPE_FAULTS="delay_ms=5,seed=7" dune exec bin/autotype_cli.exe -- validate --model $(FAULTS_DIR)/ipv4.model --value-budget-ms 1 192.168.0.1 | grep -q DEADLINE
	@AUTOTYPE_FAULTS="p_corrupt=1,seed=7" dune exec bin/autotype_cli.exe -- validate --model $(FAULTS_DIR)/ipv4.model 192.168.0.1 && { echo "corrupted artifact was served"; exit 1; } || true
	@echo "faults: OK"

# Daemon smoke (DESIGN.md §15): compile a model, run `autotype serve`
# over stdio, and push three framed requests plus one malformed frame
# through the wire protocol.  Asserts the bad frame is surfaced (not
# fatal), health and shutdown round-trip, and — the real contract —
# the daemon's verdict words are byte-identical to the one-shot
# `validate` CLI on the same values.
SERVE_DIR ?= _build/serve_smoke
serve-smoke: build
	@rm -rf $(SERVE_DIR)
	dune exec bin/autotype_cli.exe -- compile --type ipv4 --out $(SERVE_DIR)
	@req1='{"id":1,"op":"validate","type":"ipv4","values":["192.168.0.1","notanip"]}'; \
	req2='{"id":2,"op":"health"}'; \
	req3='{"id":3,"op":"shutdown"}'; \
	{ printf '%s\n%s\n' "$${#req1}" "$$req1"; \
	  printf 'XX\n'; \
	  printf '%s\n%s\n' "$${#req2}" "$$req2"; \
	  printf '%s\n%s\n' "$${#req3}" "$$req3"; } > $(SERVE_DIR)/frames.bin
	dune exec bin/autotype_cli.exe -- serve --models $(SERVE_DIR) --stdio \
	  < $(SERVE_DIR)/frames.bin > $(SERVE_DIR)/replies.bin
	@grep -q '"error":"bad_frame"' $(SERVE_DIR)/replies.bin || { echo "serve-smoke: malformed frame not surfaced"; exit 1; }
	@grep -q '"id":2,"ok":true' $(SERVE_DIR)/replies.bin || { echo "serve-smoke: health reply missing"; exit 1; }
	@grep -q '"bye":true' $(SERVE_DIR)/replies.bin || { echo "serve-smoke: shutdown not acknowledged"; exit 1; }
	dune exec bin/autotype_cli.exe -- validate --model $(SERVE_DIR)/ipv4.model \
	  192.168.0.1 notanip > $(SERVE_DIR)/oneshot.out
	@exp=$$(awk 'NF==2 && ($$2=="VALID" || $$2=="invalid" || $$2=="DEADLINE") \
	               {printf("%s\"%s\"", (n++?",":""), $$2)}' $(SERVE_DIR)/oneshot.out); \
	grep -q "\"verdicts\":\[$$exp\]" $(SERVE_DIR)/replies.bin \
	  || { echo "serve-smoke: daemon verdicts drifted from the one-shot CLI"; exit 1; }
	@echo "serve-smoke: OK"

# Engine-parity smoke (DESIGN.md §14): the 5-type synthesis workload
# run under the tree-walker (AUTOTYPE_VM=off) and the bytecode VM must
# produce byte-identical ranked output, exercising the AUTOTYPE_VM
# dispatch end to end.  issn's top detector is a script whose constant
# is overwritten per input, so the rewritten-script path is covered.
# The pipeline bench checks the same contract in-process (plus step
# accounting); this one covers the env-var path.
VMDIFF_DIR ?= _build/vm_diff
vm-diff: build
	@rm -rf $(VMDIFF_DIR) && mkdir -p $(VMDIFF_DIR)
	@for t in credit-card ipv4 email isbn issn; do \
	  AUTOTYPE_VM=off dune exec bin/autotype_cli.exe -- synth --type $$t --top 10 > $(VMDIFF_DIR)/$$t.tree || exit 1; \
	  AUTOTYPE_VM=on dune exec bin/autotype_cli.exe -- synth --type $$t --top 10 > $(VMDIFF_DIR)/$$t.vm || exit 1; \
	  cmp $(VMDIFF_DIR)/$$t.tree $(VMDIFF_DIR)/$$t.vm || { echo "vm-diff: $$t ranked output diverged between engines"; exit 1; }; \
	  echo "vm-diff: $$t identical"; \
	done
	@echo "vm-diff: OK"

# Benchmark smoke: one short traced scan_resident run of perfbench/
# (about 10 s).  Fails unless every op was correct and no op compiled
# anything once set-up was done — a per-run program rebuild that
# defeats the VM's compile cache shows up as compiles_per_op > 0.
PERFSMOKE_OUT ?= _build/perf_smoke.json
perf-smoke: build
	python3 perfbench/run.py --workload scan_resident --seed 1 --seconds 4 --trace 1 > $(PERFSMOKE_OUT)
	@python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); \
	  c = r["metrics"]["minilang.compiles_per_op"]["value"]; \
	  sys.exit(0 if r["correct"] and c == 0 else \
	    "perf-smoke: correct=%s compiles_per_op=%s" % (r["correct"], c))' $(PERFSMOKE_OUT)
	@echo "perf-smoke: OK"

# Full gate: build, test suites, the compile/serve smoke, the
# fault-injection smoke, the engine-parity smoke, the daemon smoke, and
# the observability paths (CLI --stats and the machine-readable bench
# JSON).  Opt into the parallel-determinism gate with BENCH=1.
check: build test lint absint models faults vm-diff serve-smoke $(if $(BENCH),bench-compare)
	dune exec bin/autotype_cli.exe -- synth --type credit-card --stats
	dune exec bench/main.exe -- pipeline
	@test -s BENCH_pipeline.json || { echo "BENCH_pipeline.json missing or empty"; exit 1; }
	@test -s BENCH_telemetry.json || { echo "BENCH_telemetry.json missing or empty"; exit 1; }
	dune exec bin/autotype_cli.exe -- stats --snapshot BENCH_telemetry.json --prom --lint > /dev/null
	@echo "check: OK"

clean:
	dune clean
	rm -rf _build/models_smoke
