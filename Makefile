# Developer entry points.  Everything assumes PYTHONPATH=src (the repo
# is import-from-source; there is no install step).

PY := PYTHONPATH=src python

.PHONY: check test smoke crash-sweep parity ledger-smoke ledger-compare loc simcheck effects doccheck

## All static gates (ruff + simcheck + doccheck) in one command.
check:
	$(PY) -m repro.tools.checkall

## The tier-1 test suite.
test:
	$(PY) -m pytest -x -q

## The dbbench smokes CI runs, each spelled once.  Harness modes exit
## non-zero on any violation; `twice` re-runs a deterministic mode and
## cmp's the bytes; the greps pin what each run must have exercised.
SMOKE_OUT := .smoke_out
DBBENCH := $(PY) -m repro.tools.dbbench

# $(call twice,NAME): NAME.txt from one run of $(TWICE_NAME) must equal
# a second run.  `make parity` replays the same list against a parent.
define twice
$(DBBENCH) $(TWICE_$(1)) > $(SMOKE_OUT)/$(1).txt
$(DBBENCH) $(TWICE_$(1)) | cmp - $(SMOKE_OUT)/$(1).txt
endef

TWICE_RUNS := server cluster-chaos nemesis cluster tiered
TWICE_server := --server --engine bolt --num 300 --clients 2 --arrival-rate 50000 --seed 11
TWICE_cluster-chaos := --cluster --chaos --num 400
TWICE_nemesis := --cluster --nemesis
TWICE_cluster := --cluster --num 400 --shards 4 --replicas 1 --clients 2 --workload a
TWICE_tiered := --engine bolt --tiered --num 10000

# The crash sweep sweeps: a range of sizes per engine, because where
# replay ends relative to a MemTable overflow depends on --num (ROADMAP
# item 1 hid behind one lucky size for three PRs), and a range of seeds
# for tiered BoLT, because which background work runs under the
# checker's MANIFEST walk depends on --seed.  70 cells, ~95 s; stops at
# the first cell whose last line is not "crash sweep: PASS".
SWEEP_BOLT_NUMS := 20 40 60 80 100 120 140 160 180 200
SWEEP_STOCK_NUMS := 20 60 100 140 200
SWEEP_TIERED_SEEDS := 301 7

crash-sweep:
	@set -e; \
	sweep() { $(DBBENCH) "$$@" --crash-sweep | tail -1 | grep -Fx 'crash sweep: PASS' >/dev/null \
		|| { echo "crash sweep FAILED: dbbench $$* --crash-sweep"; exit 1; }; }; \
	for num in $(SWEEP_BOLT_NUMS); do \
		sweep --engine bolt --num $$num; \
		sweep --engine hyperbolt --num $$num; \
		sweep --engine hyperbolt --tiered --num $$num; \
		for seed in $(SWEEP_TIERED_SEEDS); do sweep --engine bolt --tiered --num $$num --seed $$seed; done; \
	done; \
	for engine in leveldb rocksdb pebblesdb hyperleveldb; do \
		for num in $(SWEEP_STOCK_NUMS); do sweep --engine $$engine --num $$num; done; \
	done; \
	echo "crash sweep: 70 cells PASS"

smoke: crash-sweep
	mkdir -p $(SMOKE_OUT)
	$(DBBENCH) --chaos --num 300
	$(DBBENCH) --engine bolt --num 300 --sanitize
	$(call twice,server)
	grep -E 'barriers_saved: [1-9][0-9]*$$' $(SMOKE_OUT)/server.txt
	$(call twice,cluster-chaos)
	grep -E 'availability 1\.000000$$' $(SMOKE_OUT)/cluster-chaos.txt
	grep -E '[1-9][0-9]* WAL tail records replayed' $(SMOKE_OUT)/cluster-chaos.txt
	grep -Fx 'cluster chaos: PASS' $(SMOKE_OUT)/cluster-chaos.txt
	$(call twice,nemesis)
	grep -E 'fenced_writes [1-9][0-9]*' $(SMOKE_OUT)/nemesis.txt
	grep -E 'availability 1\.000000$$' $(SMOKE_OUT)/nemesis.txt
	grep -E 'history: [1-9][0-9]* ops checked, 0 violations' $(SMOKE_OUT)/nemesis.txt
	grep -Fx 'nemesis: PASS' $(SMOKE_OUT)/nemesis.txt
	$(call twice,cluster)
	grep -E 'replication: [1-9][0-9]* records applied' $(SMOKE_OUT)/cluster.txt
	grep -E 'sends_refused 0 ' $(SMOKE_OUT)/cluster.txt
	$(call twice,tiered)
	grep -E 'tier demotions: +[1-9]' $(SMOKE_OUT)/tiered.txt
	grep -E 'tier remote: +[1-9][0-9]* GETs' $(SMOKE_OUT)/tiered.txt

## Byte-identity against a parent: `make parity PARENT=<rev>` checks
## PARENT out as a detached worktree under .parity_out/ (removed on exit)
## and runs one list in both trees: `perfbench --digest`, the `twice`
## runs above, and benchmarks/parity.py (fig11, fig12 on both bases, the
## suite over every system).  This tree's parity.py runs against the
## parent's src, so a parent without the script still works.  Exits 1
## unless every output is byte-equal (~1 min).  A change that declares a
## model change is expected to fail it, and says why in CHANGES.md.
PARITY_OUT := .parity_out
PARITY_PARENT := $(PARITY_OUT)/parent-worktree

parity:
	@test -n "$(PARENT)" || { echo "usage: make parity PARENT=<rev>"; exit 2; }
	@set -e; rm -rf $(PARITY_OUT)/parent $(PARITY_OUT)/change; mkdir -p $(PARITY_OUT); \
	git worktree add --detach $(PARITY_PARENT) $(PARENT); \
	trap 'git worktree remove --force $(PARITY_PARENT)' EXIT; \
	for side in parent change; do \
		src=src; [ $$side = change ] || src=$(PARITY_PARENT)/src; \
		out=$(PARITY_OUT)/$$side; mkdir -p $$out; \
		PYTHONPATH=$$src python -m repro.tools.perfbench --digest > $$out/perfbench-digest.txt; \
		$(foreach run,$(TWICE_RUNS),PYTHONPATH=$$src python -m repro.tools.dbbench $(TWICE_$(run)) > $$out/$(run).txt; ) \
		PYTHONPATH=$$src python benchmarks/parity.py > $$out/parity.txt; \
	done; \
	status=0; \
	for name in $$(ls $(PARITY_OUT)/change); do \
		cmp $(PARITY_OUT)/parent/$$name $(PARITY_OUT)/change/$$name || status=1; \
	done; \
	if [ $$status = 0 ]; then echo "parity: every output byte-equal to $(PARENT)"; \
	else echo "parity: FAILED against $(PARENT)"; fi; \
	exit $$status

## The perf ledger's self-test at smoke scale (benchmarks/ledger is
## outside pytest's testpaths, so `make test` does not reach it; ~15 s).
ledger-smoke:
	$(PY) -m pytest benchmarks/ledger -q

## What a gain PR quotes: `make ledger-compare PARENT=<rev> [PAIRS=10] [SEED=42]`
## checks PARENT out beside this tree (a detached worktree under
## .ledger_out/, removed on exit) and runs PAIRS alternating pairs of
## contract runs per workload, parent against `.`; exits as `compare` does.
PAIRS ?= 10
SEED ?= 42
LEDGER_PARENT := .ledger_out/parent-worktree

ledger-compare:
	@test -n "$(PARENT)" || { echo "usage: make ledger-compare PARENT=<rev> [PAIRS=10] [SEED=42]"; exit 2; }
	@set -e; mkdir -p .ledger_out; \
	git worktree add --detach $(LEDGER_PARENT) $(PARENT); \
	trap 'git worktree remove --force $(LEDGER_PARENT)' EXIT; \
	python3 benchmarks/ledger/run.py compare --pairs $(PAIRS) --seed $(SEED) $(LEDGER_PARENT) .

## Library size, the one number line budgets quote.
loc:
	@find src/repro -name '*.py' | xargs wc -l | tail -1

## The determinism/durability analyzer alone (baseline applied).
## Library and test code are separate projects on purpose — see
## docs/ANALYSIS.md.
simcheck:
	$(PY) -m repro.tools.simcheck src/repro
	$(PY) -m repro.tools.simcheck tests benchmarks

## Dump inferred effect summaries for the library.
effects:
	$(PY) -m repro.tools.simcheck src/repro --effects

## Markdown link + doctest verification alone.
doccheck:
	$(PY) -m repro.tools.doccheck
