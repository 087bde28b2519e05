.PHONY: all build check test fmt bench chaos-smoke phys-smoke obs-smoke \
        crash-smoke scale-smoke bench-diff perf-digest trace-digest \
        tables-diff opaque-check clean

all: build

build:
	dune build

# Tier-1 gate: full build + test suite, then the paper's tables through
# the parallel sweep at two jobs, byte-compared with the baseline.
check:
	dune build
	dune runtest
	$(MAKE) tables-diff

# End-to-end exercise of the fault-injection stack: one heavily
# adversarial single scenario through the CLI.  The full E-chaos sweep
# (and its BENCH_chaos.json) runs in tables-diff.
chaos-smoke:
	dune exec bin/sinr_sim.exe -- chaos --seed 3 --n 36 --degree 6 \
	  --jam 0.5 --crash-frac 0.2 --abort-rate 0.0005

# End-to-end exercise of the physics fast path: the CLI self-check
# (exits 1 if the cached kernel diverges from the seed kernel).  The
# second, sparser deployment leaves most listeners beyond every sender's
# neighbour list, so its slots score few of them.  The third runs at
# n = 1200, past Sinr.par_threshold (1024), with two jobs: the pooled
# listener fan-out.
phys-smoke:
	dune exec bin/sinr_sim.exe -- phys --seed 3 --n 90 --cases 60
	dune exec bin/sinr_sim.exe -- phys --seed 3 --n 400 --degree 2 --cases 60
	dune exec bin/sinr_sim.exe -- phys --seed 3 --n 1200 --degree 2 \
	  --cases 20 --jobs 2

# End-to-end exercise of the tracing layer: a traced run of the full
# Algorithm 11.1 stack dumping a flight-recorder JSONL, then trace-report
# reconstructing per-message ack/progress latencies from it.  --strict
# exits 1 if any message exceeds its Thm 5.1 / Thm 9.1 bound.
obs-smoke:
	dune exec bin/sinr_sim.exe -- obs --seed 3 --n 24 --max-slots 60000 \
	  --trace-out flight-obs.jsonl --prometheus-out obs.prom
	dune exec bin/sinr_sim.exe -- trace-report --strict flight-obs.jsonl

# Crash-tolerance gate for the daemon: start `sinr_sim serve`, submit a
# sweep, SIGKILL the process mid-grid (a failpoint slows every cell so
# the kill window is wide), restart on the same --dir/--wal-dir, and
# require (a) the WAL recovery banner, (b) the job runs to done, (c) a
# SIGTERM drains the restarted daemon to exit 0 with its drain line in
# the log, and (d) the table is byte-identical (cmp) to an uninterrupted
# reference run in a fresh directory.  The graceful lifecycle (429
# backpressure, serve.* metrics, cells on the job log, strict /spans) is the
# in-process test "daemon: submit, 429, done, scrape"; the live SSE
# stream is "watch: SSE stream reassembles table", and `sinr_sim watch`
# against a real daemon is the cli test "serve + watch prints the
# table".  Artifacts:
# crash-smoke.log, crash-table.json, crash-table-ref.json and the
# crash-smoke-dir WAL (the jobs' logged cells included).
crash-smoke:
	dune build bin/sinr_sim.exe
	rm -rf crash-smoke-dir crash-ref-dir crash-port.txt \
	  crash-table.json crash-table-ref.json; \
	SINR_FAILPOINTS=serve.cell=sleep:0.3 \
	./_build/default/bin/sinr_sim.exe serve --port 0 \
	  --serve-port-file crash-port.txt --dir crash-smoke-dir \
	  --wal-dir crash-smoke-dir --checkpoint-every 1 --jobs 2 \
	  > crash-smoke.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
	  if [ -s crash-port.txt ]; then up=1; break; fi; sleep 0.1; done; \
	if [ $$up -ne 1 ]; then echo "crash-smoke: port file never appeared"; \
	  cat crash-smoke.log; kill $$pid 2>/dev/null; exit 1; fi; \
	port=$$(cat crash-port.txt); \
	code=$$(curl -s -o /dev/null -w '%{http_code}' \
	  -X POST http://127.0.0.1:$$port/jobs \
	  -d '{"exp":"ack","params":[2,3,4],"seeds":[1,2,3],"tag":"crash"}'); \
	if [ "$$code" != "202" ]; then echo "crash-smoke: submit got $$code"; \
	  cat crash-smoke.log; kill $$pid 2>/dev/null; exit 1; fi; \
	mid=0; for i in $$(seq 1 600); do \
	  s=$$(curl -s http://127.0.0.1:$$port/jobs/1); \
	  case "$$s" in *'"state":"done"'*) break;; esac; \
	  case "$$s" in *'"cells_done":0'*) sleep 0.1;; \
	    *) mid=1; break;; esac; done; \
	if [ $$mid -ne 1 ]; then echo "crash-smoke: never caught the job mid-grid"; \
	  cat crash-smoke.log; kill $$pid 2>/dev/null; exit 1; fi; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	rm -f crash-port.txt; \
	./_build/default/bin/sinr_sim.exe serve --port 0 \
	  --serve-port-file crash-port.txt --dir crash-smoke-dir \
	  --wal-dir crash-smoke-dir --checkpoint-every 1 --jobs 2 \
	  >> crash-smoke.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
	  if [ -s crash-port.txt ]; then up=1; break; fi; sleep 0.1; done; \
	if [ $$up -ne 1 ]; then echo "crash-smoke: restart never came up"; \
	  cat crash-smoke.log; kill $$pid 2>/dev/null; exit 1; fi; \
	port=$$(cat crash-port.txt); \
	grep -q 'wal: 1 job recovered' crash-smoke.log || \
	  { echo "crash-smoke: no recovery banner after restart"; \
	    cat crash-smoke.log; kill $$pid 2>/dev/null; exit 1; }; \
	done_=0; for i in $$(seq 1 240); do \
	  if curl -sf http://127.0.0.1:$$port/jobs/1 | grep -q '"state":"done"'; \
	  then done_=1; break; fi; sleep 0.5; done; \
	if [ $$done_ -ne 1 ]; then echo "crash-smoke: recovered job never finished"; \
	  curl -s http://127.0.0.1:$$port/jobs; cat crash-smoke.log; \
	  kill $$pid 2>/dev/null; exit 1; fi; \
	curl -sf http://127.0.0.1:$$port/jobs/1/table > crash-table.json || \
	  { echo "crash-smoke: table fetch failed"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid; rc=$$?; \
	if [ $$rc -ne 0 ]; then echo "crash-smoke: drain exited $$rc, want 0"; \
	  cat crash-smoke.log; exit 1; fi; \
	grep -q '\[drained' crash-smoke.log || \
	  { echo "crash-smoke: no drain confirmation in log"; exit 1; }; \
	rm -f crash-port.txt; \
	./_build/default/bin/sinr_sim.exe serve --port 0 \
	  --serve-port-file crash-port.txt --dir crash-ref-dir \
	  --checkpoint-every 1 --jobs 2 \
	  >> crash-smoke.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
	  if [ -s crash-port.txt ]; then up=1; break; fi; sleep 0.1; done; \
	if [ $$up -ne 1 ]; then echo "crash-smoke: reference run never came up"; \
	  cat crash-smoke.log; kill $$pid 2>/dev/null; exit 1; fi; \
	port=$$(cat crash-port.txt); \
	curl -s -o /dev/null -X POST http://127.0.0.1:$$port/jobs \
	  -d '{"exp":"ack","params":[2,3,4],"seeds":[1,2,3],"tag":"crash"}'; \
	done_=0; for i in $$(seq 1 240); do \
	  if curl -sf http://127.0.0.1:$$port/jobs/1 | grep -q '"state":"done"'; \
	  then done_=1; break; fi; sleep 0.5; done; \
	if [ $$done_ -ne 1 ]; then echo "crash-smoke: reference job never finished"; \
	  cat crash-smoke.log; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -sf http://127.0.0.1:$$port/jobs/1/table > crash-table-ref.json; \
	kill -TERM $$pid; wait $$pid 2>/dev/null; \
	cmp crash-table.json crash-table-ref.json || \
	  { echo "crash-smoke: table after SIGKILL+restart differs from the \
	    uninterrupted reference"; exit 1; }; \
	echo "crash-smoke: OK (tables byte-identical across SIGKILL)"

# End-to-end exercise of the million-node path: a short n=10^5 run on the
# streamed-placement + sparse-resolution engine with a conservative
# slots/s floor (CI runners are slow and noisy; this host does 60+) and a
# generous RSS cap (the acceptance budget is 8 GiB at n=10^6; 10^5 needs
# well under 2 GiB).
scale-smoke:
	dune exec bin/sinr_sim.exe -- scale --n 100000 --slots 50 \
	  --assert-slots-per-s 10 --assert-rss-mb 2048

# Bench regression gate: regenerate the machine-portable benchmarks and
# compare them against the committed baselines.  Exits 1 on regression.
# Absolute wall clocks are ignored (machine-dependent); the gate holds the
# speedup ratios and the tracing-overhead gauges, which transfer across
# hosts.  Wide tolerance: CI runners are noisy.  The scale leg skips the
# million-node size (SINR_SCALE_NS) and ignores every machine-dependent
# absolute (throughput, RSS, wall clocks) — what it gates is the
# deterministic workload shape: tx/delivery counts and the sparse-path
# installation flag.
bench-diff:
	SINR_SCALE_NS=10000,100000 dune exec bench/main.exe -- \
	  phys trace-overhead metrics-overhead scale
	dune exec bench/main.exe -- diff \
	  --baseline bench/baselines/BENCH_phys.json --tolerance 0.75 \
	  --ignore '*.slots_per_s' --ignore '*.seconds'
	dune exec bench/main.exe -- diff \
	  --baseline bench/baselines/BENCH_obs.json --tolerance 0.75 \
	  --ignore '*.seconds' --ignore '*.ns' --ignore '*.spread' \
	  --ignore '*.ring_entries'
	dune exec bench/main.exe -- diff \
	  --baseline bench/baselines/BENCH_scale.json --tolerance 0.25 \
	  --ignore '*.slots_per_s' --ignore '*_seconds' \
	  --ignore '*.peak_rss_mb' --ignore 'scale.bench.n1000000.*'

# Outcome gate for the paper-workload benchmark: every perfbench workload
# at seeds 1-3 with no timed window beyond its fixed prefix.  The digest of
# that prefix's outcomes must equal the one recorded for the workload and
# seed in bench/baselines/perfbench_digests.txt, so a speedup that changes
# what is simulated fails here.  Exits 1 on any difference.
perf-digest:
	dune build ./perfbench/main.exe
	@fail=0; \
	while read -r w seed want; do \
	  case "$$w" in ''|'#'*) continue;; esac; \
	  got=$$(./_build/default/perfbench/main.exe --workload "$$w" \
	    --seed "$$seed" --seconds 0 --trace 0 < /dev/null \
	    | awk '/^digest /{print $$2; exit}'); \
	  if [ "$$got" = "$$want" ]; then echo "perf-digest: $$w seed $$seed $$got ok"; \
	  else echo "perf-digest: $$w seed $$seed digest '$$got', want $$want"; \
	    fail=1; fi; \
	done < bench/baselines/perfbench_digests.txt; \
	exit $$fail

# Outcome and allocation gate for the traced path: every perfbench
# workload at seed 1 with --trace 1, which replays the fixed prefix
# untraced and then with the flight recorder armed.  The verdict must
# report correct true (both replays simulated the same execution) and the
# traced digest must equal the workload's seed-1 line in
# bench/baselines/perfbench_digests.txt, so a recorder change that alters
# what is simulated fails here.  The traced replay's
# engine.minor_words_per_slot, an exact count, must not exceed the
# workload's ceiling in bench/baselines/perfbench_alloc.txt.
trace-digest:
	dune build ./perfbench/main.exe
	@fail=0; \
	while read -r w seed want; do \
	  case "$$w" in ''|'#'*) continue;; esac; \
	  [ "$$seed" = 1 ] || continue; \
	  out=$$(./_build/default/perfbench/main.exe --workload "$$w" \
	    --seed 1 --seconds 0 --trace 1 < /dev/null); \
	  got=$$(printf '%s\n' "$$out" | awk '/^digest traced /{print $$3; exit}'); \
	  verdict=$$(printf '%s\n' "$$out" | awk '/^attempted /{print $$NF; exit}'); \
	  if [ "$$got" = "$$want" ] && [ "$$verdict" = true ]; then \
	    echo "trace-digest: $$w traced $$got correct true ok"; \
	  else echo "trace-digest: $$w traced digest '$$got' correct" \
	    "'$$verdict', want $$want correct true"; \
	    fail=1; fi; \
	  words=$$(printf '%s\n' "$$out" | tail -n 1 | \
	    sed -n 's/.*"engine.minor_words_per_slot":{"value":\([^,}]*\).*/\1/p'); \
	  ceil=$$(awk -v w="$$w" '$$1 == w {print $$2; exit}' \
	    bench/baselines/perfbench_alloc.txt); \
	  if [ -n "$$words" ] && [ -n "$$ceil" ] && \
	     awk -v a="$$words" -v c="$$ceil" 'BEGIN {exit !(a + 0 <= c + 0)}'; then \
	    echo "trace-digest: $$w minor words/slot $$words <= $$ceil ok"; \
	  else echo "trace-digest: $$w minor words/slot '$$words'," \
	    "ceiling '$$ceil' (bench/baselines/perfbench_alloc.txt)"; \
	    fail=1; fi; \
	done < bench/baselines/perfbench_digests.txt; \
	exit $$fail

# Outcome gate for the paper's tables: every Catalog experiment but
# capacity, at two jobs, must print exactly bench/baselines/tables.txt.
# The experiments are seeded and their rows are identical at any job
# count; the runner's wall clocks go to stderr.  capacity (E11) is left
# out because its table reports wall times and slots/s by design.
# Re-record the file only with a change that is meant to alter a table,
# and say so in its description:
#   dune exec bench/main.exe -- --jobs 2 $(TABLE_IDS) \
#     > bench/baselines/tables.txt
TABLE_IDS = table1-ack fig1-progress-lb table1-approg thm8-decay \
  table2-smb table1-mmb table1-cons ablation mac-compare chaos

tables-diff:
	dune build bench/main.exe
	./_build/default/bench/main.exe --jobs 2 $(TABLE_IDS) \
	  > tables-current.txt
	@cmp tables-current.txt bench/baselines/tables.txt || \
	  { diff -u bench/baselines/tables.txt tables-current.txt | head -40; \
	    exit 1; }
	@echo "tables-diff: OK (tables byte-identical to the baseline)"

# Cross-module inlining gate.  dune's dev profile compiles every module
# with -opaque, which keeps each call into another module (State.Bits.get,
# Int.min, ...) out of line in the hot loops; dune-workspace selects the
# release profile instead.  This fails if dune's rules show -opaque on any
# native compile under lib/ or perfbench/ (say, once dune-workspace is
# gone), or show no such compile at all.
opaque-check:
	@dune rules -r ./perfbench/main.exe ./bin/sinr_sim.exe 2>/dev/null | \
	awk 'BEGIN { RS = "" } \
	  /-o\n *(lib|perfbench)\/[^ \n]*\.cmx/ { \
	    n++; \
	    if ($$0 ~ /\n *-opaque\n/) { \
	      bad++; \
	      match($$0, /-o\n *(lib|perfbench)\/[^ \n]*\.cmx/); \
	      o = substr($$0, RSTART, RLENGTH); sub(/^-o\n */, "", o); \
	      print "opaque-check: -opaque on " o } } \
	  END { \
	    if (n == 0) { print "opaque-check: no native compile of lib/ or perfbench/ in dune rules"; exit 1 } \
	    if (bad > 0) { print "opaque-check: " bad " of " n " native compiles are -opaque"; exit 1 } \
	    print "opaque-check: " n " native compiles of lib/ and perfbench/, none -opaque ok" }'

test: check

fmt:
	dune fmt

bench:
	dune exec bench/main.exe

clean:
	dune clean
