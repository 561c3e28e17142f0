# Convenience targets for the BotMeter reproduction.

.PHONY: install test test-fast smoke-sweep service-smoke trace-smoke netingest-smoke cluster-smoke cluster-chaos wire-smoke liveview-smoke soak bench bench-paper bench-perf examples report clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Tier-1 suite minus the multi-simulation determinism/e2e tests.
test-fast:
	pytest tests/ -x -q -m "not slow"

# 2-worker end-to-end sweep on a tiny grid; proves the parallel engine
# and the CLI wiring in seconds.
smoke-sweep:
	python -m repro.cli sweep population --values 8 12 --trials 2 \
		--models AR --workers 2 --perf-json smoke_perf.json
	@cat smoke_perf.json

# botmeterd end-to-end: export a synthetic trace, replay it line-at-a-time
# vs batch engine vs 256-line batches vs a 2-partition cluster vs a
# stdin pipe into serve (all byte-identical), then SIGKILL a throttled
# daemon mid-stream and prove the resumed output still matches. Mirrors
# the CI job.
service-smoke:
	rm -rf service-smoke && mkdir -p service-smoke
	python -m repro.cli export-trace --source sim --family new_goz \
		--bots 24 --servers 2 --days 2 --seed 7 --out service-smoke/trace.ndjson
	python -m repro.cli replay service-smoke/trace.ndjson --batch-lines 1 \
		--out service-smoke/streamed.ndjson
	python -m repro.cli replay service-smoke/trace.ndjson --engine batch \
		--out service-smoke/batch.ndjson
	diff service-smoke/streamed.ndjson service-smoke/batch.ndjson
	python -m repro.cli replay service-smoke/trace.ndjson --batch-lines 256 \
		--out service-smoke/batched.ndjson
	diff service-smoke/batched.ndjson service-smoke/streamed.ndjson
	python -m repro.cli cluster-replay service-smoke/trace.ndjson \
		--workdir service-smoke/cluster --partitions 2 --no-verify > /dev/null
	diff service-smoke/cluster/landscape.ndjson service-smoke/streamed.ndjson
	cat service-smoke/trace.ndjson | python -m repro.cli serve --input - \
		--idle-timeout 0.5 --out service-smoke/stdin.ndjson 2> /dev/null
	diff service-smoke/stdin.ndjson service-smoke/streamed.ndjson
	-timeout -s KILL 4 python -m repro.cli serve \
		--input service-smoke/trace.ndjson --no-follow --throttle 0.001 \
		--checkpoint service-smoke/ck.json --checkpoint-every 200 \
		--out service-smoke/served.ndjson 2> /dev/null
	test -f service-smoke/ck.json
	python -m repro.cli serve --input service-smoke/trace.ndjson --no-follow \
		--checkpoint service-smoke/ck.json --checkpoint-every 200 \
		--out service-smoke/served.ndjson \
		--metrics-out service-smoke/metrics.prom \
		--health-out service-smoke/health.json
	diff service-smoke/served.ndjson service-smoke/streamed.ndjson
	@echo "service-smoke OK: streamed == batch engine == 256-line batches == 2 partitions == stdin pipe, SIGKILL resume == uninterrupted"
	@cat service-smoke/metrics.prom

# Stagewatch end-to-end: replay a synthetic trace with tracing on,
# line-at-a-time and in 256-line batches, prove the landscape stream is
# byte-identical to the untraced replay, and render the per-stage trace
# report.
trace-smoke:
	rm -rf trace-smoke && mkdir -p trace-smoke
	python -m repro.cli export-trace --source sim --family murofet \
		--bots 24 --servers 2 --days 2 --seed 7 --out trace-smoke/trace.ndjson
	python -m repro.cli replay trace-smoke/trace.ndjson \
		--trace-sample 0 --out trace-smoke/untraced.ndjson
	python -m repro.cli replay trace-smoke/trace.ndjson --batch-lines 1 \
		--trace-out trace-smoke/events.ndjson --trace-sample 4 \
		--out trace-smoke/traced.ndjson
	diff trace-smoke/traced.ndjson trace-smoke/untraced.ndjson
	python -m repro.cli replay trace-smoke/trace.ndjson --batch-lines 256 \
		--trace-out trace-smoke/events256.ndjson --trace-sample 4 \
		--out trace-smoke/traced256.ndjson
	diff trace-smoke/traced256.ndjson trace-smoke/untraced.ndjson
	@echo "trace-smoke OK: landscape bytes identical with tracing on (1- and 256-line batches)"
	python -m repro.cli trace-report trace-smoke/events256.ndjson

# Sensornet end-to-end: a real `serve --listen` process takes 3 concurrent
# `sensor-send` shards of a synthetic trace, once over localhost TCP and
# once over a Unix-domain socket; both merged landscapes must be
# byte-identical to the file replay.
netingest-smoke:
	rm -rf netingest-smoke && mkdir -p netingest-smoke
	python -m repro.cli export-trace --source sim --family murofet \
		--bots 24 --servers 3 --days 2 --seed 7 --out netingest-smoke/trace.ndjson
	python -m repro.cli replay netingest-smoke/trace.ndjson --trace-sample 0 \
		--out netingest-smoke/reference.ndjson
	$(call sensornet,netingest-smoke,tcp,3,serve --listen 127.0.0.1:0 \
		--checkpoint netingest-smoke/ck-tcp.json --trace-sample 0 \
		--out netingest-smoke/net-tcp.ndjson,netingest-smoke/net-tcp.ndjson)
	$(call sensornet,netingest-smoke,uds,3,serve \
		--listen-uds netingest-smoke/ingest.sock \
		--checkpoint netingest-smoke/ck-uds.json --trace-sample 0 \
		--out netingest-smoke/net-uds.ndjson,netingest-smoke/net-uds.ndjson)
	@echo "netingest-smoke OK: 3 sensors over TCP == 3 sensors over UDS == file replay"

# $(call sensornet,DIR,KIND,K,SERVER,OUT): one `repro SERVER` process
# (a listening `serve` or `cluster-serve`, given --addr-file
# DIR/addr-KIND.json and --expect-sensors K) plus K `sensor-send`
# processes (shard i/K each of DIR/trace.ndjson, preferring transport
# KIND); waits for all of them under `timeout 120`, then diffs the
# landscape OUT against DIR/reference.ndjson.
define sensornet
	timeout 120 python -m repro.cli $(4) \
		--addr-file $(1)/addr-$(2).json --expect-sensors $(3) \
		2> $(1)/serve-$(2).log & pids=$$!; \
	for i in $$(seq 0 $$(( $(3) - 1 ))); do \
		timeout 120 python -m repro.cli sensor-send $(1)/trace.ndjson \
			--sensor sensor-0$$i --shard $$i/$(3) --prefer $(2) \
			--addr-file $(1)/addr-$(2).json \
			> $(1)/sensor-$(2)-$$i.json & pids="$$pids $$!"; \
	done; \
	status=0; for pid in $$pids; do wait $$pid || status=1; done; exit $$status
	diff $(5) $(1)/reference.ndjson
endef

# Chartmesh end-to-end: a 3-partition replay, a live 2 -> 3 reshard at
# the trace's midpoint, and a live `cluster-serve --partitions 3` fed by
# 2 `sensor-send` processes; all three merged landscapes byte-compared
# against the single-daemon replay.
cluster-smoke:
	rm -rf cluster-smoke && mkdir -p cluster-smoke
	python -m repro.cli export-trace --source sim --family murofet \
		--bots 24 --servers 6 --days 2 --seed 11 --out cluster-smoke/trace.ndjson
	python -m repro.cli replay cluster-smoke/trace.ndjson --trace-sample 0 \
		--out cluster-smoke/reference.ndjson
	python -m repro.cli cluster-replay cluster-smoke/trace.ndjson \
		--workdir cluster-smoke/flat --partitions 3 --no-verify \
		> cluster-smoke/flat.json
	diff cluster-smoke/flat/landscape.ndjson cluster-smoke/reference.ndjson
	half=$$(( ($$(wc -l < cluster-smoke/trace.ndjson) - 1) / 2 )); \
	python -m repro.cli cluster-replay cluster-smoke/trace.ndjson \
		--workdir cluster-smoke/reshard --plan 2:$$half,3 --no-verify \
		> cluster-smoke/reshard.json
	diff cluster-smoke/reshard/landscape.ndjson cluster-smoke/reference.ndjson
	$(call sensornet,cluster-smoke,tcp,2,cluster-serve \
		--workdir cluster-smoke/serve --partitions 3 \
		--listen 127.0.0.1:0,cluster-smoke/serve/landscape.ndjson)
	@echo "cluster-smoke OK: 3 partitions == 2 -> 3 reshard at the midpoint == live 3-partition cluster-serve == single daemon"

# Meshguard chaos drill: SIGKILL/wedge every partition mid-stream on a
# seeded epoch-anchored schedule; the merged landscape must stay
# byte-identical to the single-daemon replay, spools and the restart
# ledger must reconcile, and two runs must reproduce identical spools
# and ledgers.
cluster-chaos:
	rm -rf cluster-chaos && mkdir -p cluster-chaos
	python -m tests.harness cluster-chaos cluster-chaos
	@cat cluster-chaos/chaos-report.json

# Fastlane end-to-end: export a synthetic trace, convert NDJSON <-> v2
# both ways (byte-identity both directions), replay both formats
# (landscape bytes identical, NDJSON line-at-a-time too), then SIGKILL a
# throttled daemon mid-v2-stream and prove the resumed output still
# matches. Last, replay the jitter golden and its v2 twin through a
# 4-record reorder buffer (block and drop-oldest, 1- and 256-line
# batches), so dropped and late records cross the columnar path on real
# bytes. Then rewrite every 5th record of the jitter golden in a valid
# form the bulk decode lane does not take (reversed keys, a \u002e
# escape, a trailing \r) or parses another way (a %.17e timestamp), and
# check both lanes chart the golden landscape at 1- and 256-line
# batches. Mirrors the CI wire-smoke job.
wire-smoke:
	rm -rf wire-smoke && mkdir -p wire-smoke
	python -m repro.cli export-trace --source sim --family new_goz \
		--bots 24 --servers 2 --days 2 --seed 7 --out wire-smoke/trace.ndjson
	python -m repro.cli convert-trace wire-smoke/trace.ndjson \
		--out wire-smoke/trace.v2 --frame-records 256
	python -m repro.cli convert-trace wire-smoke/trace.v2 \
		--out wire-smoke/back.ndjson
	diff wire-smoke/back.ndjson wire-smoke/trace.ndjson
	python -m repro.cli export-trace --source sim --family new_goz \
		--bots 24 --servers 2 --days 2 --seed 7 --wire v2 \
		--frame-records 256 --out wire-smoke/direct.v2
	cmp wire-smoke/direct.v2 wire-smoke/trace.v2
	python -m repro.cli replay wire-smoke/trace.ndjson \
		--out wire-smoke/ndjson.landscape
	python -m repro.cli replay wire-smoke/trace.v2 \
		--out wire-smoke/v2.landscape
	diff wire-smoke/v2.landscape wire-smoke/ndjson.landscape
	python -m repro.cli replay wire-smoke/trace.ndjson --batch-lines 1 \
		--out wire-smoke/ndjson-b1.landscape
	diff wire-smoke/ndjson-b1.landscape wire-smoke/ndjson.landscape
	-timeout -s KILL 4 python -m repro.cli serve \
		--input wire-smoke/trace.v2 --no-follow --throttle 0.001 \
		--checkpoint wire-smoke/ck.json --checkpoint-every 200 \
		--out wire-smoke/served.ndjson 2> /dev/null
	test -f wire-smoke/ck.json
	python -m repro.cli serve --input wire-smoke/trace.v2 --no-follow \
		--checkpoint wire-smoke/ck.json --checkpoint-every 200 \
		--out wire-smoke/served.ndjson
	diff wire-smoke/served.ndjson wire-smoke/ndjson.landscape
	python -m repro.cli convert-trace tests/golden/new_goz_jitter.ndjson \
		--out wire-smoke/jitter.v2 --frame-records 256
	for policy in block drop-oldest; do \
		python -m repro.cli replay tests/golden/new_goz_jitter.ndjson \
			--reorder-capacity 4 --policy $$policy --batch-lines 1 \
			--out wire-smoke/jitter-$$policy.landscape || exit 1; \
		for input in tests/golden/new_goz_jitter.ndjson wire-smoke/jitter.v2; do \
			for lines in 1 256; do \
				python -m repro.cli replay $$input --reorder-capacity 4 \
					--policy $$policy --batch-lines $$lines \
					--out wire-smoke/jitter-run.landscape || exit 1; \
				diff wire-smoke/jitter-run.landscape \
					wire-smoke/jitter-$$policy.landscape || exit 1; \
			done; \
		done; \
	done
	python -c 'import json, sys; \
		lines = open(sys.argv[1], "rb").read().split(b"\n"); \
		records = [i for i, line in enumerate(lines) if line.startswith(b"{\"domain\"")]; \
		forms = ( \
			lambda line, rec: json.dumps(dict(reversed(rec.items())), separators=(",", ":")).encode(), \
			lambda line, rec: line.replace(b".", b"\\u002e", 1), \
			lambda line, rec: line + b"\r", \
			lambda line, rec: line.replace(b"%r," % rec["timestamp"], b"%.17e," % rec["timestamp"]), \
		); \
		edits = {i: forms[n % 4](lines[i], json.loads(lines[i])) for n, i in enumerate(records[4::5])}; \
		open(sys.argv[2], "wb").write(b"\n".join(edits.get(i, line) for i, line in enumerate(lines)))' \
		tests/golden/new_goz_jitter.ndjson wire-smoke/jitter-mixed.ndjson
	for lines in 1 256; do \
		python -m repro.cli replay wire-smoke/jitter-mixed.ndjson \
			--batch-lines $$lines --out wire-smoke/jitter-mixed.landscape || exit 1; \
		diff wire-smoke/jitter-mixed.landscape \
			tests/golden/new_goz_jitter.landscape.ndjson || exit 1; \
	done
	@echo "wire-smoke OK: NDJSON <-> v2 byte-exact both ways, replays identical (v2, NDJSON 1- and 256-line batches), SIGKILL resume on v2 == uninterrupted, jitter golden at a 4-record buffer identical across block/drop-oldest x NDJSON/v2 x 1/256-line batches, jitter golden with every 5th record rewritten for the fallback lane identical at 1/256-line batches"

# Liveview end-to-end: a takedown/re-key campaign replayed with the
# real lexical D3 inline, line-at-a-time and in 256-line batches
# (byte-identical, re-keyed
# family registered live, measured miss rate in quality), a DoH
# visibility-loss day carrying its adoption estimate on every row, and
# the strict accuracy-regression tier (BENCH_accuracy.json floors).
liveview-smoke:
	rm -rf liveview-smoke && mkdir -p liveview-smoke
	python -m repro.cli export-trace --source rekey --family qakbot \
		--family-seed 7 --rekey-seed 5 --bots 8 --days 2 --seed 3 \
		--out liveview-smoke/rekey.ndjson
	python -m repro.cli replay liveview-smoke/rekey.ndjson --d3 lexical \
		--batch-lines 1 --trace-sample 0 --out liveview-smoke/lexical-w1.ndjson
	python -m repro.cli replay liveview-smoke/rekey.ndjson --d3 lexical \
		--batch-lines 256 \
		--trace-sample 0 --out liveview-smoke/lexical-b256.ndjson
	diff liveview-smoke/lexical-w1.ndjson liveview-smoke/lexical-b256.ndjson
	grep -q '"d3_miss_rate"' liveview-smoke/lexical-w1.ndjson
	grep -q '"family":"qakbot-rk5"' liveview-smoke/lexical-w1.ndjson
	python -m repro.cli export-trace --source sim --family qakbot \
		--bots 8 --servers 2 --days 2 --seed 7 --doh-adoption 0.25 \
		--out liveview-smoke/doh.ndjson
	python -m repro.cli replay liveview-smoke/doh.ndjson \
		--trace-sample 0 --out liveview-smoke/doh.landscape.ndjson
	grep -q '"doh_loss":0.25' liveview-smoke/doh.landscape.ndjson
	mkdir -p perf-artifacts
	REPRO_PERF_DIR=perf-artifacts REPRO_PERF_STRICT=1 \
		pytest -q -s benchmarks/test_accuracy_liveview.py
	@echo "liveview-smoke OK: lexical D3 byte-identical (1- and 256-line batches), re-key registered live, DoH loss annotated, accuracy floors hold"

# Faultline soak: a multi-family trace through the full seeded fault
# schedule under supervision — survival, exact dead-letter/ledger
# reconciliation, loss-bounded degradation, byte-identical determinism.
soak:
	rm -rf service-soak && mkdir -p service-soak
	python -m tests.harness soak service-soak
	@cat service-soak/report.json

test-logged:
	pytest tests/ 2>&1 | tee test_output.txt

# Every test_perf_* suite, artifacts collected into perf-artifacts/ and
# folded into one summary table (benchmarks/summary.py).
bench:
	mkdir -p perf-artifacts
	REPRO_PERF_DIR=perf-artifacts pytest -q -s benchmarks/test_perf_service.py \
		benchmarks/test_perf_faults.py benchmarks/test_perf_tracing.py \
		benchmarks/test_perf_netingest.py benchmarks/test_perf_cluster.py \
		benchmarks/test_perf_wire.py benchmarks/test_accuracy_liveview.py
	python benchmarks/summary.py perf-artifacts

bench-logged:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-perf:
	pytest benchmarks/test_perf_micro.py --benchmark-only

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

report:
	python -m repro.cli report --out reproduction_report.md

clean:
	rm -rf src/repro.egg-info .pytest_cache .benchmarks service-smoke service-soak trace-smoke netingest-smoke cluster-smoke cluster-chaos wire-smoke liveview-smoke perf-artifacts
	find . -name __pycache__ -type d -exec rm -rf {} +
