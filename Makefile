.PHONY: all build test fmt bench-smoke bench-kernels bench-kernels-smoke bench-memory bench-memory-smoke bench-pipeline metrics-smoke pipeline-smoke serving-smoke quant-smoke dist-smoke bad-env-smoke ci clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

# Exercises both scheduler policies end to end and writes
# BENCH_dispatch.json (small sizes; seconds, not minutes).
bench-smoke:
	OCTF_BENCH_SMOKE=1 dune exec bench/main.exe -- dispatch-wide

# Intra-op kernel throughput (matmul / conv2d / elementwise GFLOP/s at
# 1/2/4/8 threads), data-movement copies (concat, slice, transpose: us
# per call and share of an Array.blit peak), MaxPool on floats and on
# uint8 codes at serve_cnn_int8's two shapes (same units), one sparse Adagrad step
# (UniqueSegmentSum, the fused SparseApplyAdagrad and the dense chain it
# replaced, same units), small-tensor elementwise kernels at serve_rnn's
# shapes (us and minor-heap words per call), the transposed-matmul
# regression guard, and the
# fused elementwise chain: a 12-op chain fused vs unfused, asserting
# one fused kernel stands in for >= 10 ops with bit-identical output
# and >= 3x speedup (> 1x in smoke mode); writes BENCH_kernels.json.
# Full sizes — set OCTF_BENCH_SMOKE=1 for CI speed.
bench-kernels:
	dune exec bench/main.exe -- kernels

# The same at small sizes (the CI smoke): the fused chain must still be
# bit-identical and faster, and transposed matmuls keep parity.
bench-kernels-smoke:
	OCTF_BENCH_SMOKE=1 dune exec bench/main.exe -- kernels

# Peak live tensor bytes with memory planning on vs off (MLP training);
# writes BENCH_memory.json and fails if planning saves < 30%. Full
# sizes — set OCTF_BENCH_SMOKE=1 for CI speed.
bench-memory:
	dune exec bench/main.exe -- memory

# The same at small sizes (the CI smoke), with the same 30% gate.
bench-memory-smoke:
	OCTF_BENCH_SMOKE=1 dune exec bench/main.exe -- memory

# Pipelined execution against a fault-injected straggler reader:
# steps/sec at K in {1,2,4}; writes BENCH_pipeline.json and fails if
# K=4 is less than 1.5x K=1. Full sizes — set OCTF_BENCH_SMOKE=1 for
# CI speed.
bench-pipeline:
	dune exec bench/main.exe -- pipeline

# End-to-end serve smoke: freeze both model zoo entries from a live
# session, drive them with concurrent clients through the CLI, and
# require that requests actually coalesced (--assert-batched). Serving
# speed is perfbench's (serve_rnn, serve_cnn_int8).
serving-smoke:
	dune exec bin/octf_cli.exe -- serve --model mnist-cnn \
	  --train-steps 10 --clients 4 --requests 20 --assert-batched
	dune exec bin/octf_cli.exe -- serve --model lstm \
	  --train-steps 10 --clients 4 --requests 20 --assert-batched

# Quantized-serving smoke: the serve CLI over an int8-rewritten frozen
# graph (dynamic ranges). Island count, weight cut and top-1 agreement
# are tier-1 tests (quantization, quant_accuracy).
quant-smoke:
	dune exec bin/octf_cli.exe -- serve --model mnist-cnn \
	  --train-steps 10 --clients 4 --requests 20 --quantize=true

# End-to-end pipelined training: the CLI train loop at K=4 (windowed
# run_async issue, admission-time variable snapshots) must converge the
# same linear model the synchronous loop does, and the pipeline bench
# must show K=4 beating K=1 by 1.5x against a slow reader.
pipeline-smoke:
	dune exec bin/octf_cli.exe -- train --steps 60 --max-in-flight 4
	OCTF_BENCH_SMOKE=1 dune exec bench/main.exe -- pipeline

# Pool-scheduled training run with metrics export; asserts the
# acceptance-critical series (queue depth, rendezvous bytes, step
# counter) are present and non-zero in valid Prometheus text format.
metrics-smoke:
	dune exec bin/octf_cli.exe -- train --steps 30 --scheduler pool \
	  --metrics=METRICS_train.prom --stats-every 10
	grep -Eq '^octf_queue_depth_max\{queue="input"\} [1-9]' METRICS_train.prom
	grep -Eq '^octf_rendezvous_send_bytes_total [1-9]' METRICS_train.prom
	grep -Eq '^octf_session_steps_total [1-9]' METRICS_train.prom
	grep -Eq '^# TYPE octf_session_step_seconds histogram' METRICS_train.prom
	grep -Eq '^octf_executor_kernels_total [1-9]' METRICS_train.prom
	grep -Eq '^octf_mem_peak_bytes [1-9]' METRICS_train.prom

# Two-OS-process recovery drills over real TCP: kill the parameter
# server mid-training (heartbeat death, reconnect with backoff, restore
# from checkpoint, converge), plus corrupt-frame, dropped-connection and
# delayed-frame fault injection. Each scenario is timeout-bounded: a
# hang is a failure, not a stall. Every scenario runs under both
# schedulers, because the network reader thread posts Recv completions
# into the step's scheduler.
DIST_SCENARIOS = pskill corrupt dropconn framedelay
dist-smoke: build
	for sched in inline pool; do for scenario in $(DIST_SCENARIOS); do \
	  echo "dist-smoke: $$scenario under OCTF_SCHEDULER=$$sched"; \
	  OCTF_SCHEDULER=$$sched timeout -k 5 90 \
	    ./_build/default/bin/octf_cli.exe dist-smoke --scenario $$scenario \
	    || exit 1; \
	done; done

# Bad configuration fails loudly: an unknown OCTF_SCHEDULER must stop
# the CLI with a non-zero exit and a message naming the variable.
bad-env-smoke:
	out=$$(OCTF_SCHEDULER=bogus dune exec bin/octf_cli.exe -- train --steps 1 2>&1); \
	status=$$?; echo "$$out"; \
	test $$status -ne 0 && echo "$$out" | grep -q OCTF_SCHEDULER

# The test suite runs once (`test`): suites whose steps block, cancel,
# pipeline or record lanes carry their own pool-scheduler leg (see
# test/legs.ml). The two reruns below chase open races under the pool
# with 4 intra-op threads; delete each once its defect is mended.
ci: build test fmt bench-smoke bench-kernels-smoke bench-memory-smoke metrics-smoke pipeline-smoke serving-smoke quant-smoke dist-smoke bad-env-smoke
# ROADMAP 2(c): sync_replicas "backup m-of-n" applies five updates in
# four rounds, about one run in 30.
	OCTF_INTRA_OP_THREADS=4 OCTF_SCHEDULER=pool dune exec test/test_main.exe -- test sync_replicas
# ROADMAP 2(e): net "remote failure names node, device, cause" now and
# then gets a bare network error over loopback, not the injected fault.
	OCTF_INTRA_OP_THREADS=4 OCTF_SCHEDULER=pool dune exec test/test_main.exe -- test net

clean:
	dune clean
