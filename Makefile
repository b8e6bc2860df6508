.PHONY: all build test fmt bench-smoke bench-kernels bench-memory bench-pipeline bench-serving bench-quant fault-smoke metrics-smoke pipeline-smoke serving-smoke quant-smoke dist-smoke bad-env-smoke ci clean

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
# 1/2/4/8 threads), the transposed-matmul regression guard, and the
# fused elementwise chain: a 12-op chain fused vs unfused, asserting
# one fused kernel stands in for >= 10 ops with bit-identical output
# and >= 3x speedup (> 1x in smoke mode); writes BENCH_kernels.json.
# Full sizes — set OCTF_BENCH_SMOKE=1 for CI speed.
bench-kernels:
	dune exec bench/main.exe -- kernels

# Peak live tensor bytes with memory planning on vs off (MLP training);
# writes BENCH_memory.json and fails if planning saves < 30%. Full
# sizes — set OCTF_BENCH_SMOKE=1 for CI speed.
bench-memory:
	dune exec bench/main.exe -- memory

# Pipelined execution against a fault-injected straggler reader:
# steps/sec at K in {1,2,4}; writes BENCH_pipeline.json and fails if
# K=4 is less than 1.5x K=1. Full sizes — set OCTF_BENCH_SMOKE=1 for
# CI speed.
bench-pipeline:
	dune exec bench/main.exe -- pipeline

# Frozen-graph serving throughput: 8 pipelined clients against the
# miniature MNIST convnet, micro-batched vs batch-size-1; writes
# BENCH_serving.json (req/s, p50/p99) and fails if coalescing is less
# than 2x. Full sizes — set OCTF_BENCH_SMOKE=1 for CI speed.
bench-serving:
	dune exec bench/main.exe -- serving

# End-to-end serve smoke: freeze both model zoo entries from a live
# session, drive them with concurrent clients through the CLI, and
# require that requests actually coalesced (--assert-batched); then
# the serving benchmark in smoke sizes.
serving-smoke:
	dune exec bin/octf_cli.exe -- serve --model mnist-cnn \
	  --train-steps 10 --clients 4 --requests 20 --assert-batched
	dune exec bin/octf_cli.exe -- serve --model lstm \
	  --train-steps 10 --clients 4 --requests 20 --assert-batched
	OCTF_BENCH_SMOKE=1 dune exec bench/main.exe -- serving

# Quantized inference: freeze + calibrate + int8-rewrite the MNIST
# convnet, measure img/s and top-1 agreement against the float frozen
# twin; writes BENCH_quant.json and fails unless the quantized leg is
# >= 1.3x faster OR the mechanism holds (>= 2 islands rewritten, 4x
# weight-memory cut, top-1 delta <= 0.15). Full sizes — set
# OCTF_BENCH_SMOKE=1 for CI speed.
bench-quant:
	dune exec bench/main.exe -- quant

# Quantized-serving smoke: the serve CLI over an int8-rewritten frozen
# graph (dynamic ranges), then the quant benchmark in smoke sizes.
quant-smoke:
	dune exec bin/octf_cli.exe -- serve --model mnist-cnn \
	  --train-steps 10 --clients 4 --requests 20 --quantize=true
	OCTF_BENCH_SMOKE=1 dune exec bench/main.exe -- quant

# Deterministic-seed smoke for the fault injector: the same seed must
# reproduce the same fault sequence.
fault-smoke:
	dune exec bin/octf_cli.exe -- fault-smoke

# End-to-end pipelined training: the CLI train loop at K=4 (windowed
# run_async issue, admission-time variable snapshots) must converge the
# same linear model the synchronous loop does, and the pipeline bench
# must show K=4 beating K=1 by 1.5x against a slow reader.
pipeline-smoke:
	dune exec bin/octf_cli.exe -- train --steps 60 --max-in-flight 4
	OCTF_MAX_IN_FLIGHT=4 dune exec bin/octf_cli.exe -- train --steps 60
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

# Two-OS-process recovery drills over real TCP: kill the parameter
# server mid-training (heartbeat death, reconnect with backoff, restore
# from checkpoint, converge), plus corrupt-frame, dropped-connection and
# delayed-frame fault injection. Each scenario is timeout-bounded: a
# hang is a failure, not a stall.
dist-smoke: build
	timeout -k 5 90 ./_build/default/bin/octf_cli.exe dist-smoke --scenario pskill
	timeout -k 5 90 ./_build/default/bin/octf_cli.exe dist-smoke --scenario corrupt
	timeout -k 5 90 ./_build/default/bin/octf_cli.exe dist-smoke --scenario dropconn
	timeout -k 5 90 ./_build/default/bin/octf_cli.exe dist-smoke --scenario framedelay

# Bad configuration fails loudly: an unknown OCTF_SCHEDULER must stop
# the CLI with a non-zero exit and a message naming the variable.
bad-env-smoke:
	out=$$(OCTF_SCHEDULER=bogus dune exec bin/octf_cli.exe -- train --steps 1 2>&1); \
	status=$$?; echo "$$out"; \
	test $$status -ne 0 && echo "$$out" | grep -q OCTF_SCHEDULER

ci: build test fmt bench-smoke fault-smoke metrics-smoke pipeline-smoke serving-smoke quant-smoke dist-smoke bad-env-smoke
	OCTF_SCHEDULER=pool dune runtest --force
	OCTF_INTRA_OP_THREADS=1 OCTF_SCHEDULER=inline dune runtest --force
	OCTF_INTRA_OP_THREADS=4 OCTF_SCHEDULER=inline dune runtest --force
	OCTF_INTRA_OP_THREADS=1 OCTF_SCHEDULER=pool dune runtest --force
	OCTF_INTRA_OP_THREADS=4 OCTF_SCHEDULER=pool dune runtest --force
	OCTF_SCHEDULER=inline dune exec test/test_main.exe -- test faults
	OCTF_SCHEDULER=pool dune exec test/test_main.exe -- test faults
	OCTF_SCHEDULER=inline dune exec test/test_main.exe -- test metrics
	OCTF_SCHEDULER=pool dune exec test/test_main.exe -- test metrics
	OCTF_MEMORY_PLANNING=off dune runtest --force
	OCTF_FUSION=off dune runtest --force
	OCTF_QUANTIZE=on dune exec test/test_main.exe -- test quantization
	OCTF_QUANTIZE=on dune exec test/test_main.exe -- test quant_accuracy
	OCTF_MAX_IN_FLIGHT=4 dune exec test/test_main.exe -- test data
	OCTF_BENCH_SMOKE=1 dune exec bench/main.exe -- kernels
	OCTF_BENCH_SMOKE=1 dune exec bench/main.exe -- memory

clean:
	dune clean
