# Latency ablation: vectorized kernels and worker threads, crossed.
#
# Before any timing is reported the harness verifies that every enabled
# configuration produces the same cube bit for bit; a performance knob that
# changes results is a correctness bug, not a speedup. The naive kernel
# path is slow by design (it is the readable reference), so this demo keeps
# iteration counts small.

from specdrive.bench import (
    BenchConfig,
    bench_inference,
    bench_preprocess,
    report_table,
)
from specdrive.mosaic import preprocess_pipeline
from specdrive.synth import SceneSpec, separating_mlp_weights, synth_scene

scene = synth_scene(SceneSpec(kind="classes", num_classes=3, seed=30))

cfg = BenchConfig(iterations=5, warmup=1, threads=(1, 2, 4), vectorized=(True,),
                  watts=4.0)
report = bench_preprocess(cfg, scene.raw, scene.dark, scene.white, scene.layout)
print("=== preprocessing (vectorized, thread sweep) ===")
print(report_table(report))

# inference with the hand-built classifier: a per-pixel model runs untiled,
# so it takes no grid
cube = preprocess_pipeline(scene.raw, scene.dark, scene.white, scene.layout).cube
graph, weights = separating_mlp_weights(scene.signatures)
icfg = BenchConfig(iterations=3, warmup=1, threads=(1, 2))
inf = bench_inference(icfg, graph, cube, None, weights=weights,
                      preprocess_ms=report.best().total_mean_ms)
print("\n=== inference (untiled per-pixel MLP, 2048-pixel blocks) ===")
print(report_table(inf))
print("\nthe two-stage pipeline rate is set by the slower stage; with a "
      "pipelined implementation that is the preprocessing above")
