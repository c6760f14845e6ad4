# Full-integer post-training quantization.
#
# Weights go to int8 (per-tensor symmetric), activations to int8 (per-tensor
# affine from calibrated ranges), biases and accumulators stay in int32.
# Batch norm is folded into the convolutions first; requantization between
# layers uses a real-valued multiplier with round-half-away-from-zero.

import numpy as np

from specdrive.model import UNetConfig, build_unet, forward
from specdrive.quant import qforward, quant_report, quantize_model
from specdrive.weights import generate_weights

rng = np.random.default_rng(3)
graph = build_unet(UNetConfig(patch_size=64, encoder_depth=2, initial_filters=8,
                              in_channels=25, classes=3))
weights = generate_weights(graph, seed=5)

# calibration: representative patches drive the activation ranges
calib = [rng.uniform(0, 1, (64, 64, 25)).astype(np.float32) for _ in range(8)]
qg = quantize_model(graph, weights, calib)
# qg.tensors holds each kernel layer's int8 "<layer>.weight" and int32
# "<layer>.bias"; qg.schemes holds their schemes and every activation's
kernel_layers = [n for n in qg.tensors if n.endswith(".weight")]
activations = [n for n in qg.schemes if n not in qg.tensors]
print(f"quantized tensors: {len(kernel_layers)} kernel layers, "
      f"{len(activations)} activation schemes")

probe = [rng.uniform(0, 1, (64, 64, 25)).astype(np.float32) for _ in range(4)]
rep = quant_report(graph, weights, qg, probe)
print(f"\npayload: {rep.size.float_bytes:,} float bytes -> "
      f"{rep.size.quantized_bytes:,} quantized bytes "
      f"(ratio {rep.size.ratio:.3f})")
print(f"argmax agreement on the probe set: {100 * rep.argmax_agreement:.2f}%")

print("\nper-layer |error| vs the float net (dequantized):")
for name, (mean_e, max_e) in sorted(rep.per_layer.items()):
    print(f"  {name:<18} mean {mean_e:9.5f}   max {max_e:9.5f}")

# the integer path is exact integer arithmetic: the fast kernels (which run
# the int32 accumulation through float64 matmuls, exact below 2^53) agree
# bit for bit with plain loop-and-add reference kernels
x = probe[0]
assert np.array_equal(qforward(qg, x), qforward(qg, x, naive=True))
print("\nfast integer kernels match the naive integer reference bitwise")

yf = forward(graph, x, weights)
yq = qforward(qg, x)
print(f"float vs int8 output: mean |diff| {np.abs(yf - yq).mean():.5f}, "
      f"labels agree on {100 * (yf.argmax(-1) == yq.argmax(-1)).mean():.2f}% of pixels")
