# Centrosymmetric overlapping tiling of a 216x409 cube into 128x128 patches.
#
# Strides 44 (vertical) and 57 (horizontal) give 3x6 = 18 patches. The
# horizontal stride does not divide the width evenly, so origins are strided
# from the left edge and mirrored from the right edge; the extra overlap
# lands in the image center where predictions matter most.

import numpy as np

from specdrive.tiling import build_grid, extract_patches, overlap_index, reconstruct

grid = build_grid((216, 409), 128, 44, 57)
print(f"rows: {grid.row_starts}")
print(f"cols: {grid.col_starts}")
print(f"patches: {grid.n_patches}")

oi = overlap_index(grid)
print(f"overlap index: min {oi.min()}, max {oi.max()} "
      f"(pixels covered by up to {oi.max()} patches)")

# coarse picture of the overlap structure (every 12th row / 23rd col)
print("\noverlap map (downsampled):")
for row in oi[::16, ::23]:
    print("  " + "".join(str(v) for v in row))

# cut a probability map into patches and rebuild it: averaging identical
# values is the identity, so the rebuilt map equals the original
rng = np.random.default_rng(0)
prob_map = rng.dirichlet(np.ones(3), (216, 409)).astype(np.float32)
patches = extract_patches(prob_map, grid)
rebuilt, labels = reconstruct(patches, grid)
print(f"\nrebuild of a coherent map: max |diff| "
      f"{np.abs(rebuilt - prob_map).max():.2e}")
print(f"per-pixel class sums stay normalized: "
      f"{np.abs(rebuilt.sum(-1) - 1).max():.2e}")

# when patches disagree, overlapping predictions are averaged
a = np.zeros((4, 4, 2), np.float32); a[..., 0] = 0.9; a[..., 1] = 0.1
b = np.zeros((4, 4, 2), np.float32); b[..., 0] = 0.5; b[..., 1] = 0.5
from specdrive.tiling import PatchGrid

two = PatchGrid(4, (0,), (0, 0), (4, 4))
avg, lab = reconstruct([a, b], two)
print(f"\ntwo disagreeing patches (0.9,0.1) and (0.5,0.5) -> "
      f"averaged ({avg[0,0,0]:.1f},{avg[0,0,1]:.1f}) -> class {lab[0,0]}")
